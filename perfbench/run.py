#!/usr/bin/env python3
"""The simulator benchmark: one workload, one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_sim (perfbench/CMakeLists.txt:
the repository's src/ libraries plus perfbench/perfbench.cc) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the named
workload for about S seconds, checks its outputs, and prints one JSON line
last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced repetitions; --trace 1
reports the per-layer metrics from alternating untraced and traced
repetitions (see perfbench/README.md). A provenance line (source hash, git
SHA when available, config hash, digest, sim.events, checks) precedes the
result line and is also written to <build dir>/results/.
--smoke shrinks every workload to a fraction of a second (the self-test).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

WORKLOADS = (
    "fig1_spray_recovery",
    "fig5_allreduce_themis",
    "fattree_k16_uniform_themis",
    "fattree_k8_observed",
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "core.construct_s": "s",
    "workload.generate_s": "s",
    "workload.flows": "count",
    "ops_failed_frac": "ratio",
    "sim.run_s": "s",
    "sim.untagged_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.sim_us_per_wall_s": "us/s",
    "sim.heap_scheduled": "count",
    "sim.wheel_scheduled": "count",
    "sim.calendar_scheduled": "count",
    "sim.bursts": "count",
    "sim.burst_events": "count",
    "sim.mean_burst_len": "events",
    "net.dispatch_s": "s",
    "net.dispatch_calls": "count",
    "net.tx_packets": "count",
    "net.ecn_marks": "count",
    "net.drops": "count",
    "net.pause_transitions": "count",
    "net.max_queue_bytes": "B",
    "topo.forwarded": "count",
    "topo.consumed_by_hook": "count",
    "topo.pfc_pauses_sent": "count",
    "lb.select_s": "s",
    "lb.selects": "count",
    "themis.data_tracked": "count",
    "themis.flows_created": "count",
    "themis.nacks_seen": "count",
    "themis.nacks_blocked": "count",
    "themis.nacks_forwarded_unmatched": "count",
    "themis.compensated_nacks": "count",
    "themis.block_ratio": "ratio",
    "rnic.qps": "count",
    "rnic.data_packets_sent": "count",
    "rnic.rtx_packets": "count",
    "rnic.goodput_ratio": "ratio",
    "rnic.nacks_received": "count",
    "rnic.timeouts": "count",
    "rnic.ooo_arrivals": "count",
    "cc.rate_decreases": "count",
    "cc.nack_decreases": "count",
    "cc.cnp_received": "count",
    "telemetry.attach_s": "s",
    "telemetry.columns": "count",
    "telemetry.samples": "count",
    "telemetry.trace_records": "count",
    "telemetry.trace_overwritten": "count",
    "telemetry.export_s": "s",
    "telemetry.export_bytes": "B",
    "trace_overhead_frac": "ratio",
}

# Every run must exit within 180 s; the binary stops starting repetitions
# once --seconds is spent, so this only guards against a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build_dir():
    return REPO_ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    """Configures once, then lets the build tool rebuild whatever changed."""
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench_sim", "-j", "4"],
        check=True, stdout=sys.stderr)
    return out / "perfbench_sim"


def source_hash():
    """SHA-256 over every file the benchmark builds from (the checkout it
    runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(REPO_ROOT)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (REPO_ROOT / ".git").exists():
        return None
    result = subprocess.run(["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def checks(raw):
    """Outcome checks over every repetition; returns {name: bool}."""
    reps = raw["reps"]
    first = reps[0]
    out = {}
    for rep in reps:
        for name, ok in rep["checks"].items():
            out[name] = out.get(name, True) and ok
    out["digest_identical_across_reps"] = all(r["digest"] == first["digest"] for r in reps)
    out["counters_identical_across_reps"] = all(r["counters"] == first["counters"] for r in reps)
    return out


def end_to_end_metrics(raw):
    walls = [r["wall_s"] for r in raw["reps"] if not r["traced"]]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(raw["setup_samples"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer_metrics(raw):
    reps = raw["reps"]
    c = reps[0]["counters"]
    traced = sorted((r for r in reps if r["traced"]), key=lambda r: r["run_s"])
    untraced_wall = statistics.median([r["wall_s"] for r in reps if not r["traced"]])
    # The traced repetition with the median run time supplies every
    # run-phase timing, so net.dispatch_s + sim.untagged_s == sim.run_s.
    tr = traced[len(traced) // 2]
    ratio = lambda num, den: num / den if den else 0.0
    m = {name: c[name] for name in PER_LAYER if name in c}
    m.update({
        "core.construct_s": statistics.median([r["construct_s"] for r in reps]),
        "workload.generate_s": statistics.median([r["generate_s"] for r in reps]),
        "ops_failed_frac": ratio(tr["failed"], tr["attempted"]),
        "sim.run_s": tr["run_s"],
        "sim.untagged_s": tr["run_s"] - tr["dispatch_s"],
        "sim.events_per_s": ratio(c["sim.events"], tr["run_s"]),
        "sim.sim_us_per_wall_s": ratio(c["sim.sim_us"], tr["run_s"]),
        "sim.mean_burst_len": ratio(c["sim.burst_events"], c["sim.bursts"]),
        "net.dispatch_s": tr["dispatch_s"],
        "net.dispatch_calls": tr["dispatch_calls"],
        "lb.select_s": tr["select_s"],
        "lb.selects": tr["selects"],
        "themis.block_ratio": ratio(c["themis.nacks_blocked"], c["themis.nacks_seen"]),
        "rnic.goodput_ratio": 1.0 - ratio(c["rnic.rtx_bytes"], c["rnic.data_bytes_sent"]),
        "telemetry.attach_s": statistics.median([r["attach_s"] for r in reps]),
        "telemetry.export_s": statistics.median([r["export_s"] for r in reps]),
        "trace_overhead_frac":
            ratio(statistics.median([r["wall_s"] for r in traced]), untraced_wall) - 1.0,
    })
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, two repetitions (self-test only)")
    args = parser.parse_args()

    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"simulator sources not found under {REPO_ROOT}/src")
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        return fail(f"build failed: {error}")

    command = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.smoke:
        command.append("--smoke")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        return fail(f"perfbench_sim exited with {run.returncode}")
    raw = json.loads(run.stdout)
    if not raw["reps"]:
        return fail("no repetition ran")

    outcome = checks(raw)
    correct = all(outcome.values())
    if args.trace:
        values, units = per_layer_metrics(raw), PER_LAYER
    else:
        values, units = end_to_end_metrics(raw), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    first = raw["reps"][0]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
        "config_hash": raw["config_hash"],
        "digest": first["digest"],
        "sim.events": first["counters"]["sim.events"],
        "repetitions": len(raw["reps"]),
        "setup_samples": len(raw["setup_samples"]),
        "checks": outcome,
    }
    result = {
        "correct": correct,
        "attempted": len(raw["reps"]),
        "failed": sum(1 for r in raw["reps"] if not all(r["checks"].values())),
        "metrics": metrics,
    }
    results_dir = out / "results"
    results_dir.mkdir(exist_ok=True)
    record = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": provenance, "result": result}, indent=1) + "\n")

    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
