#!/usr/bin/env python3
"""Self-test for the simulator benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at tiny size (run.py --smoke), untraced and traced, and
checks that:
  * each run prints its result last, with correct == true and no failures;
  * every metric BENCHMARK.json names prints, finite, with that unit;
  * the provenance line carries the config hash, digest and sim.events, and
    the traced digest equals the untraced one;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def run(root, workload, trace):
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def main():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc = run(REPO_ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                errors.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            provenance = json.loads(lines[-2])["provenance"]
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{label}: outcome checks {provenance['checks']}")
            if sorted(result["metrics"]) != sorted(m["name"] for m in names):
                errors.append(f"{label}: metric names differ from BENCHMARK.json")
            for m in names:
                got = result["metrics"].get(m["name"], {})
                value = got.get("value")
                if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    errors.append(f"{label}: {m['name']} printed as {got}")
            for key in ("config_hash", "digest", "sim.events", "source_sha256", "git_sha"):
                if key not in provenance:
                    errors.append(f"{label}: provenance lacks {key}")
            digests[trace] = provenance.get("digest")
            print(f"ok  {label}: {len(names)} metrics, digest {digests[trace]}")
        if digests.get(0) != digests.get(1):
            errors.append(f"{workload}: traced digest {digests.get(1)} != untraced {digests.get(0)}")

    # Without the simulator sources the benchmark must fail fast and print
    # no result.
    bare = REPO_ROOT / ".bench_build" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(REPO_ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok  bare directory: exit {proc.returncode}, no result")
    shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
