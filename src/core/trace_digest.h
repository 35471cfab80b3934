// Seed → trace-hash digest shared by the determinism regression tests and
// the golden-regeneration tool (tools/golden_hashes.cc, driven by
// tools/regen_goldens.py / the `regen-goldens` cmake target).
//
// The digest folds every observable statistic of an experiment (per-QP
// counters, per-spine byte counts, drops, PFC pauses, completion times)
// into one FNV-1a value. Behaviour-shifting PRs regenerate the golden
// constants in tests/determinism_test.cc with the tool instead of
// hand-editing them; the digest itself must stay stable across refactors,
// or every golden loses its meaning.

#ifndef THEMIS_SRC_CORE_TRACE_DIGEST_H_
#define THEMIS_SRC_CORE_TRACE_DIGEST_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>

#include "src/core/experiment.h"
#include "src/telemetry/export.h"
#include "src/telemetry/telemetry.h"

namespace themis {

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Plain FNV-1a over a byte string (the export goldens hash exporter output).
inline uint64_t FnvBytes(std::string_view bytes) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

inline uint64_t DigestExperiment(Experiment& exp) {
  uint64_t h = 0xCBF29CE484222325ULL;
  h = FnvMix(h, static_cast<uint64_t>(exp.sim().now()));
  for (int i = 0; i < exp.host_count(); ++i) {
    for (const SenderQp* qp : exp.host(i)->sender_qps()) {
      const SenderQpStats& s = qp->stats();
      h = FnvMix(h, qp->flow_id());
      h = FnvMix(h, static_cast<uint64_t>(s.first_post_time));
      h = FnvMix(h, static_cast<uint64_t>(s.last_completion_time));
      h = FnvMix(h, s.data_packets_sent);
      h = FnvMix(h, s.data_bytes_sent);
      h = FnvMix(h, s.rtx_packets);
      h = FnvMix(h, s.rtx_bytes);
      h = FnvMix(h, s.acks_received);
      h = FnvMix(h, s.nacks_received);
      h = FnvMix(h, s.cnps_received);
      h = FnvMix(h, s.timeouts);
      h = FnvMix(h, s.messages_completed);
      h = FnvMix(h, qp->snd_una());
      h = FnvMix(h, qp->snd_nxt());
    }
    for (const ReceiverQp* qp : exp.host(i)->receiver_qps()) {
      const ReceiverQpStats& s = qp->stats();
      h = FnvMix(h, s.data_packets);
      h = FnvMix(h, s.goodput_bytes);
      h = FnvMix(h, s.ooo_arrivals);
      h = FnvMix(h, s.duplicates);
      h = FnvMix(h, s.acks_sent);
      h = FnvMix(h, s.nacks_sent);
      h = FnvMix(h, s.cnps_sent);
    }
  }
  for (uint64_t b : exp.SpineDataBytes()) {
    h = FnvMix(h, b);
  }
  h = FnvMix(h, exp.TotalPortDrops());
  h = FnvMix(h, exp.TotalPfcPauses());
  h = FnvMix(h, exp.TotalDataBytesSent());
  return h;
}

// The canonical golden-determinism experiment: a small but non-trivial
// 2x2x2 leaf-spine, cross-rack allreduce, DCQCN with aggressive timers,
// 100 ns fabric skew (so OOO, NACKs, CNPs, RTOs all occur). `pfc` selects
// the lossless (default, golden) vs. droppy variant — the non-PFC goldens
// pin that pause-aware mechanisms are inert when no pause ever happens.
inline ExperimentConfig DeterminismConfig(Scheme scheme, uint64_t seed, bool pfc = true) {
  ExperimentConfig config;
  config.seed = seed;
  config.num_tors = 2;
  config.num_spines = 2;
  config.hosts_per_tor = 2;
  config.link_rate = Rate::Gbps(100);
  config.scheme = scheme;
  config.dcqcn_ti = 10 * kMicrosecond;
  config.dcqcn_td = 50 * kMicrosecond;
  config.fabric_delay_skew = 100 * kNanosecond;
  config.pfc_enabled = pfc;
  return config;
}

// Runs the canonical experiment and returns its digest (see the tests for
// telemetry-attached and calendar-occupancy variants of the same run).
inline uint64_t GoldenTraceHash(Scheme scheme, uint64_t seed, bool pfc = true) {
  Experiment exp(DeterminismConfig(scheme, seed, pfc));
  auto result = exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(2),
                                  1 << 20, 10 * kSecond);
  uint64_t h = DigestExperiment(exp);
  h = FnvMix(h, result.all_done ? 1 : 0);
  h = FnvMix(h, static_cast<uint64_t>(result.tail_completion));
  return h;
}

// The canonical experiment with a default Telemetry bundle attached for the
// whole run, exported: the Chrome-trace JSON followed by the counters CSV.
inline std::string ExportStream(Scheme scheme, uint64_t seed) {
  Experiment exp(DeterminismConfig(scheme, seed));
  Telemetry telemetry(&exp.sim());
  exp.AttachTelemetry(&telemetry);
  telemetry.StartSampling();
  exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(2), 1 << 20,
                    10 * kSecond);
  telemetry.StopSampling();
  telemetry.sampler().SampleNow();
  std::ostringstream out;
  WriteChromeTrace(telemetry.trace(), out, telemetry.MakeNodeNamer());
  WriteCountersCsv(telemetry.sampler(), out);
  return out.str();
}

// The golden chaos campaign: all four fault classes on the canonical 2x2x2
// fabric, timed to land inside the allreduce. Fixed/uniform down-times only —
// the exponential distribution draws through std::log, whose last-bit
// behaviour belongs to libm, so it stays out of anything hash-pinned.
inline ScenarioScript ScenarioCampaignScript() {
  ScenarioScript script;
  std::string error;
  if (!ParseScenario(
          "seed 7\n"
          "sample-period 20us\n"
          "flap target=tor0:up0 at=100us down=80us\n"
          "gray target=spine1:* at=250us duration=200us drop=5e-3 corrupt=5e-3\n"
          "degrade target=tor1:up0 at=300us duration=150us factor=0.5\n"
          "reboot target=spine0 at=600us down=uniform:50us:100us\n",
          &script, &error)) {
    std::fprintf(stderr, "golden campaign script failed to parse: %s\n", error.c_str());
    std::abort();
  }
  return script;
}

// The fat-tree golden run: the canonical experiment on a k=4 fat-tree (16
// hosts under edge, aggregation and core tiers), Themis spraying in
// `spray_mode`, and a 1 MB allreduce in each of the two cross-rack groups,
// which span all four pods. The 2x2x2 goldens never route over more than two
// candidates; this run pins the route tables of all three tiers. kTorEgress
// sprays by the ToR's PSN-spray policy; kSportRewrite runs Themis-S, the one
// hook that rewrites packets, ahead of ECMP at every tier. `flap` fails the
// pod0-edge0:up0 link in both directions inside the allreduce, so the
// failed-candidate filter runs at the edge and aggregation tiers too.
inline ExperimentConfig FatTreeDeterminismConfig(SprayMode spray_mode, bool flap) {
  ExperimentConfig config = DeterminismConfig(Scheme::kThemis, 1);
  config.fabric = FabricKind::kFatTree;
  config.fat_tree_k = 4;
  config.themis_spray_mode = spray_mode;
  if (flap) {
    std::string error;
    if (!ParseScenario("seed 7\nflap target=pod0-edge0:up0 at=30us down=50us\n",
                       &config.scenario, &error)) {
      std::fprintf(stderr, "fat-tree flap script failed to parse: %s\n", error.c_str());
      std::abort();
    }
  }
  return config;
}

// Digest of a fat-tree golden run: the experiment digest plus every switch's
// forwarded and no-route counts, which move if any tier picks another egress.
inline uint64_t FatTreeTraceHash(SprayMode spray_mode, bool flap, bool burst = true) {
  Experiment exp(FatTreeDeterminismConfig(spray_mode, flap));
  exp.sim().set_burst_enabled(burst);
  auto result = exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(2),
                                  1 << 20, 10 * kSecond);
  uint64_t h = DigestExperiment(exp);
  h = FnvMix(h, result.all_done ? 1 : 0);
  h = FnvMix(h, static_cast<uint64_t>(result.tail_completion));
  for (const Switch* sw : exp.topology().switches) {
    h = FnvMix(h, sw->stats().forwarded);
    h = FnvMix(h, sw->stats().no_route_drops);
  }
  return h;
}

// Digest of a golden campaign run: the full experiment digest plus every
// fault record's recovery arithmetic, so scheduling, gray RNG streams,
// down-time draws, and the RecoveryTracker are all under the pin. The
// collective is 8x the clean-golden size: the 1 MB run ends near 104 us,
// before most of the campaign fires; 8 MB (~800 us clean) keeps every fault
// window inside live traffic.
inline uint64_t ScenarioCampaignHash() {
  ExperimentConfig config = DeterminismConfig(Scheme::kThemis, 1);
  config.scenario = ScenarioCampaignScript();
  Experiment exp(config);
  auto result = exp.RunCollective(CollectiveKind::kAllreduce, exp.MakeCrossRackGroups(2),
                                  8 << 20, 10 * kSecond);
  exp.scenario()->Finalize();
  uint64_t h = DigestExperiment(exp);
  h = FnvMix(h, result.all_done ? 1 : 0);
  h = FnvMix(h, static_cast<uint64_t>(result.tail_completion));
  for (const FaultRecord& f : exp.scenario()->tracker().records()) {
    h = FnvMix(h, static_cast<uint64_t>(f.event_index));
    h = FnvMix(h, static_cast<uint64_t>(f.kind));
    h = FnvMix(h, static_cast<uint64_t>(f.applied));
    h = FnvMix(h, static_cast<uint64_t>(f.cleared));
    h = FnvMix(h, static_cast<uint64_t>(f.first_drop));
    h = FnvMix(h, static_cast<uint64_t>(f.recovered));
    h = FnvMix(h, f.drops_during);
    h = FnvMix(h, f.victim_flows);
  }
  return h;
}

}  // namespace themis

#endif  // THEMIS_SRC_CORE_TRACE_DIGEST_H_
