// Figure 1 (motivation): the cost of naively combining packet spraying with
// commodity NIC-SR RNICs.
//
// Topology (Fig. 1a): two racks of four hosts, four spines, 100 Gbps links.
// Two ring groups arranged so that every ring hop crosses racks; each node
// sends one large message to its ring successor (paper: 100 MB; default
// here scaled, THEMIS_FULL_SCALE=1 restores 100 MB+). Random packet
// spraying, NIC-SR, DCQCN.
//
//  * Fig. 1b — retransmission ratio over time (paper: ~16% average, with
//    ZERO actual packet loss).
//  * Fig. 1c — sending rate of one flow over time (paper: ~86% of the
//    100 Gbps line rate due to NACK-triggered rate cuts).
//  * Fig. 1d — average flow throughput, NIC-SR vs ideal OOO-tolerant
//    transport (paper: 68.09 vs 95.43 Gbps, i.e. ~71%).
//
// The paper does not state Fig. 1's DCQCN parameters; we use
// (TI=10us, TD=200us), which lands the simulator in the same operating
// regime (high rate + frequent spurious retransmissions). See
// EXPERIMENTS.md for the sensitivity discussion.

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/core/experiment.h"
#include "src/experiment_service/grids.h"
#include "src/stats/report.h"
#include "src/stats/samplers.h"

namespace themis {
namespace {

double AverageFlowGoodputGbps(Experiment& exp) {
  double sum = 0.0;
  int count = 0;
  for (int h = 0; h < exp.host_count(); ++h) {
    for (const SenderQp* qp : exp.host(h)->sender_qps()) {
      const double duration =
          ToSeconds(qp->stats().last_completion_time - qp->stats().first_post_time);
      if (duration <= 0) {
        continue;
      }
      sum += static_cast<double>(qp->stats().bytes_posted) * 8.0 / duration / 1e9;
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / count;
}

// Fig. 1b + 1c: run NIC-SR under spraying with time-series sampling.
bool RunFig1bc(uint64_t bytes) {
  Experiment exp(Fig1Config());

  // The observed flow: ring-group 0's first hop (host 0 -> host 4),
  // mirroring the paper's "flow from node 0 to 2".
  SenderQp* observed = exp.connections().GetChannel(0, 4).tx;
  const TimePs sample_period = 20 * kMicrosecond;
  RateSampler rate_sampler(&exp.sim(), sample_period,
                           [observed] { return observed->stats().data_bytes_sent; });
  RateSampler rtx_sampler(&exp.sim(), sample_period,
                          [observed] { return observed->stats().rtx_bytes; });

  auto result = exp.RunCollective(CollectiveKind::kNeighborRing, kFig1Rings, bytes, 60 * kSecond);
  rate_sampler.Stop();
  rtx_sampler.Stop();
  if (!result.all_done) {
    std::printf("Fig1bc: ring traffic did not finish\n");
    return false;
  }

  // Fig. 1b/1c tables: windowed retransmission ratio and sending rate.
  Table series({"t_us", "rate_gbps", "rtx_ratio"});
  const auto& rate = rate_sampler.series().samples();
  const auto& rtx = rtx_sampler.series().samples();
  const size_t n = std::min(rate.size(), rtx.size());
  const size_t stride = std::max<size_t>(1, n / 16);  // print ~16 rows
  for (size_t i = 0; i < n; i += stride) {
    const double ratio = rate[i].value <= 0.0 ? 0.0 : rtx[i].value / rate[i].value;
    series.AddRow({FormatDouble(ToMicroseconds(rate[i].time), 0),
                   FormatDouble(rate[i].value, 1), FormatDouble(ratio, 3)});
  }
  std::printf("\n=== Fig 1b/1c: flow 0->4 under random spraying + NIC-SR ===\n");
  series.Print();
  std::printf("average sending rate: %.1f Gbps (line rate 100, paper: ~86)\n",
              rate_sampler.series().Mean());
  std::printf("average retransmission ratio (all flows): %.3f (paper: ~0.16)\n",
              exp.AggregateRetransmissionRatio());
  std::printf("actual packet loss: %llu drops (paper: zero loss)\n\n",
              static_cast<unsigned long long>(exp.TotalPortDrops()));
  return true;
}

// Fig. 1d: average flow throughput, NIC-SR vs ideal transport. Adds the
// run's row to `summary`.
bool RunFig1d(TransportKind transport, uint64_t bytes, Table* summary) {
  ExperimentConfig config = Fig1Config();
  config.transport = transport;
  Experiment exp(config);
  auto result = exp.RunCollective(CollectiveKind::kNeighborRing, kFig1Rings, bytes, 60 * kSecond);
  if (!result.all_done) {
    std::printf("Fig1d %s: ring traffic did not finish\n", TransportKindName(transport));
    return false;
  }
  summary->AddRow({"Fig1d", TransportKindName(transport),
                   FormatDouble(ToMilliseconds(result.tail_completion), 3),
                   FormatDouble(exp.AggregateRetransmissionRatio(), 4),
                   std::to_string(exp.TotalNacksReceived()), "0",
                   std::to_string(exp.TotalPortDrops())});
  std::printf("Fig1d %-9s: average flow throughput %.2f Gbps (paper: %s)\n",
              TransportKindName(transport), AverageFlowGoodputGbps(exp),
              transport == TransportKind::kNicSr ? "68.09" : "95.43 (ideal)");
  return true;
}

}  // namespace
}  // namespace themis

int main() {
  using namespace themis;
  const uint64_t bytes = SweepMessageBytes(8);
  Table summary(SplitCsvHeader(kCollectiveCsvHeader));
  bool ok = RunFig1bc(bytes);
  ok = RunFig1d(TransportKind::kNicSr, bytes, &summary) && ok;
  ok = RunFig1d(TransportKind::kIdeal, bytes, &summary) && ok;
  std::printf("\n=== Fig. 1 motivation experiment ===\n");
  summary.Print();
  return ok ? 0 : 1;
}
