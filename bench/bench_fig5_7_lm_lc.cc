// Figure 5.7 — PPS_LM vs PPS_LC scaling on the slower (CPU-bound) host:
// both delay curves share the same linear shape; LM's higher per-query
// fixed cost (forced collection) makes its throughput drop-off at small
// collections steeper.
#include "bench/bench_util.h"
#include "bench/pps_bench_common.h"

using namespace roar;
using namespace roar::bench;

int main() {
  constexpr size_t kMax = 256'000;
  PpsFixture fx;
  fx.build(kMax);
  header("Figure 5.7", "PPS_LM vs PPS_LC scaling (Sun X4100 model)");
  columns({"collection", "lm_delay_s", "lc_delay_s", "lm_rate_mps",
           "lc_rate_mps"});

  auto q = fx.zero_match_query();
  std::vector<double> lm_rates, lc_rates, lm_delays, lc_delays;
  for (size_t count :
       {8'000u, 16'000u, 32'000u, 64'000u, 128'000u, 256'000u}) {
    pps::MetadataStore::RangeSlice slice;
    slice.extents.emplace_back(0, count);
    slice.count = count;
    // CPU-bound single matcher thread (the X4100 regime of §5.7.2).
    pps::PipelineConfig lm = pps::pps_lm_config();
    lm.source = pps::SourceMode::kMemory;
    lm.realtime = false;
    pps::PipelineConfig lc = pps::pps_lc_config();
    lc.source = pps::SourceMode::kMemory;
    lc.realtime = false;

    auto rlm = pps::MatchPipeline(fx.store, lm).run(slice, q);
    auto rlc = pps::MatchPipeline(fx.store, lc).run(slice, q);
    lm_delays.push_back(rlm.duration_s);
    lc_delays.push_back(rlc.duration_s);
    lm_rates.push_back(rlm.metadata_per_s());
    lc_rates.push_back(rlc.metadata_per_s());
    row({static_cast<double>(count), rlm.duration_s, rlc.duration_s,
         lm_rates.back(), lc_rates.back()});
  }

  shape("LC throughput beats LM at small collections (8k: " +
            std::to_string(lc_rates.front() / lm_rates.front()) + "x)",
        lc_rates.front() > 1.5 * lm_rates.front());
  shape("gap closes at large collections (256k ratio " +
            std::to_string(lc_rates.back() / lm_rates.back()) + "x)",
        lc_rates.back() / lm_rates.back() <
            0.7 * lc_rates.front() / lm_rates.front());
  shape("both curves linear in collection size at scale",
        lm_delays.back() / lm_delays[lm_delays.size() - 2] > 1.6);
  return 0;
}
