// Figure 5.6 — PPS query delay and server processing speed as the file
// collection grows, disk-bound vs in-memory: delay scales linearly once
// fixed costs are amortised; processing speed levels off past ~100-250k
// files; disk-bound delay crosses 1 s by a few hundred thousand metadata.
#include "bench/bench_util.h"
#include "bench/pps_bench_common.h"

using namespace roar;
using namespace roar::bench;

int main() {
  constexpr size_t kMax = 512'000;
  PpsFixture fx;
  fx.build(kMax);
  header("Figure 5.6", "PPS scaling with collection size (Dell 1950 model)");
  columns({"collection", "disk_delay_s", "mem_delay_s", "disk_rate_mps",
           "mem_rate_mps"});

  auto q = fx.zero_match_query();
  std::vector<double> sizes, disk_delays, mem_delays, disk_rates, mem_rates;
  for (size_t count :
       {8'000u, 16'000u, 32'000u, 64'000u, 128'000u, 256'000u, 512'000u}) {
    // Slice the prefix of the prebuilt corpus by index range.
    pps::MetadataStore::RangeSlice slice;
    slice.extents.emplace_back(0, count);
    slice.count = count;

    pps::PipelineConfig disk = pps::pps_lm_config();
    disk.source = pps::SourceMode::kColdDisk;
    disk.realtime = false;
    pps::PipelineConfig mem = pps::pps_lm_config();
    mem.source = pps::SourceMode::kMemory;
    mem.matcher_threads = 4;
    mem.realtime = false;

    auto d = pps::MatchPipeline(fx.store, disk).run(slice, q);
    auto m = pps::MatchPipeline(fx.store, mem).run(slice, q);
    sizes.push_back(static_cast<double>(count));
    disk_delays.push_back(d.duration_s);
    mem_delays.push_back(m.duration_s);
    disk_rates.push_back(d.metadata_per_s());
    mem_rates.push_back(m.metadata_per_s());
    row({sizes.back(), d.duration_s, m.duration_s, disk_rates.back(),
         mem_rates.back()});
  }

  // Linearity at the top end: doubling the collection ~doubles delay.
  double disk_linearity = disk_delays.back() / disk_delays[disk_delays.size() - 2];
  // Fixed-cost knee: rate at 8k files much lower than at the plateau.
  double knee = disk_rates.front() / disk_rates.back();
  shape("disk delay linear at scale (512k/256k ratio " +
            std::to_string(disk_linearity) + " ~ 2)",
        disk_linearity > 1.6 && disk_linearity < 2.4);
  shape("processing speed levels off after fixed costs amortise (8k rate is " +
            std::to_string(knee) + "x of plateau)",
        knee < 0.6);
  shape("in-memory beats disk at every size",
        [&] {
          for (size_t i = 0; i < sizes.size(); ++i) {
            if (mem_delays[i] >= disk_delays[i]) return false;
          }
          return true;
        }());
  shape("disk-bound delay exceeds 1s within the sweep (paper: at ~250k)",
        disk_delays.back() > 1.0);
  return 0;
}
