// Figure 5.4 — execution traces for a query over the collection, with the
// I/O (producer) and matcher (consumer) progress lines: disk-bound (the
// two lines overlap at the disk rate) vs buffer-cache (the matcher lags —
// it is the bottleneck).
#include "bench/bench_util.h"
#include "bench/pps_bench_common.h"

using namespace roar;
using namespace roar::bench;

namespace {

// Steady-state consumer lag: fraction of produced items not yet consumed
// at the middle of the run (the ramp-up while the bounded buffer fills is
// excluded). ~0 when the producer is the bottleneck; large when the
// matcher is.
double consumer_lag_fraction(const pps::QueryStats& stats) {
  if (stats.trace.empty()) return 0.0;
  const auto& tp = stats.trace[stats.trace.size() / 2];
  if (tp.produced == 0) return 0.0;
  return static_cast<double>(tp.produced - tp.consumed) /
         static_cast<double>(tp.produced);
}

}  // namespace

int main() {
  constexpr size_t kItems = 150'000;
  // Paper-sized (~700 B) metadata: the disk bytes-per-metadata ratio is
  // what makes the cold run I/O-bound, exactly as in the thesis.
  PpsFixture fx(/*paper_sized_metadata=*/true);
  fx.build(kItems);
  header("Figure 5.4", "execution traces, " + std::to_string(kItems) +
                           " metadata, 1 matching thread");

  pps::PipelineConfig disk;
  disk.source = pps::SourceMode::kColdDisk;
  disk.matcher_threads = 1;
  disk.trace_every = 10'000;
  disk.batch_entries = 2'000;
  // Calibration: the thesis' Dell 1950 read 230 B metadata at 66 MB/s
  // (3.5 µs/item) against 1.1 µs/item of SHA-1 matching — disk ~3x CPU.
  // 28 MB/s reads a ~700 B item in ~26 µs, so the cold run stays disk-bound
  // against AES matching (~1.1 µs/item on a 4-vCPU AES-NI Xeon: ~24x).
  disk.io.disk_mb_s = 28.0;

  pps::PipelineConfig cache = disk;
  cache.source = pps::SourceMode::kBufferCache;

  auto q = fx.zero_match_query(/*keywords=*/1);
  auto disk_stats = pps::MatchPipeline(fx.store, disk).run_all(q);
  auto cache_stats = pps::MatchPipeline(fx.store, cache).run_all(q);

  note("(a) cold disk (66 MB/s model)");
  columns({"t_s", "produced", "consumed"});
  for (const auto& tp : disk_stats.trace) {
    row({tp.t_s, static_cast<double>(tp.produced),
         static_cast<double>(tp.consumed)});
  }
  blank();
  note("(b) OS buffer cache");
  columns({"t_s", "produced", "consumed"});
  for (const auto& tp : cache_stats.trace) {
    row({tp.t_s, static_cast<double>(tp.produced),
         static_cast<double>(tp.consumed)});
  }
  blank();
  note("disk query: " + std::to_string(disk_stats.duration_s) + " s; cache query: " +
       std::to_string(cache_stats.duration_s) + " s");

  double disk_lag = consumer_lag_fraction(disk_stats);
  double cache_lag = consumer_lag_fraction(cache_stats);
  shape("disk-bound: I/O thread is the bottleneck (lines overlap, lag " +
            std::to_string(disk_lag) + ")",
        disk_lag < 0.25);
  shape("buffer cache: matcher is the bottleneck (consumer lags, " +
            std::to_string(cache_lag) + ")",
        cache_lag > disk_lag);
  shape("warm run faster than cold (" + std::to_string(cache_stats.duration_s) +
            " vs " + std::to_string(disk_stats.duration_s) + " s)",
        cache_stats.duration_s < disk_stats.duration_s);
  return 0;
}
