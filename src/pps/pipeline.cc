#include "pps/pipeline.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

namespace roar::pps {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Bounded MPMC queue of index ranges ("batches").
class BatchQueue {
 public:
  explicit BatchQueue(size_t capacity) : capacity_(capacity) {}

  void push(std::pair<size_t, size_t> batch) {
    std::unique_lock lock(mu_);
    not_full_.wait(lock, [&] { return q_.size() < capacity_; });
    q_.push_back(batch);
    not_empty_.notify_one();
  }

  void close() {
    std::lock_guard lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

  std::optional<std::pair<size_t, size_t>> pop() {
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return std::nullopt;
    auto b = q_.front();
    q_.pop_front();
    not_full_.notify_one();
    return b;
  }

 private:
  size_t capacity_;
  std::deque<std::pair<size_t, size_t>> q_;
  bool closed_ = false;
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
};

}  // namespace

PipelineConfig pps_lm_config() {
  PipelineConfig cfg;
  // LM forces a collection after every query: higher fixed cost, lower
  // steady-state memory. Calibrated so the fixed-cost knee sits near the
  // paper's ~100k-file point.
  cfg.fixed_cost_s = 0.120;
  return cfg;
}

PipelineConfig pps_lc_config() {
  PipelineConfig cfg;
  cfg.fixed_cost_s = 0.030;
  return cfg;
}

MatchPipeline::MatchPipeline(const MetadataStore& store,
                             PipelineConfig config)
    : store_(store), config_(config) {
  if (config_.matcher_threads == 0) config_.matcher_threads = 1;
  if (config_.batch_entries == 0) config_.batch_entries = 1;
}

QueryStats MatchPipeline::run(const MetadataStore::RangeSlice& slice,
                              const MultiPredicateQuery& query) const {
  return config_.realtime ? run_realtime(slice, query)
                          : run_modeled(slice, query);
}

QueryStats MatchPipeline::run_realtime(
    const MetadataStore::RangeSlice& slice,
    const MultiPredicateQuery& query) const {
  QueryStats stats;
  const auto& items = store_.items();
  auto t0 = Clock::now();

  BatchQueue queue(config_.queue_capacity);
  std::atomic<uint64_t> produced{0};
  std::atomic<uint64_t> consumed{0};
  std::atomic<uint64_t> matches{0};
  std::atomic<uint64_t> prf_calls{0};
  std::mutex trace_mu;
  std::vector<TracePoint> trace;

  auto record_trace = [&](bool force = false) {
    if (config_.trace_every == 0) return;
    uint64_t c = consumed.load(std::memory_order_relaxed);
    if (!force && c % config_.trace_every != 0) return;
    std::lock_guard lock(trace_mu);
    trace.push_back(TracePoint{seconds_since(t0),
                               produced.load(std::memory_order_relaxed), c});
  };

  // I/O thread: paces batches at the modelled device rate.
  std::thread producer([&] {
    for (auto [first, last] : slice.extents) {
      bool first_batch_of_extent = true;
      for (size_t b = first; b < last; b += config_.batch_entries) {
        size_t e = std::min(b + config_.batch_entries, last);
        uint64_t bytes = 0;
        for (size_t i = b; i < e; ++i) bytes += items[i].byte_size();
        double io_s = config_.io.read_seconds(
            config_.source, bytes, first_batch_of_extent ? 1 : 0);
        first_batch_of_extent = false;
        if (io_s > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(io_s));
        }
        // Count the batch before publishing it: once pushed, a matcher may
        // consume (and trace) it immediately, and traces must never show
        // consumed > produced.
        produced.fetch_add(e - b, std::memory_order_relaxed);
        queue.push({b, e});
      }
    }
    queue.close();
  });

  std::atomic<double> cpu_total{0.0};
  std::vector<std::thread> matchers;
  matchers.reserve(config_.matcher_threads);
  for (size_t t = 0; t < config_.matcher_threads; ++t) {
    matchers.emplace_back([&] {
      auto eval = query.evaluate();
      MatchCost cost;
      double busy = 0.0;
      while (auto batch = queue.pop()) {
        auto tb = Clock::now();
        uint64_t local_matches = 0;
        for (size_t i = batch->first; i < batch->second; ++i) {
          if (eval.match(items[i], &cost)) ++local_matches;
        }
        busy += seconds_since(tb);
        matches.fetch_add(local_matches, std::memory_order_relaxed);
        consumed.fetch_add(batch->second - batch->first,
                           std::memory_order_relaxed);
        record_trace();
      }
      prf_calls.fetch_add(cost.prf_calls, std::memory_order_relaxed);
      double expected = cpu_total.load();
      while (!cpu_total.compare_exchange_weak(expected, expected + busy)) {
      }
    });
  }

  producer.join();
  for (auto& m : matchers) m.join();
  record_trace(/*force=*/true);

  if (config_.fixed_cost_s > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config_.fixed_cost_s));
  }

  stats.scanned = slice.count;
  stats.matches = matches.load();
  stats.duration_s = seconds_since(t0);
  stats.io_s = config_.io.read_seconds(
      config_.source, store_.bytes(slice),
      static_cast<uint32_t>(slice.extents.size()));
  stats.cpu_s = cpu_total.load();
  stats.fixed_s = config_.fixed_cost_s;
  stats.prf_calls = prf_calls.load();
  stats.trace = std::move(trace);
  return stats;
}

QueryStats MatchPipeline::run_modeled(
    const MetadataStore::RangeSlice& slice,
    const MultiPredicateQuery& query) const {
  QueryStats stats;
  const auto& items = store_.items();
  auto eval = query.evaluate();
  MatchCost cost;

  auto t0 = Clock::now();
  uint64_t matches = 0;
  for (auto [first, last] : slice.extents) {
    for (size_t i = first; i < last; ++i) {
      if (eval.match(items[i], &cost)) ++matches;
    }
  }
  double cpu_measured = seconds_since(t0);

  stats.scanned = slice.count;
  stats.matches = matches;
  stats.io_s = config_.io.read_seconds(
      config_.source, store_.bytes(slice),
      static_cast<uint32_t>(slice.extents.size()));
  stats.cpu_s = cpu_measured;
  stats.fixed_s = config_.fixed_cost_s;
  double cpu_parallel =
      cpu_measured / static_cast<double>(config_.matcher_threads);
  stats.duration_s = config_.fixed_cost_s + std::max(stats.io_s, cpu_parallel);
  stats.prf_calls = cost.prf_calls;
  return stats;
}

}  // namespace roar::pps
