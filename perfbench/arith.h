// The benchmark's own arithmetic: percentiles that refuse to guess from
// too few samples, open-loop arrivals timed from their due time, and the
// tally that decides which queries count as failed. Header-only so the
// driver (roar_perf.cc) and its test (arith_test.cc) share one copy.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace perfbench {

// A percentile is reported only when at least this many samples lie
// beyond it, so a p99 needs >= 1000 samples and a p50 >= 20.
inline constexpr size_t kTailSamples = 10;

// Nearest-rank percentile q in (0, 1). Empty when fewer than
// kTailSamples samples rank above the chosen one.
inline std::optional<double> percentile(std::vector<double> v, double q) {
  if (v.empty() || q <= 0.0 || q >= 1.0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  if (v.size() - rank < kTailSamples) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Poisson arrival times from a seed: exponential gaps drawn from the
// library's own Rng, so the same seed gives the same schedule.
class PoissonArrivals {
 public:
  PoissonArrivals(uint64_t seed, double rate_per_s, double start_s)
      : rng_(seed), rate_(rate_per_s), next_(start_s) {
    advance();
  }

  // Due time of the next arrival (+inf for a zero rate).
  double next_due() const { return next_; }

  // Pops every arrival due at or before `now`, oldest first. Each keeps
  // its due time: a loop that wakes late hands the arrivals it missed to
  // the caller all at once, and their latency is charged from when they
  // were due, not from when the loop got to them.
  std::vector<double> take_due(double now) {
    std::vector<double> due;
    while (next_ <= now) {
      due.push_back(next_);
      advance();
    }
    return due;
  }

 private:
  void advance() {
    next_ = rate_ > 0.0 ? next_ + rng_.next_exponential(rate_)
                        : std::numeric_limits<double>::infinity();
  }

  roar::Rng rng_;
  double rate_;
  double next_;
};

// What became of one query the benchmark submitted.
struct QueryVerdict {
  bool answered = false;  // the callback fired before the deadline
  bool complete = false;
  double harvest = 1.0;
  bool shed = false;
  uint64_t matches = 0;
  std::optional<uint64_t> expected;  // exact count, when it is known
};

enum class Failure { kNone, kIncomplete, kShed, kTimeout, kWrongCount };

inline Failure classify(const QueryVerdict& v) {
  if (!v.answered) return Failure::kTimeout;
  if (v.shed) return Failure::kShed;
  if (!v.complete || v.harvest < 1.0) return Failure::kIncomplete;
  if (v.expected && v.matches != *v.expected) return Failure::kWrongCount;
  return Failure::kNone;
}

// Counts attempts and each kind of failure; *_fail_frac is failed() over
// attempted. Failed queries also enter the latency sample as +inf (they
// missed every limit), which is what open_loop_latency() does.
struct FailTally {
  uint64_t attempted = 0;
  uint64_t incomplete = 0;
  uint64_t shed = 0;
  uint64_t timeout = 0;
  uint64_t wrong = 0;

  Failure add(const QueryVerdict& v) {
    ++attempted;
    Failure f = classify(v);
    switch (f) {
      case Failure::kIncomplete: ++incomplete; break;
      case Failure::kShed: ++shed; break;
      case Failure::kTimeout: ++timeout; break;
      case Failure::kWrongCount: ++wrong; break;
      case Failure::kNone: break;
    }
    return f;
  }
  void add(const FailTally& t) {
    attempted += t.attempted;
    incomplete += t.incomplete;
    shed += t.shed;
    timeout += t.timeout;
    wrong += t.wrong;
  }
  uint64_t failed() const { return incomplete + shed + timeout + wrong; }
  double fail_frac() const {
    return attempted ? static_cast<double>(failed()) / attempted : 0.0;
  }
};

// Latency of an open-loop arrival: from its due time to its answer; a
// failed query never met its limit and counts as +inf.
inline double open_loop_latency(double due_s, double done_s, Failure f) {
  return f == Failure::kNone ? done_s - due_s
                             : std::numeric_limits<double>::infinity();
}

}  // namespace perfbench
