// Tests of the benchmark's own arithmetic (arith.h). run.py builds and
// runs it before every measurement:
//   ./.bench_build/perfbench/arith_test   -> exit 0 and "arith_test: ok"
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "arith.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                \
  do {                                                             \
    if (!(cond)) {                                                 \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                   __LINE__, #cond);                               \
      ++failures;                                                  \
    }                                                              \
  } while (0)

std::vector<double> ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_needs_ten_samples_beyond() {
  // p99 of 1..1009: rank ceil(0.99 * 1009) = 999, ten samples above it.
  auto p99 = percentile(ramp(1009), 0.99);
  CHECK(p99.has_value() && *p99 == 999.0);
  // 1..1000: rank 990, exactly ten above — still allowed.
  CHECK(percentile(ramp(1000), 0.99).value_or(-1) == 990.0);
  // 1..999: rank 990, nine above — refused.
  CHECK(!percentile(ramp(999), 0.99).has_value());
  // p50 needs 20 samples.
  CHECK(percentile(ramp(20), 0.5).value_or(-1) == 10.0);
  CHECK(!percentile(ramp(19), 0.5).has_value());
  CHECK(!percentile({}, 0.5).has_value());
  // Order of the input does not matter.
  std::vector<double> rev = ramp(40);
  std::reverse(rev.begin(), rev.end());
  CHECK(percentile(rev, 0.5).value_or(-1) == 20.0);
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void latency_is_timed_from_due_time() {
  // Same seed, same schedule.
  PoissonArrivals a(42, 100.0, 0.0), b(42, 100.0, 0.0);
  auto da = a.take_due(1.0), db = b.take_due(1.0);
  CHECK(da == db);
  CHECK(da.size() > 60 && da.size() < 140);  // ~100 arrivals in 1 s
  for (size_t i = 1; i < da.size(); ++i) CHECK(da[i] >= da[i - 1]);
  CHECK(a.next_due() > 1.0);
  PoissonArrivals c(43, 100.0, 0.0);
  CHECK(c.take_due(1.0) != da);

  // A loop that stalls from 0 to 0.5 s: every arrival due in the stall is
  // handed over at 0.5 s and, answered instantly, is charged its wait.
  PoissonArrivals s(7, 100.0, 0.0);
  std::vector<double> stalled = s.take_due(0.5);
  CHECK(!stalled.empty());
  for (double due : stalled) {
    double lat = open_loop_latency(due, 0.5, Failure::kNone);
    CHECK(std::abs(lat - (0.5 - due)) < 1e-12);
  }
  // The earliest arrival waited the longest.
  CHECK(open_loop_latency(stalled.front(), 0.5, Failure::kNone) >=
        open_loop_latency(stalled.back(), 0.5, Failure::kNone));
  // The stall is charged to later arrivals, so it shows in the tail.
  std::vector<double> lat;
  for (double due : stalled) lat.push_back(0.5 - due + 0.001);
  for (double due : s.take_due(10.0)) {
    (void)due;
    lat.push_back(0.001);
  }
  CHECK(percentile(lat, 0.99).value_or(0) > 0.1);
  PoissonArrivals z(1, 0.0, 0.0);
  CHECK(std::isinf(z.next_due()) && z.take_due(1e9).empty());
}

void failures_are_counted() {
  FailTally t;
  QueryVerdict ok{true, true, 1.0, false, 5, 5};
  CHECK(t.add(ok) == Failure::kNone);
  QueryVerdict unknown_count{true, true, 1.0, false, 9, std::nullopt};
  CHECK(t.add(unknown_count) == Failure::kNone);
  QueryVerdict partial{true, true, 0.75, false, 5, 5};
  CHECK(t.add(partial) == Failure::kIncomplete);
  QueryVerdict incomplete{true, false, 1.0, false, 5, 5};
  CHECK(t.add(incomplete) == Failure::kIncomplete);
  QueryVerdict shed{true, false, 0.0, true, 0, 5};
  CHECK(t.add(shed) == Failure::kShed);
  QueryVerdict lost{false, false, 1.0, false, 0, 5};
  CHECK(t.add(lost) == Failure::kTimeout);
  QueryVerdict wrong{true, true, 1.0, false, 4, 5};
  CHECK(t.add(wrong) == Failure::kWrongCount);
  CHECK(t.attempted == 7);
  CHECK(t.incomplete == 2 && t.shed == 1 && t.timeout == 1 && t.wrong == 1);
  CHECK(t.failed() == 5);
  CHECK(std::abs(t.fail_frac() - 5.0 / 7.0) < 1e-12);
  CHECK(FailTally{}.fail_frac() == 0.0);
  // A failed query misses every latency limit.
  CHECK(std::isinf(open_loop_latency(0.0, 0.001, Failure::kTimeout)));
}

}  // namespace

int main() {
  percentile_needs_ten_samples_beyond();
  latency_is_timed_from_due_time();
  failures_are_counted();
  if (failures) {
    std::fprintf(stderr, "arith_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("arith_test: ok\n");
  return 0;
}
