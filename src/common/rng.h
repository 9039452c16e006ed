// Deterministic random number generation for simulations and tests.
//
// All stochastic components of the library (workload generators, object id
// assignment, the simulator) take an explicit Rng so experiments are
// reproducible bit-for-bit from a seed, as required for regenerating the
// paper's figures.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ring_id.h"

namespace roar {

// xoshiro256** by Blackman & Vigna, seeded via splitmix64. Fast, good
// statistical quality, trivially copyable (simulator snapshots copy it).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  uint64_t next_u64();

  // Uniform in [0, bound). bound must be > 0. Debiased via rejection.
  uint64_t next_below(uint64_t bound);

  // Uniform double in [0, 1).
  double next_double();

  // Uniform position on the ring.
  RingId next_ring_id() { return RingId(next_u64()); }

  // Exponential with the given rate (mean 1/rate). rate must be > 0.
  double next_exponential(double rate);

  // Standard normal via Box-Muller (no cached spare: keeps copies cheap).
  double next_normal();

  // Normal with given mean/stddev, truncated below at `lo`.
  double next_normal_truncated(double mean, double stddev, double lo);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = next_below(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  // Split off an independent stream (for per-node generators).
  Rng fork();

 private:
  uint64_t s_[4];
};

// Named sub-streams of a cluster seed. Every stochastic component (the
// cluster core's membership, front-ends and ingest router, the emulated
// network, FaultTransport, the scenario engine) derives its own seed as
// subseed(config.seed, stream), so the same config seed yields the same
// draws on either substrate — the property the InProc-vs-TCP parity test
// and the chaos soak's trace-reproducibility check both rely on.
enum class SeedStream : uint64_t {
  kNetwork = 1,     // InProcNetwork loss injector
  kMembership = 2,  // MembershipServer policy rng
  kFrontend = 3,    // Frontend sweep phases + split points
  kWorkload = 4,    // harness query/update arrival processes
  kFaults = 5,      // FaultTransport injection decisions
  kScenario = 6,    // invariant-check sampling
  // Scenario burst arrivals: distinct from kWorkload so a Scenario and
  // its cluster's own workload generator never produce correlated
  // arrival processes from the same base seed.
  kScenarioWorkload = 7,
  kIngest = 8,  // ingest router: document id + encryption-seed draws
  // WorkloadEngine (cluster/workload.h): user/term Zipf draws, class mix,
  // thinning acceptance. Distinct from kWorkload / kScenarioWorkload so
  // attaching an engine never perturbs a harness's own arrival streams.
  kWorkloadEngine = 9,
};

// Derives an independent, well-mixed child seed for `stream`.
uint64_t subseed(uint64_t base, SeedStream stream);

// Raw-salt variant for per-instance streams (e.g. front-end i of N derives
// subseed(subseed(seed, kFrontend), i)). Instance 0 of a family should use
// the enum stream directly so single-instance runs keep their historical
// sequences.
uint64_t subseed(uint64_t base, uint64_t salt);

// Zipf-distributed ranks in [1, n] with exponent `s`, using the standard
// inverse-CDF-over-precomputed-weights method. Used by the PPS corpus
// generator for realistic keyword frequencies.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double s);

  uint64_t next(Rng& rng) const;
  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  std::vector<double> cdf_;  // cumulative normalized weights
};

}  // namespace roar
