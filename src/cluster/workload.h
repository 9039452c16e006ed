// Open-loop million-user workload engine.
//
// Models the population a deployed PPS front-end actually faces: millions
// of users whose individual query processes are far too sparse to simulate
// one-by-one, but whose superposition is an inhomogeneous Poisson process
// whose per-arrival user is a fresh draw from the popularity distribution.
// The engine exploits exactly that superposition theorem — one aggregate
// arrival chain, Zipf user draw per arrival — so "a million users" costs
// the same as one.
//
// Rate shaping is Lewis-Shedler thinning against the peak rate: a diurnal
// multiplier curve (piecewise linear over a configurable period), scripted
// flash crowds (rate multiplier for a window), and antagonist ingest
// storms (document add/delete bursts riding the query peak, via a hook).
//
// Each arrival also touches the §5.6.1 multi-user metadata cache
// (pps::UserMetadataCache): a user's first-ever query — or a query after
// an LRU eviction — pays the modeled load I/O, which rides into the
// cluster as QueryRequest::extra_cost_s. That is the "multiplexing makes
// PPS economically viable" effect under a realistic popularity skew.
//
// Everything is deterministic from WorkloadConfig::seed (SeedStream
// kWorkloadEngine): pregenerate() replays the exact arrival sequence the
// live run submits, which the emulated-vs-TCP parity test relies on.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/frontend.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/slo.h"
#include "net/transport.h"
#include "pps/store.h"
#include "pps/user_cache.h"

namespace roar::cluster {

// A scripted surge: offered rate is multiplied by `multiplier` while
// now ∈ [at, at + duration_s). Crowds may overlap; multipliers compound.
struct FlashCrowd {
  double at = 0.0;
  double duration_s = 0.0;
  double multiplier = 1.0;
};

// An antagonist ingest burst (adds/deletes at Poisson rate) scheduled to
// ride the query peak — the mix the shedder must survive without letting
// background mutation starve interactive queries.
struct IngestStorm {
  double at = 0.0;
  double duration_s = 0.0;
  double rate_per_s = 0.0;
};

struct WorkloadConfig {
  // Synthetic user population. Per-arrival user identity is Zipf(s) over
  // [0, users): a heavy head of regulars plus a long cold tail, which is
  // what gives the metadata cache a realistic hit profile.
  uint64_t users = 1'000'000;
  double user_zipf_s = 0.9;
  // Query-term popularity (diagnostic: recorded per arrival, not yet
  // steering per-term cost).
  uint64_t query_terms = 10'000;
  double term_zipf_s = 1.1;
  // Class mix; the remainder after interactive + batch is scavenger.
  double interactive_frac = 0.70;
  double batch_frac = 0.25;
  // Aggregate arrival rate at diurnal multiplier 1.0, and the window over
  // which arrivals are generated. Open loop: arrivals never wait for
  // completions — that is what pushes the system past saturation.
  double base_rate_per_s = 100.0;
  double duration_s = 10.0;
  // Piecewise-linear diurnal rate multipliers, spread uniformly over
  // [0, diurnal_period_s) and wrapping. Empty = flat 1.0.
  std::vector<double> diurnal;
  double diurnal_period_s = 86'400.0;
  std::vector<FlashCrowd> flash_crowds;
  std::vector<IngestStorm> ingest_storms;
  double storm_delete_frac = 0.2;

  // §5.6.1 cache: capacity 0 disables it (no per-user I/O surcharge).
  // Every user shares one template store of ~user_metadata_bytes, so a
  // miss charges the modeled load of one user's metadata.
  uint64_t cache_capacity_bytes = 0;
  uint64_t user_metadata_bytes = 64 * 1024;
  pps::SourceMode miss_mode = pps::SourceMode::kColdDisk;
  pps::IoModel io;

  uint64_t seed = 1;
  // Keep the submitted Arrival sequence for parity/debug (memory ∝
  // arrivals; leave off for long soaks).
  bool record_arrivals = false;
};

// One generated query arrival (also the pregenerate() record).
struct Arrival {
  double at = 0.0;
  uint64_t user = 0;
  uint64_t term_rank = 0;  // 1-based Zipf rank
  core::QueryClass klass = core::QueryClass::kInteractive;
  bool cache_hit = false;
  double io_cost_s = 0.0;  // metadata-load surcharge on a miss
};

// Per-class outcome accounting against the SLO contract.
struct ClassTotals {
  uint64_t offered = 0;    // arrivals submitted
  uint64_t shed = 0;       // refused by the admission controller
  uint64_t completed = 0;  // callback fired with a served outcome
  uint64_t failed = 0;     // served but zero harvest / no id
  uint64_t in_slo = 0;     // completed within the class p99 target
  uint64_t degraded = 0;   // completed with harvest < 1
  SampleSet latency;       // end-to-end seconds, completed only
};

class WorkloadEngine {
 public:
  // The cluster-side submission hook — Cluster::submit_query (on either
  // substrate) bound by the caller.
  using SubmitFn =
      std::function<uint64_t(const QueryRequest&, Frontend::QueryCallback)>;
  // One antagonist ingest operation (add or delete); `is_delete` follows
  // storm_delete_frac.
  using IngestFn = std::function<void(bool is_delete)>;

  WorkloadEngine(net::Clock& clock, WorkloadConfig config, SubmitFn submit,
                 core::SloContract contract = core::SloContract::standard());
  ~WorkloadEngine();

  void set_ingest_op(IngestFn fn) { ingest_op_ = std::move(fn); }

  // Schedules the first arrival (and any storms). Call once.
  void start();

  // True once the arrival window closed and every submitted query's
  // callback fired (shed callbacks fire inline, so they never block this).
  bool done() const { return finished_generating_ && outstanding_ == 0; }
  uint64_t outstanding() const { return outstanding_; }

  // Instantaneous target rate (base × diurnal × flash crowds) — exposed
  // for tests of the thinning envelope.
  double rate_at(double t) const;

  // Replays the generator deterministically: the first `max_n` arrivals
  // (fewer if the window closes first), without submitting anything. A
  // fresh cache replica reproduces hit/miss decisions, so the result is
  // byte-identical with what start() submits for the same config.
  std::vector<Arrival> pregenerate(size_t max_n) const;

  const ClassTotals& totals(core::QueryClass c) const {
    return totals_[core::class_index(c)];
  }
  uint64_t total_offered() const;
  uint64_t total_completed() const;
  // Fraction of completed+shed interactive-class queries that violated
  // the contract (shed counts as a violation only beyond max_shed — the
  // contract's point is that controlled shedding is *not* a violation).
  double violation_frac(core::QueryClass c) const;
  double shed_frac(core::QueryClass c) const;

  // Cache telemetry (zeros when the cache is disabled).
  pps::CacheStats cache_stats() const;
  uint64_t ingest_ops_issued() const { return ingest_ops_; }

  const std::vector<Arrival>& arrivals() const { return recorded_; }

 private:
  struct Gen;  // arrival-generator state (rng + thinning + cache replica)

  double diurnal_multiplier(double t) const;
  std::unique_ptr<Gen> make_gen() const;
  // Advances `g` to the next accepted arrival at or after g.t, filling
  // `out`. Returns false once the window is exhausted.
  bool next_arrival(Gen& g, Arrival* out) const;
  void schedule_next();
  void submit_arrival(const Arrival& a);
  void schedule_storm(size_t i, double at, double until);

  net::Clock& clock_;
  WorkloadConfig config_;
  SubmitFn submit_;
  IngestFn ingest_op_;
  core::SloContract contract_;
  ZipfGenerator user_zipf_;
  ZipfGenerator term_zipf_;
  // Template metadata store shared by every user (the cache charges
  // per-user residency from its byte size).
  std::unique_ptr<pps::MetadataStore> template_store_;
  std::unique_ptr<Gen> live_;  // generator driving real submissions
  std::unique_ptr<Rng> storm_rng_;
  std::array<ClassTotals, core::kQueryClasses> totals_{};
  std::vector<Arrival> recorded_;
  double peak_rate_ = 0.0;  // thinning envelope
  double start_t_ = 0.0;    // clock time at start()
  uint64_t outstanding_ = 0;
  uint64_t ingest_ops_ = 0;
  bool finished_generating_ = false;
  // Guards callbacks that may fire after teardown began (TCP harness).
  std::shared_ptr<bool> alive_;
};

}  // namespace roar::cluster
