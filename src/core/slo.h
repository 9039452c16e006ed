// Per-class service-level contracts and the overload-control machinery
// they drive.
//
// In the spirit of *Contracts* (Agarwal et al.): a client-visible contract
// names, per query class, the p99 latency the system promises and the
// worst shedding it may resort to under overload. One SloContract is the
// single source every overload-control component reads from — the
// frontend admission controller (this file), the adaptive-p controller's
// latency target, the node-side backlog bounds, and the bench/scenario
// SLO verdicts — so the promise cannot drift between layers.
//
// Queues are bounded per *Updating the Theory of Buffer Sizing* (Spang et
// al.): with N desynchronized sources sharing a bottleneck, the buffer
// needed to keep utilization is not the full bandwidth-delay product but
// BDP/sqrt(N). spang_queue_bound()/spang_delay_bound() translate that
// rule to request queues — capacity = service_rate × target_delay is the
// "BDP" of a latency contract — and every drop-tail cap in the cluster is
// sized through them.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace roar::core {

// Query classes in strict priority order: under overload, higher-numbered
// classes shed first. Encoded on the wire as one byte (SubQueryMsg).
enum class QueryClass : uint8_t {
  kInteractive = 0,  // user-facing searches: tightest contract, shed last
  kBatch = 1,        // background jobs with a latency contract
  kScavenger = 2,    // best-effort crawl/repair traffic, shed first
};
inline constexpr size_t kQueryClasses = 3;

inline size_t class_index(QueryClass c) { return static_cast<size_t>(c); }
const char* class_name(QueryClass c);

// Default per-class occupancy fractions, shared by the frontend admission
// law and the node-side queue bounds so the two shed in the same priority
// order: scavenger refused at ~1/3 of a bound, batch at ~2/3, interactive
// only at the full bound.
inline constexpr std::array<double, kQueryClasses> kDefaultClassFrac{
    1.0, 0.65, 0.35};

// The fraction for a wire-encoded class byte (out-of-range bytes map to
// the lowest priority — a defensive server sheds what it cannot parse
// rather than privileging it).
inline double class_bound_frac(uint8_t klass) {
  return klass < kQueryClasses ? kDefaultClassFrac[klass]
                               : kDefaultClassFrac[kQueryClasses - 1];
}

// One class's promise: answer within target_p99_s at the 99th percentile,
// shedding at most max_shed of offered queries and missing the latency
// target on at most max_violation of the answered ones (both judged at
// rated load — past saturation the shed fraction necessarily grows; the
// p99 promise for *admitted* queries is what keeps holding).
struct ClassContract {
  double target_p99_s = 1.0;
  double max_shed = 0.05;
  double max_violation = 0.05;
};

struct SloContract {
  std::array<ClassContract, kQueryClasses> classes{};

  const ClassContract& of(QueryClass c) const {
    return classes[class_index(c)];
  }
  ClassContract& of(QueryClass c) { return classes[class_index(c)]; }

  // The default three-tier contract: 1 s interactive, 4 s batch, 15 s
  // scavenger, with shedding budgets loosening down the priority order.
  static SloContract standard();
};

// Spang-style queue cap in *requests*: the queue a contract-compliant
// system may hold is service_rate × target_delay (the latency contract's
// bandwidth-delay product), divided by sqrt(n_sources) because N
// desynchronized open-loop sources do not all burst at once. Clamped to
// [min_cap, max_cap].
size_t spang_queue_bound(double service_rate_per_s, double target_delay_s,
                         uint64_t n_sources, size_t min_cap = 4,
                         size_t max_cap = 65536);

// The same rule in *seconds of backlog*, for pipelines whose queue is a
// time reservation rather than a request list: half the latency budget
// (the other half covers service + network), desync-scaled by
// sqrt(n_sources).
double spang_delay_bound(double target_delay_s, uint64_t n_sources);

// Frontend admission control: reject cheap and early, before any
// scheduling or planning work, purely from the in-flight occupancy.
//
// The admission law: class c may enter while the in-flight count is below
// threshold(c) = inflight_cap × class_frac[c]. Fractions decrease down
// the priority order, so scavenger traffic starts shedding at ~1/3
// occupancy, batch at ~2/3, and interactive only at the hard cap — the
// cap itself is Spang-sized by the harness. Once a class sheds, it keeps
// shedding until occupancy falls below resume_frac × threshold
// (hysteresis: without it the controller chatters at the boundary,
// alternately admitting and shedding every other query).
struct AdmissionParams {
  // Hard bound on concurrently in-flight queries per frontend; also the
  // frontend queue cap the scenario safety report audits against.
  size_t inflight_cap = 256;
  // Per-class admission fractions of inflight_cap, priority-ordered.
  std::array<double, kQueryClasses> class_frac = kDefaultClassFrac;
  // A shedding class resumes below resume_frac × its threshold.
  double resume_frac = 0.75;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionParams params);

  // Decides (and records) one query: true = admit. `inflight` is the
  // frontend's current pending-query count.
  bool admit(QueryClass c, size_t inflight);

  size_t threshold(QueryClass c) const;
  bool shedding(QueryClass c) const {
    return shedding_[class_index(c)];
  }

  struct ClassStats {
    uint64_t offered = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
  };
  const ClassStats& stats(QueryClass c) const {
    return stats_[class_index(c)];
  }
  uint64_t total_offered() const;
  uint64_t total_shed() const;

  const AdmissionParams& params() const { return params_; }

 private:
  AdmissionParams params_;
  std::array<ClassStats, kQueryClasses> stats_{};
  std::array<bool, kQueryClasses> shedding_{};
};

// Cluster-level overload-control block (ClusterCoreConfig::slo, shared by
// both substrates). Caps left at 0 are derived from the contract and the
// cluster's geometry via the Spang rules (see Cluster::assemble).
struct SloSpec {
  bool enabled = false;
  SloContract contract = SloContract::standard();
  AdmissionParams admission;         // class fractions / hysteresis knobs
  size_t frontend_inflight_cap = 0;  // overrides admission.inflight_cap
  size_t node_exec_queue_cap = 0;    // pooled submit queue; 0 = derive
  double node_max_backlog_s = 0.0;   // modeled pipeline; 0 = derive
};

// The spec with every derived field resolved against a cluster's
// geometry. Cluster::assemble is the one caller, for both substrates
// (nowhere else derives caps): `capacity_qps` is the cluster's aggregate
// query capacity at saturation, `per_node_subq_rate` the sub-query
// arrival rate one node sees there, and `frontends` the count of
// desynchronized sources.
struct ResolvedSlo {
  AdmissionParams admission;      // inflight_cap filled
  size_t node_exec_queue_cap = 0;
  double node_max_backlog_s = 0.0;
  double target_p99_s = 0.0;      // the adaptive-p controller's contract
};
ResolvedSlo resolve_slo(const SloSpec& spec, double capacity_qps,
                        double per_node_subq_rate, uint32_t frontends);

}  // namespace roar::core
