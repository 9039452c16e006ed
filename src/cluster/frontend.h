// A ROAR front-end server (§4.8) — one of possibly many (§4.9).
//
// Receives client queries, picks the start id with the Algorithm-1 sweep
// against its per-node speed (EWMA of observed rates) and queue estimates,
// partitions the query with the §4.2 planner, sends sub-queries, detects
// failures with per-sub-query timers (splitting the unfinished sub-query
// across the dead node's neighbourhood, §4.4/§4.8), and assembles replies.
//
// Control state is not owned here: each front-end consumes the epoch-
// versioned ClusterView published by the ControlPlane (kViewDelta in,
// kViewAck out, kViewPull on gaps or restart). The ring mirror, safe p and
// target p are all derived from the subscribed view; the front-end layers
// only its own short-term liveness knowledge (timeout discoveries, reply
// resurrections) on top, until the next epoch resets the mirror. A front-
// end refuses queries until its first view applies (ready()) — a revived
// front-end must re-sync before it may plan, which is what keeps a stale
// planner from ever using an unsafe p.
//
// Every front-end instance has its own address (frontend_address(i)), its
// own scheduler RNG stream and its own EWMA estimator state, so N of them
// serve concurrently against the same view.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/node.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "core/cluster_view.h"
#include "core/scheduler.h"
#include "core/slo.h"
#include "core/tracer.h"

namespace roar::cluster {

struct FrontendParams {
  uint32_t p = 8;  // mirror level before the first view arrives
  double pq_factor = 1.0;
  // Per-query fixed cost at the front-end (result assembly etc.); the
  // LM/LC variants of §7.2 differ here.
  double fixed_cost_s = 0.0;
  // Timeout = expected finish × factor + margin.
  double timeout_factor = 3.0;
  double timeout_margin_s = 0.200;
  bool range_adjustment = false;
  uint32_t max_splits = 0;
  double ewma_alpha = 0.2;
  double initial_rate = 250'000.0;  // metadata/s prior before observations
  double subquery_overhead_s = 0.004;  // matches NodeParams for estimates
  // Periodic latency digest to the control plane (piggybacked on
  // kViewAck); 0 disables. The adaptive-p controller needs this on.
  double digest_interval_s = 0.0;
  // Overload control: when enabled, every submit passes the admission
  // controller BEFORE any scheduling/planning work, the in-flight map is
  // hard-capped at admission.inflight_cap, and only interactive queries
  // get the pq_factor partitioning boost (batch/scavenger plan at safe_p
  // — the contract says they can wait, so they should not fan out wider).
  bool slo_enabled = false;
  core::AdmissionParams admission;
};

struct QueryBreakdown {
  double schedule_s = 0.0;  // wall-clock cost of running the scheduler
  double network_s = 0.0;
  double service_s = 0.0;   // slowest node's processing
  double queue_s = 0.0;     // waiting behind other sub-queries
  double total_s = 0.0;     // end-to-end virtual delay
};

struct QueryOutcome {
  uint64_t id = 0;
  bool complete = false;
  // Fraction of the object space actually searched (Brewer's harvest,
  // §2.1): 1.0 for complete queries, lower when failures made some
  // responsibility windows unreachable.
  double harvest = 1.0;
  uint64_t matches = 0;
  uint32_t parts_sent = 0;
  uint32_t retries = 0;
  core::QueryClass klass = core::QueryClass::kInteractive;
  // Refused by the frontend admission controller: the outcome fired
  // immediately, before any planning, with harvest 0.
  bool shed = false;
  // Sub-queries refused at a node's queue bound (harvest loss, not
  // failure: the node proved alive by replying).
  uint32_t parts_shed = 0;
  // End-to-end trace id (core/tracer.h) — the key into the assembled
  // span tree and the flight recorder.
  uint64_t trace = 0;
  QueryBreakdown breakdown;
};

// A classed query submission. The plain submit(cb) overload is equivalent
// to the default request (interactive, user 0, no extra cost).
struct QueryRequest {
  core::QueryClass klass = core::QueryClass::kInteractive;
  uint64_t user = 0;          // accounting only (workload engine's id)
  double extra_cost_s = 0.0;  // e.g. user-metadata cache-miss I/O; added
                              // to the reported end-to-end latency
};

// Seed derivation for front-end instance `index` of a cluster seeded with
// `cluster_seed`. The InProc-vs-TCP parity tests depend on front-ends
// drawing identical random sequences on both substrates.
// Instance 0 keeps the historical single-front-end stream.
uint64_t frontend_seed(uint64_t cluster_seed, uint32_t index);

class Frontend {
 public:
  using QueryCallback = std::function<void(const QueryOutcome&)>;

  Frontend(net::Transport& net, uint32_t index, FrontendParams params,
           uint64_t dataset_size, uint64_t seed);

  uint32_t index() const { return index_; }
  net::Address address() const { return frontend_address(index_); }

  // Binds the instance address; on a restart after stop() also pulls the
  // current view from the control plane (the revive path).
  void start();
  // Crash-stops the front-end: unbinds, fails every pending query (its
  // clients see the loss) and forgets readiness until the next view.
  void stop();
  bool alive() const { return alive_; }
  // Has applied a view in THIS life and may serve. False between start()
  // and the first applied view — submit() fails queries instantly during
  // that window, so a revived front-end can never plan off the stale view
  // it kept across the crash.
  bool ready() const { return alive_ && synced_; }

  // --- subscribed control state -----------------------------------------
  uint64_t view_epoch() const { return sub_.epoch(); }
  uint32_t safe_p() const {
    return view_epoch() > 0 ? sub_.view().safe_p : params_.p;
  }
  uint32_t target_p() const {
    return view_epoch() > 0 ? sub_.view().target_p : params_.p;
  }

  // Local liveness knowledge (timeout discovery, reply resurrection) —
  // layered over the view until the next epoch replaces the mirror.
  // Member removal is view-driven only (sync_from_view).
  void node_down(NodeId id);

  // Submits a query; `cb` fires when all sub-queries complete.
  uint64_t submit(QueryCallback cb);
  // Classed submission. With slo_enabled the admission controller may
  // refuse it before any planning work — `cb` then fires immediately with
  // shed == true and harvest 0 (the "reject cheap and early" path).
  uint64_t submit(const QueryRequest& req, QueryCallback cb);

  // --- live ingestion (PAPER §7.4) ---------------------------------------
  // The ingest router shares the control process (it binds
  // kUpdateServerAddr); harnesses attach it here so clients mutate the
  // index through the same face they query it.
  void set_ingest(IngestRouter* router) { ingest_ = router; }
  IngestRouter* ingest() { return ingest_; }
  const IngestRouter* ingest() const { return ingest_; }
  // Client mutation entry points; require an attached router.
  RingId add_document(const pps::FileInfo& doc);
  bool delete_document(RingId doc_id);

  void set_dataset_size(uint64_t d) { dataset_size_ = d; }

  // --- observability -----------------------------------------------------
  // Attaches the cluster tracer; `shard` is the trace ring this front-end
  // writes (its owning reactor shard — 0 under both harnesses today).
  void set_tracer(core::Tracer* tracer, size_t shard) {
    tracer_ = tracer;
    trace_shard_ = shard;
  }
  // Optional registry histogram fed the end-to-end latency of every
  // completed query (the hot-path histogram demonstration).
  void set_latency_histogram(Histogram* h) { latency_hist_ = h; }

  // Stats.
  const SampleSet& delays() const { return delays_; }
  const SampleSet& schedule_times() const { return schedule_times_; }
  uint64_t queries_completed() const { return completed_; }
  uint64_t failures_detected() const { return failures_detected_; }
  // Overload-control stats. queue_hwm is the in-flight map's high-water
  // mark; with slo_enabled the admission cap guarantees hwm ≤ inflight_cap
  // (the scenario safety report audits exactly that). shed_count counts
  // admission refusals; parts_shed counts node-side queue refusals.
  size_t queue_hwm() const { return queue_hwm_; }
  uint64_t shed_count() const {
    return admission_ ? admission_->total_shed() : 0;
  }
  uint64_t parts_shed() const { return parts_shed_; }
  const core::AdmissionController* admission() const {
    return admission_.get();
  }
  double estimated_rate(NodeId id) const;
  const core::Ring& ring() const { return ring_; }

  // Exposed for tests: predicted finish for a share on a node.
  double predict(NodeId node, double share) const;

 private:
  struct PendingPart {
    core::RoarSubQuery sub;
    NodeId node;
    uint64_t timer_id = 0;
    bool done = false;
    // First expiry extends the timer once (the node may be overloaded, not
    // dead); only the second expiry declares failure. Prevents the retry
    // storm a mass failure's backlog would otherwise trigger.
    uint8_t expiries = 0;
  };
  struct PendingQuery {
    uint64_t id;
    uint64_t trace = 0;
    double submit_time;
    double schedule_wall_s = 0.0;
    uint32_t outstanding = 0;
    uint32_t retries = 0;
    uint64_t matches = 0;
    double max_service = 0.0;
    core::QueryClass klass = core::QueryClass::kInteractive;
    double extra_cost_s = 0.0;
    uint32_t parts_shed = 0;
    // False if any responsibility window could not be assigned to a live
    // node (harvest < 100%): the query is answered but reported partial.
    bool full_coverage = true;
    double missing_share = 0.0;  // uncovered fraction of the object space
    std::vector<PendingPart> parts;
    QueryCallback cb;
  };

  class Estimator;

  void handle(net::Address from, net::ByteView payload);
  void on_view_delta(const ViewDeltaMsg& m);
  void sync_from_view();
  void send_ack(net::Address to = kMembershipAddr);
  void send_digest(uint64_t generation);
  void on_reply(const SubQueryReplyMsg& m);
  void on_timeout(uint64_t query_id, uint32_t part_index);
  void send_part(PendingQuery& q, const core::RoarSubQuery& sub);
  void finish_if_done(PendingQuery& q);
  void fail_query(uint64_t id);
  void trace_event(uint64_t trace, core::TraceStage stage, uint32_t part = 0,
                   double dur = 0.0, uint32_t aux = 0);

  net::Transport& net_;
  uint32_t index_;
  FrontendParams params_;
  uint64_t dataset_size_;
  IngestRouter* ingest_ = nullptr;
  core::ViewSubscription sub_;
  core::Ring ring_;  // mirror: view ring + local liveness deltas
  core::QueryPlanner planner_;
  Rng rng_;
  bool alive_ = false;
  bool synced_ = false;  // a view applied since the last start()
  // Invalidates timer chains from a previous life on stop()/start().
  uint64_t life_ = 0;

  struct NodeState {
    Ewma rate;
    double busy_until = 0.0;
    bool alive = true;
  };
  std::unordered_map<NodeId, NodeState> nodes_;

  uint64_t next_query_id_ = 1;
  std::map<uint64_t, PendingQuery> pending_;
  std::unique_ptr<core::AdmissionController> admission_;
  size_t queue_hwm_ = 0;
  uint64_t parts_shed_ = 0;
  SampleSet delays_;
  SampleSet schedule_times_;
  SampleSet digest_window_;  // completions since the last digest
  uint64_t completed_ = 0;
  uint64_t failures_detected_ = 0;
  core::Tracer* tracer_ = nullptr;
  size_t trace_shard_ = 0;
  Histogram* latency_hist_ = nullptr;
};

}  // namespace roar::cluster
