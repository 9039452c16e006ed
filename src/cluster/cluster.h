// The ROAR cluster core: membership, control plane, front-ends, the
// shared MatchEngine, the ingest router and the storage nodes, assembled
// in one sequence and observed through one metrics plane and one tracer.
//
// Two substrates run this core unchanged (the Chapter 7 claim that the
// emulation exercises the deployed code paths):
//   - EmulatedCluster (cluster/emulated_cluster.h): one virtual-time
//     EventLoop and the InProcNetwork, optionally behind a FaultTransport;
//   - TcpCluster (cluster/tcp_cluster.h): a TcpDriver with one loopback
//     listener per endpoint, optional reactor shards and per-node pools.
// A substrate owns its loop and transports and reaches the core through
// a few hooks: the transport for an endpoint, a bounded run step, shard
// marshaling (inline unless the substrate runs nodes on other threads)
// and a per-node setup step. Everything else — SLO/capacity sizing, the
// wiring, the view choreography, gauges and trace collection — exists
// once, here. Components cancel timers on their transports' clocks when
// destroyed, so a substrate keeps its loop and transports in a base class
// listed before Cluster: built before the core, destroyed after it.
//
// Control state flows exclusively through the epoch-versioned ClusterView
// (core/cluster_view.h): the harness mutates the membership server, then
// calls publish_view(); the ControlPlane diffs, broadcasts, and every
// front-end and node converges through the delta/ack/pull protocol.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/control.h"
#include "cluster/frontend.h"
#include "cluster/node.h"
#include "common/metrics.h"
#include "core/membership.h"
#include "core/tracer.h"
#include "sim/farm.h"

namespace roar::cluster {

// One-way link latency of the emulated network, and the delay hint the
// TCP endpoints seed their estimators with (loopback RTT scale).
inline constexpr double kLinkLatencyS = 100e-6;

// The config fields both substrates share. ClusterConfig and
// TcpClusterConfig derive from it and add only their own knobs.
struct ClusterCoreConfig {
  uint64_t dataset_size = 5'000'000;  // metadata (the paper's 5M headline)
  uint32_t p = 8;
  // Front-end instances (§4.8/§4.9 scale-out). Each has its own address,
  // scheduler RNG stream and EWMA estimator state.
  uint32_t frontends = 1;
  FrontendParams frontend;  // p is overwritten from the field above
  NodeParams node_proto;    // id/speed overwritten per node
  uint64_t seed = 1;
  // Membership balance iterations at startup (ranges ∝ speed).
  uint32_t initial_balance_steps = 800;
  // Dissemination-tree fanout k (control-plane roots and interior relay
  // nodes) and the tree/sliced decision divisor: waves interesting at
  // least node_count/tree_divisor subscribers go through the relay tree,
  // smaller ones are sent directly to the interested slice.
  uint32_t relay_fanout = 8;
  uint32_t tree_divisor = 4;
  // Live ingestion: builds one shared MatchEngine (real corpus), gives
  // every node an IngestLog + versioned store and attaches an
  // IngestRouter to the control endpoint at kUpdateServerAddr. Off by
  // default: without it the cluster is byte-identical with the
  // pre-ingest code.
  bool enable_ingest = false;
  MatchEngineConfig engine{};
  IngestConfig ingest{};
  // Overload control (core/slo.h): per-class contracts feeding frontend
  // admission/shedding, Spang-sized queue bounds on frontends and nodes,
  // and (with adaptive p) the controller's p99 target — all from this one
  // spec. Caps left 0 are derived from rated_capacity_qps().
  core::SloSpec slo;
};

class Cluster {
 public:
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  virtual ~Cluster() = default;

  ControlPlane& control() { return *control_; }
  const ControlPlane& control() const { return *control_; }
  Frontend& frontend() { return *frontends_.front(); }  // instance 0
  Frontend& frontend(uint32_t i) { return *frontends_.at(i); }
  const Frontend& frontend(uint32_t i) const { return *frontends_.at(i); }
  uint32_t frontend_count() const {
    return static_cast<uint32_t>(frontends_.size());
  }
  core::MembershipServer& membership() { return membership_; }

  size_t node_count() const { return nodes_.size(); }
  // Direct node access is race-free only when the node's shard is the
  // caller's (always, emulated; reactor_shards == 1 over TCP); otherwise
  // go through the marshaled accessors or on_node().
  NodeRuntime& node(NodeId id) { return *nodes_.at(id); }
  const NodeRuntime& node(NodeId id) const { return *nodes_.at(id); }
  // The reactor shard whose thread owns node `id` (0 when single-loop).
  virtual uint32_t node_shard(NodeId id) const {
    (void)id;
    return 0;
  }

  // The shared real-matching engine, or nullptr in modeled mode.
  const MatchEngine* engine() const { return engine_.get(); }
  // The ingest router, or nullptr when enable_ingest is unset.
  IngestRouter* ingest() { return ingest_router_.get(); }
  const IngestRouter* ingest() const { return ingest_router_.get(); }

  // Substrate time: virtual seconds (emulated) or shard-0 wall clock.
  virtual double now() const = 0;

  // Publishes the current membership + reconfiguration state as a new
  // view epoch (no-op when nothing changed). Laggards converge through
  // the control plane's retransmit tick; the heal and revive paths call
  // control().resync() explicitly for promptness.
  void publish_view();

  // Crash-stops a node: it silently vanishes; the front-ends must
  // discover it by timeout (no view is published for a crash).
  void kill_node(NodeId id);
  // Restarts a crashed node: it rebinds and pulls the current view
  // (resuming any §4.5 duty it lost). Still on its ring with its data
  // loaded, it resumes its old range at once (membership history, §4.9);
  // otherwise it reloads first, like a fresh join (see warm_up).
  void revive_node(NodeId id);

  // --- reconfiguration (§4.5) -------------------------------------------
  void change_p(uint32_t p_new);
  uint32_t safe_p() const { return control_->safe_p(); }
  uint32_t target_p() const { return control_->target_p(); }

  // Submits one query on the next ready front-end (round-robin). The
  // callback fires from the substrate's loop.
  uint64_t submit_query(Frontend::QueryCallback cb);
  // Classed submission (the workload engine's entry point).
  uint64_t submit_query(const QueryRequest& req, Frontend::QueryCallback cb);

  // --- live ingestion ------------------------------------------------------
  // Current replica views (live, ranged, ingest-enabled nodes), for the
  // convergence and safety reports. Each node is read on its own shard.
  std::vector<IngestReplicaView> ingest_replicas() const;
  // True when every replica of every shard has caught up with the router.
  bool ingest_converged() const;
  // Runs the substrate until ingest_converged() or `timeout_s` elapses;
  // returns the converged verdict.
  bool run_until_ingest_converged(double timeout_s);

  // --- observability ------------------------------------------------------
  // The unified metrics plane: every component's counters exposed through
  // one registry (lazy gauges evaluated at snapshot, per-node reads
  // marshaled onto the owning shard), plus the hot-path latency/service
  // histograms the frontends and nodes feed directly. Gauge names are the
  // same on both substrates; TcpCluster adds only driver.* and pool.*.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  // Per-shard trace rings: front-ends, control and the ingest router
  // write ring 0; node i writes ring node_shard(i).
  core::Tracer& tracer() { return tracer_; }
  const core::Tracer& tracer() const { return tracer_; }
  // Merged, time-sorted trace events; each ring is read on its own shard
  // (safe while the cluster runs).
  std::vector<core::TraceEvent> trace_events() const;

  // Aggregate traffic accounting across every endpoint's transport.
  uint64_t messages_sent() const {
    return transport_total(&net::Transport::messages_sent);
  }
  uint64_t bytes_sent() const {
    return transport_total(&net::Transport::bytes_sent);
  }
  uint64_t messages_dropped() const {
    return transport_total(&net::Transport::messages_dropped);
  }

  // Analytic saturation throughput: per query, every node contributes
  // dataset/agg_rate busy seconds of scanning (balanced shares) plus its
  // slice of the p sub-query overheads. The workload engine and
  // bench_overload express offered load as multiples of this; the SLO
  // cap derivation uses it.
  double rated_capacity_qps() const { return rated_capacity_qps_; }
  // Aggregate overload-control counters across frontends / nodes.
  uint64_t admission_shed_total() const;
  uint64_t node_shed_total() const;

 protected:
  Cluster(uint64_t seed, size_t trace_shards);

  // Builds the cluster on the substrate: SLO/capacity sizing, control
  // plane, front-ends, engine and ingest router, then one node per
  // `classes` entry slot (ids in order, each set up, started and joined),
  // range balancing and the first view publish. `config` is the
  // substrate's own config (kept by reference and fixed up in place);
  // `control` carries substrate control knobs (the core fills initial p
  // and the dissemination tree). Call once from the substrate
  // constructor, after its transports exist.
  void assemble(ClusterCoreConfig& config,
                const std::vector<sim::ServerClass>& classes,
                bool real_matching, ControlPlaneParams control);
  // Creates, wires and starts node `id` (not yet joined to membership).
  void make_node(NodeId id, double speed);
  // True once every node holds a range and every front-end has a view.
  bool serving() const;
  // Runs `fn` on node `id`'s shard thread (inline for a caller-driven
  // shard).
  void on_node(NodeId id, const std::function<void()>& fn) const {
    on_shard(node_shard(id), fn);
  }

  // --- substrate hooks ------------------------------------------------------
  // The transport hosting the control plane, front-ends and ingest router.
  virtual net::Transport& control_transport() = 0;
  // The transport hosting node `id`.
  virtual net::Transport& node_transport(NodeId id) = 0;
  // Every distinct transport, for traffic accounting.
  using TransportVisitor = std::function<void(const net::Transport&)>;
  virtual void each_transport(const TransportVisitor& fn) const = 0;
  // Runs the substrate one bounded slice, stopping by `deadline` (now()
  // units).
  virtual void step(double deadline) = 0;
  // Runs `fn` on `shard`'s loop thread and waits for it.
  virtual void on_shard(size_t shard, const std::function<void()>& fn) const {
    (void)shard;
    fn();
  }
  // Substrate-specific wiring for a fresh node, before it starts.
  virtual void setup_node(NodeRuntime& node) { (void)node; }
  // Brings a node that must (re)load its stored arc into service. The
  // default serves at once; substrates that model the download override.
  virtual void warm_up(NodeId id);

 private:
  void register_gauges();
  uint64_t transport_total(uint64_t (net::Transport::*counter)() const) const;
  // Republishes and force-resyncs so every mirror sees a revived node.
  void serve_in_place();
  Frontend& next_ready_frontend();

  ClusterCoreConfig* config_ = nullptr;  // the substrate's, set by assemble
  double rated_capacity_qps_ = 0.0;
  // Observability plane. Declared before the components that record into
  // it, so it is destroyed after them.
  MetricsRegistry metrics_;
  core::Tracer tracer_;
  core::MembershipServer membership_;
  std::unique_ptr<ControlPlane> control_;
  std::vector<std::unique_ptr<Frontend>> frontends_;
  std::shared_ptr<const MatchEngine> engine_;
  std::unique_ptr<IngestRouter> ingest_router_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  uint32_t next_frontend_ = 0;  // round-robin submit cursor
};

}  // namespace roar::cluster
