// The emulated ROAR deployment: the cluster core (cluster/cluster.h) on
// one virtual-time event loop and the in-process network.
//
// This is the Chapter 7 substrate: the same control-plane code paths a
// physical deployment runs (joins, view-epoch broadcasts, reconfiguration
// fetch duties and confirmations, failure detection by timeout, §4.4
// splits), with node matching rates taken from the PPS measurements. See
// DESIGN.md for the substitution argument. On top of the core it models
// node warmup downloads and drives the membership lifecycle (joins,
// departures, long-term cleanup, front-end crashes) and the open-loop
// workloads the figure benches run.
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "net/fault_transport.h"
#include "net/inproc.h"
#include "sim/farm.h"

namespace roar::cluster {

struct ClusterConfig : ClusterCoreConfig {
  std::vector<sim::ServerClass> classes = sim::hen_testbed();
  // When set, the whole cluster runs over a seeded FaultTransport
  // decorating the InProcNetwork; default_faults seeds its baseline
  // per-link model (partitions etc. are scripted later via faults()).
  bool enable_faults = false;
  net::FaultSpec default_faults{};
  // Closed-loop p control: the ControlPlane ticks an AdaptivePController
  // fed by node load reports and front-end latency digests. Enabling it
  // defaults stats_interval_s / digest_interval_s to 1 s if unset.
  bool adaptive_p = false;
  core::AdaptivePParams adaptive{};
  double adaptive_interval_s = 4.0;
};

// The virtual-time loop and the in-process network (behind the fault
// layer when enabled) every component of an EmulatedCluster is bound to.
struct EmulatedSubstrate {
  explicit EmulatedSubstrate(uint64_t seed);
  net::EventLoop loop_;
  net::InProcNetwork net_;
  std::unique_ptr<net::FaultTransport> faults_;
};

class EmulatedCluster : private EmulatedSubstrate, public Cluster {
 public:
  explicit EmulatedCluster(ClusterConfig config);

  net::EventLoop& loop() { return loop_; }
  net::InProcNetwork& network() { return net_; }
  // The transport every component is wired to: the fault layer when
  // enabled, otherwise the bare in-process network.
  net::Transport& transport() {
    return faults_ ? static_cast<net::Transport&>(*faults_) : net_;
  }
  // The fault-injection layer, or nullptr when enable_faults is unset.
  net::FaultTransport* faults() { return faults_.get(); }

  // Live node ids.
  std::vector<NodeId> node_ids() const;

  // --- membership operations -------------------------------------------
  // Joins a fresh node; it downloads its data for `warmup` simulated
  // seconds (derived from range size and fetch bandwidth) before serving.
  NodeId add_node(double speed);
  // Graceful departure: the node stops serving, neighbours absorb its
  // range, and the front-ends forget it with the next view epoch.
  void leave_node(NodeId id);
  // Background range balancing round (§4.6); returns range fraction moved.
  double balance_round();
  // Long-term failure handling (§4.9): drop crashed nodes from the ring so
  // their ranges merge into live successors, and publish. Returns the
  // number of nodes removed.
  uint32_t remove_dead_nodes();

  // --- front-end lifecycle (§4.8 scale-out) ------------------------------
  // Crash-stops front-end `i`: its pending queries fail, its address
  // unbinds, and the control plane stops waiting on its acks.
  void kill_frontend(uint32_t i);
  // Restarts it; it pulls the current view and refuses queries until the
  // view applies.
  void revive_frontend(uint32_t i);

  // --- workload -----------------------------------------------------------
  // Open-loop Poisson queries, round-robined over the front-ends; runs
  // the loop until all complete or `give_up_s` of virtual time passes.
  // Returns how many of these queries completed (stragglers still in
  // flight at the deadline finish later but are not counted).
  uint32_t run_queries(double rate_per_s, uint32_t count,
                       double give_up_s = 600.0);
  // Object updates at Poisson rate for `duration_s` (§7.3.4); each update
  // goes to every node storing the object's arc. Legacy modeled-cost
  // stream — real mutation goes through ingest_stream / the router.
  void inject_updates(double rate_per_s, double duration_s);
  // Schedules `count` real index mutations at Poisson rate: a mix of
  // document adds (deterministic synthetic docs) and deletes of earlier
  // adds. Requires enable_ingest. Ops route through the IngestRouter like
  // any client's would.
  void ingest_stream(double rate_per_s, uint32_t count,
                     double delete_frac = 0.2);

  // --- metrics -------------------------------------------------------------
  double now() const override { return loop_.now(); }
  std::vector<double> node_busy_fractions() const;
  // Energy over the elapsed virtual time with a linear power model.
  double energy_joules(double idle_w = 200.0, double peak_w = 285.0) const;
  // Instance-0 delays, for the single-front-end experiments.
  const SampleSet& delays() const { return frontend(0).delays(); }

 protected:
  net::Transport& control_transport() override { return transport(); }
  net::Transport& node_transport(NodeId) override { return transport(); }
  void each_transport(const TransportVisitor& fn) const override;
  void step(double deadline) override;
  void setup_node(NodeRuntime& node) override;
  // The node serves only after downloading its stored arc (§4.3).
  void warm_up(NodeId id) override;

 private:
  ClusterConfig config_;
  Rng rng_;
  double measure_start_ = 0.0;
};

}  // namespace roar::cluster
