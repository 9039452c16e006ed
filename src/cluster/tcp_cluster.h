// The deployable ROAR cluster: the cluster core (cluster/cluster.h) with
// F front-ends + control plane on one loopback TCP listener and every
// storage node on its own, exchanging byte-for-byte the protocol the
// emulated cluster runs in virtual time — including the epoch-versioned
// ClusterView delta/ack/pull choreography.
//
// A TcpDriver runs every socket and timer. With one reactor shard the
// harness is single-threaded, like an event-driven deployment compressed
// into one process; with more, nodes spread over shard threads while the
// control endpoint stays on the caller-driven shard 0. Node "matching
// work" follows the same Definition-8 cost model as the emulation
// (service time is modeled, then actually elapses on the wall clock
// before the reply is sent), which is what makes the InProc-vs-TCP parity
// test able to demand identical query outcomes.
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "core/worker_pool.h"
#include "net/tcp_transport.h"

namespace roar::cluster {

struct TcpClusterConfig : ClusterCoreConfig {
  TcpClusterConfig() {
    dataset_size = 100'000;
    p = 4;
  }
  uint32_t nodes = 8;  // uniform, speed 1.0

  // --- execution engine --------------------------------------------------
  // Reactor shards in the TcpDriver. 1 = the original single-threaded
  // harness (shard 0, caller-driven). N > 1 spreads node endpoints across
  // N event loops (node i on shard i % N, each with its own epoll, clock
  // and mailbox); the control endpoint and the front-ends stay on the
  // caller-driven shard 0, so the harness API remains single-threaded.
  uint32_t reactor_shards = 1;
  // Worker lanes per node (its core count). 0 = the original inline,
  // single-pipeline node; N > 0 = an N-wide matching pipeline on a
  // per-node core::WorkerPool, with sub-queries batched per loop wakeup
  // and completions posted back to the node's shard thread.
  uint32_t node_workers = 0;
  // Max sub-queries a node drains into the pool per wakeup.
  size_t exec_batch_max = 16;
  // Give every node a real pps corpus + query (one shared immutable
  // MatchEngine) instead of the analytic service model. Implied by
  // enable_ingest (ingestion mutates the real corpus).
  bool real_matching = false;
};

// The reactor driver and the loopback endpoints every component of a
// TcpCluster is bound to. transports_[0] hosts the control plane + all
// front-ends + the update server (one "control process");
// transports_[i + 1] hosts node i.
struct TcpSubstrate {
  explicit TcpSubstrate(uint32_t shards) : driver_(shards) {}
  net::TcpDriver driver_;
  std::vector<std::unique_ptr<net::TcpTransport>> transports_;
};

class TcpCluster : private TcpSubstrate, public Cluster {
 public:
  explicit TcpCluster(TcpClusterConfig config);
  ~TcpCluster() override;

  net::TcpDriver& driver() { return driver_; }
  uint16_t node_port(NodeId id) const;
  uint32_t node_shard(NodeId id) const override {
    return static_cast<uint32_t>(id % driver_.shards());
  }
  double now() const override;

  // Submits one query (front-ends round-robin) and polls sockets +
  // wall-clock timers until it completes (or `timeout_s` passes — the
  // outcome then has id == 0).
  QueryOutcome run_query(double timeout_s = 30.0);
  // `count` queries back-to-back (closed loop).
  std::vector<QueryOutcome> run_queries(uint32_t count,
                                        double per_query_timeout_s = 30.0);

  // Polls for `duration_s` wall seconds (timers keep firing).
  void run_for(double duration_s);

  // Execution-engine diagnostics summed over nodes / pools.
  uint64_t batches_drained() const;
  uint64_t batched_subqueries() const;
  uint64_t pool_tasks_executed() const;
  uint64_t pool_tasks_stolen() const;
  // Backpressure diagnostics: submissions that overflowed a worker's
  // express ring (fell back to the locked deque), and express-lane hits.
  uint64_t pool_ring_full_events() const;
  uint64_t pool_express_submits() const;

 protected:
  net::Transport& control_transport() override { return *transports_[0]; }
  net::Transport& node_transport(NodeId id) override {
    return *transports_.at(id + 1);
  }
  void each_transport(const TransportVisitor& fn) const override;
  void step(double deadline) override;
  void on_shard(size_t shard, const std::function<void()>& fn) const override;
  void setup_node(NodeRuntime& node) override;

 private:
  uint64_t pool_total(uint64_t (core::WorkerPool::*counter)() const) const;

  TcpClusterConfig config_;
  // One pool per node when node_workers > 0. A member, so it is destroyed
  // (drained and joined) before the core's nodes: in-flight tasks capture
  // raw node pointers. Completions they posted may outlive the nodes
  // unexecuted — the driver (destroyed last) drops them without running.
  std::vector<std::unique_ptr<core::WorkerPool>> pools_;
};

}  // namespace roar::cluster
