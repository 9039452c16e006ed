#include "cluster/tcp_cluster.h"

#include <algorithm>
#include <stdexcept>

namespace roar::cluster {

TcpCluster::TcpCluster(TcpClusterConfig config)
    : TcpSubstrate(std::max(1u, config.reactor_shards)),
      Cluster(config.seed, driver_.shards()),
      config_(std::move(config)) {
  // The control endpoint on shard 0, then one listener per storage node,
  // spread round-robin over the reactor shards. Everything up to
  // driver_.start() is single-threaded, so registering listeners with
  // not-yet-running shard loops is safe.
  transports_.push_back(std::make_unique<net::TcpTransport>(driver_));
  for (NodeId id = 0; id < config_.nodes; ++id) {
    transports_.push_back(
        std::make_unique<net::TcpTransport>(driver_, node_shard(id)));
  }
  for (auto& t : transports_) t->set_latency_hint(kLinkLatencyS);

  if (config_.enable_ingest) config_.real_matching = true;
  assemble(config_, {{"uniform", config_.nodes, 1.0}}, config_.real_matching,
           ControlPlaneParams{});
  // Everything is registered; spin up the shard threads (no-op with one
  // shard) before the first drain.
  driver_.start();
  // Drain the first view epoch so every node knows its slice and every
  // front-end is ready before queries; serving with empty ranges would
  // silently corrupt outcomes, so a drain failure is fatal here.
  if (!driver_.run_until([this] { return serving(); })) {
    driver_.stop();
    throw std::runtime_error("TcpCluster: initial view never delivered");
  }

  // Driver and pool counters are relaxed atomics, read directly.
  driver_.register_metrics(metrics(), "driver");
  metrics().gauge_fn("pool.tasks_executed", [this] {
    return static_cast<double>(pool_tasks_executed());
  });
  metrics().gauge_fn("pool.tasks_stolen", [this] {
    return static_cast<double>(pool_tasks_stolen());
  });
  metrics().gauge_fn("pool.ring_full_events", [this] {
    return static_cast<double>(pool_ring_full_events());
  });
  metrics().gauge_fn("pool.express_submits", [this] {
    return static_cast<double>(pool_express_submits());
  });
}

TcpCluster::~TcpCluster() {
  // Join the shard threads before anything unwinds: a live shard loop may
  // be mid-handler inside a node. Then the pools (members), the core's
  // nodes (base Cluster), and the transports and driver (base
  // TcpSubstrate) go in that order.
  driver_.stop();
}

void TcpCluster::setup_node(NodeRuntime& node) {
  if (config_.node_workers == 0) return;
  // One pool per node: a node's lanes model its own cores, so capacity
  // scales per node exactly as the paper's thread sweeps do.
  pools_.push_back(std::make_unique<core::WorkerPool>(config_.node_workers));
  NodeExecutor exec;
  exec.pool = pools_.back().get();
  // Completions must land on the shard thread that owns this node's
  // transport and state, not on shard 0.
  exec.post = [this, shard = node_shard(node.id())](std::function<void()> fn) {
    driver_.post_to(shard, std::move(fn));
  };
  exec.batch_max = config_.exec_batch_max;
  node.set_executor(std::move(exec));
}

void TcpCluster::on_shard(size_t shard,
                          const std::function<void()>& fn) const {
  // run_on mutates the target shard's mailbox; logically const here.
  const_cast<net::TcpDriver&>(driver_).run_on(shard, fn);
}

void TcpCluster::each_transport(const TransportVisitor& fn) const {
  for (const auto& t : transports_) fn(*t);
}

double TcpCluster::now() const {
  return const_cast<net::TcpDriver&>(driver_).clock().now();
}

void TcpCluster::step(double deadline) {
  (void)deadline;  // a 5 ms poll overshoots it by at most that much
  driver_.poll(5);
}

uint16_t TcpCluster::node_port(NodeId id) const {
  return transports_.at(id + 1)->port();
}

QueryOutcome TcpCluster::run_query(double timeout_s) {
  // Shared state, not stack references: on timeout the query stays
  // pending inside the Frontend and its callback may still fire during a
  // later poll, after this frame is gone.
  auto out = std::make_shared<QueryOutcome>();
  auto done = std::make_shared<bool>(false);
  submit_query([out, done](const QueryOutcome& o) {
    *out = o;
    *done = true;
  });
  driver_.run_until([&] { return *done; }, timeout_s);
  return *out;  // id == 0 if the query never completed
}

std::vector<QueryOutcome> TcpCluster::run_queries(uint32_t count,
                                                  double per_query_timeout_s) {
  std::vector<QueryOutcome> outs;
  outs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    outs.push_back(run_query(per_query_timeout_s));
  }
  return outs;
}

void TcpCluster::run_for(double duration_s) {
  double until = now() + duration_s;
  while (now() < until) driver_.poll(5);
}

uint64_t TcpCluster::batches_drained() const {
  uint64_t total = 0;
  for (NodeId id = 0; id < node_count(); ++id) {
    on_node(id, [&] { total += node(id).batches_drained(); });
  }
  return total;
}

uint64_t TcpCluster::batched_subqueries() const {
  uint64_t total = 0;
  for (NodeId id = 0; id < node_count(); ++id) {
    on_node(id, [&] { total += node(id).batched_subqueries(); });
  }
  return total;
}

uint64_t TcpCluster::pool_total(
    uint64_t (core::WorkerPool::*counter)() const) const {
  uint64_t total = 0;
  for (const auto& p : pools_) total += ((*p).*counter)();
  return total;
}

uint64_t TcpCluster::pool_tasks_executed() const {
  return pool_total(&core::WorkerPool::executed);
}

uint64_t TcpCluster::pool_tasks_stolen() const {
  return pool_total(&core::WorkerPool::stolen);
}

uint64_t TcpCluster::pool_ring_full_events() const {
  return pool_total(&core::WorkerPool::ring_full_events);
}

uint64_t TcpCluster::pool_express_submits() const {
  return pool_total(&core::WorkerPool::express_submits);
}

}  // namespace roar::cluster
