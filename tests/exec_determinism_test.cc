// Determinism guarantees of the parallel execution engine.
//
// 1. Query RESULTS are independent of the worker-pool size: with real
//    matching, a completed query's per-part match counts always sum to
//    the full-store match count (the §4.2 exact-coverage invariant), so
//    an inline node and a 4-lane node answer identically even though
//    their timing differs.
// 2. At pool size 0 the engine leaves the virtual-time path untouched:
//    two EmulatedCluster runs with the same seed produce identical
//    virtual-time traces (per-query delays, message and byte counts,
//    final clock).
#include <gtest/gtest.h>

#include <vector>

#include "cluster/emulated_cluster.h"
#include "cluster/tcp_cluster.h"

namespace roar::cluster {
namespace {

TcpClusterConfig real_matching_config(uint32_t workers) {
  TcpClusterConfig cfg;
  cfg.nodes = 6;
  cfg.p = 3;
  cfg.seed = 5;
  cfg.real_matching = true;
  cfg.engine.corpus_items = 2'000;
  cfg.dataset_size = cfg.engine.corpus_items;
  // The encrypted keyword match costs ~6 µs/item on the portable AES
  // path (far less with AES-NI); tell the delay estimator so the first
  // query is not declared a mass failure.
  cfg.node_proto.base_rate = 200'000.0;
  cfg.frontend.initial_rate = 200'000.0;
  cfg.frontend.timeout_margin_s = 0.5;
  cfg.node_workers = workers;
  return cfg;
}

TEST(ExecDeterminism, RealMatchResultsIndependentOfPoolSizeAndShards) {
  constexpr uint32_t kQueries = 8;
  // The full grid the datapath must be invisible across: inline vs
  // 4-lane pools, single-threaded vs 4-shard reactors.
  struct Grid {
    uint32_t workers;
    uint32_t shards;
  };
  const Grid grid[] = {{0, 1}, {0, 4}, {4, 1}, {4, 4}};
  std::vector<std::vector<uint64_t>> matches_by_cfg;
  uint64_t expected = 0;
  for (const Grid& g : grid) {
    auto cfg = real_matching_config(g.workers);
    cfg.reactor_shards = g.shards;
    TcpCluster cluster(cfg);
    ASSERT_NE(cluster.engine(), nullptr);
    expected = cluster.engine()->full_store_matches();
    ASSERT_GT(expected, 0u) << "query must match something to be a test";
    auto outcomes = cluster.run_queries(kQueries);
    matches_by_cfg.emplace_back();
    for (const auto& out : outcomes) {
      ASSERT_NE(out.id, 0u) << "query timed out at workers=" << g.workers
                            << " shards=" << g.shards;
      EXPECT_TRUE(out.complete);
      EXPECT_DOUBLE_EQ(out.harvest, 1.0);
      // Exact coverage: the responsibility windows partition the ring, so
      // the parts' match counts sum to the whole store's match count.
      EXPECT_EQ(out.matches, expected)
          << "workers=" << g.workers << " shards=" << g.shards;
      matches_by_cfg.back().push_back(out.matches);
    }
    if (g.workers > 0) {
      EXPECT_GT(cluster.pool_tasks_executed(), 0u)
          << "pooled run never used its lanes";
    }
  }
  for (size_t i = 1; i < matches_by_cfg.size(); ++i) {
    EXPECT_EQ(matches_by_cfg[0], matches_by_cfg[i]) << "grid point " << i;
  }
}

ClusterConfig emulated_config() {
  ClusterConfig cfg;
  cfg.classes = {{"uniform", 10, 1.0}};
  cfg.dataset_size = 1'000'000;
  cfg.p = 4;
  cfg.seed = 23;
  return cfg;
}

struct EmulatedTrace {
  std::vector<double> delays;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t completed = 0;
  double final_now = 0.0;
};

EmulatedTrace run_emulated() {
  EmulatedCluster cluster(emulated_config());
  EmulatedTrace trace;
  trace.completed = cluster.run_queries(/*rate_per_s=*/40.0, /*count=*/60);
  trace.delays = cluster.delays().samples();
  trace.messages = cluster.network().messages_sent();
  trace.bytes = cluster.network().bytes_sent();
  trace.final_now = cluster.now();
  return trace;
}

TEST(ExecDeterminism, VirtualTimeTraceIdenticalAtPoolSizeZero) {
  EmulatedTrace a = run_emulated();
  EmulatedTrace b = run_emulated();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_DOUBLE_EQ(a.final_now, b.final_now);
  ASSERT_EQ(a.delays.size(), b.delays.size());
  for (size_t i = 0; i < a.delays.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.delays[i], b.delays[i]) << "query " << i;
  }
}

// Batching accounting: a pooled node drains its pending sub-queries in
// wakeups of at most batch_max.
TEST(ExecDeterminism, PooledNodesBatchSubqueries) {
  auto cfg = real_matching_config(2);
  cfg.exec_batch_max = 4;
  TcpCluster cluster(cfg);
  auto outcomes = cluster.run_queries(6);
  for (const auto& out : outcomes) ASSERT_NE(out.id, 0u);
  EXPECT_GT(cluster.batches_drained(), 0u);
  EXPECT_GE(cluster.batched_subqueries(), cluster.batches_drained());
}

}  // namespace
}  // namespace roar::cluster
