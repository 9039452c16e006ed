// Cross-module integration: the PPS application sharded over a ROAR ring.
// Encrypted metadata is distributed by replication arc, queries are split
// by the planner, each node matches only its responsibility window, and
// the merged result equals a plaintext scan (under the schemes' documented
// numeric approximations) — with no object matched twice, with pq > p,
// and across a p reconfiguration.
#include <gtest/gtest.h>

#include <set>

#include "core/query_planner.h"
#include "core/reconfig.h"
#include "pps/corpus.h"
#include "pps/predicates.h"
#include "pps/store.h"

namespace roar {
namespace {

using core::QueryPlanner;
using core::replication_arc;
using core::Ring;

class PpsOnRoarTest : public ::testing::Test {
 protected:
  static constexpr size_t kFiles = 800;
  static constexpr uint32_t kNodes = 8;

  PpsOnRoarTest() : encoder_(key_) {
    pps::CorpusParams cp;
    cp.content_keywords_per_file = 6;
    pps::CorpusGenerator gen(cp, 12);
    files_ = gen.generate(kFiles);
    for (size_t i = 0; i < files_.size(); i += 7) {
      files_[i].content_keywords[0] = "needle";
    }
    encrypted_ = pps::encrypt_corpus(encoder_, files_, rng_);
    for (uint32_t i = 0; i < kNodes; ++i) {
      ring_.add_node(i, query_point(RingId(0), i, kNodes));
    }
  }

  // Distributes metadata at partitioning level p.
  std::vector<pps::MetadataStore> shard(uint32_t p) {
    std::vector<std::vector<pps::EncryptedFileMetadata>> shards(kNodes);
    for (const auto& m : encrypted_) {
      Arc repl = replication_arc(m.id, p);
      for (const auto& n : ring_.nodes()) {
        if (ring_.range_of(n.id).intersects(repl)) {
          shards[n.id].push_back(m);
        }
      }
    }
    std::vector<pps::MetadataStore> stores(kNodes);
    for (uint32_t i = 0; i < kNodes; ++i) stores[i].load(shards[i]);
    return stores;
  }

  // Runs an encrypted query through the planner; returns (ids, scanned).
  std::pair<std::set<uint64_t>, size_t> run_query(
      std::vector<pps::MetadataStore>& stores, uint32_t pq, uint32_t p,
      const pps::MultiPredicateQuery& query) {
    auto plan = planner_.plan(ring_, rng_.next_ring_id(), pq, p, rng_);
    std::set<uint64_t> ids;
    size_t scanned = 0;
    for (const auto& part : plan.parts) {
      Arc window(part.window_begin.advanced_raw(1),
                 part.window_begin.distance_to(part.responsibility_end));
      auto slice = stores[part.node].slice(window);
      auto eval = query.evaluate();
      const auto& items = stores[part.node].items();
      for (auto [first, last] : slice.extents) {
        for (size_t i = first; i < last; ++i) {
          ++scanned;
          if (eval.match(items[i], nullptr)) ids.insert(items[i].id.raw());
        }
      }
    }
    return {ids, scanned};
  }

  size_t plaintext_count(const std::string& kw) const {
    size_t n = 0;
    for (const auto& f : files_) {
      for (const auto& w : f.content_keywords) {
        if (w == kw) {
          ++n;
          break;
        }
      }
    }
    return n;
  }

  pps::SecretKey key_ = pps::SecretKey::from_seed(777);
  pps::MetadataEncoder encoder_;
  Rng rng_{55};
  std::vector<pps::FileInfo> files_;
  std::vector<pps::EncryptedFileMetadata> encrypted_;
  Ring ring_;
  QueryPlanner planner_;
};

TEST_F(PpsOnRoarTest, DistributedResultEqualsPlaintextScan) {
  uint32_t p = 4;
  auto stores = shard(p);
  pps::MultiPredicateQuery q(pps::Combiner::kAnd,
                             {make_keyword_predicate(encoder_, "needle")});
  auto [ids, scanned] = run_query(stores, p, p, q);
  size_t expected = plaintext_count("needle");
  EXPECT_GE(ids.size(), expected);          // never misses
  EXPECT_LE(ids.size(), expected + 3);      // at most stray Bloom FPs
  EXPECT_EQ(scanned, kFiles) << "exactly one pass over the dataset";
}

TEST_F(PpsOnRoarTest, OverPartitionedQueryScansExactlyOnce) {
  uint32_t p = 4;
  auto stores = shard(p);
  pps::MultiPredicateQuery q(pps::Combiner::kAnd,
                             {make_keyword_predicate(encoder_, "needle")});
  for (uint32_t pq : {4u, 6u, 8u}) {
    auto [ids, scanned] = run_query(stores, pq, p, q);
    EXPECT_EQ(scanned, kFiles) << "pq=" << pq;
    EXPECT_GE(ids.size(), plaintext_count("needle")) << "pq=" << pq;
  }
}

TEST_F(PpsOnRoarTest, ReplicationMatchesNOverP) {
  uint32_t p = 4;
  auto stores = shard(p);
  size_t total = 0;
  for (auto& s : stores) total += s.size();
  double replicas = static_cast<double>(total) / kFiles;
  EXPECT_NEAR(replicas, kNodes / static_cast<double>(p) + 1, 0.4);
}

TEST_F(PpsOnRoarTest, ReconfigurationPreservesResults) {
  // Run at p=4, then "reconfigure" to p=2 (each node fetches its extended
  // arc — here re-sharding does it) and verify identical results.
  auto stores4 = shard(4);
  auto stores2 = shard(2);
  pps::MultiPredicateQuery q(pps::Combiner::kAnd,
                             {make_keyword_predicate(encoder_, "needle")});
  auto [ids4, scanned4] = run_query(stores4, 4, 4, q);
  auto [ids2, scanned2] = run_query(stores2, 2, 2, q);
  EXPECT_EQ(ids4, ids2);
  EXPECT_EQ(scanned4, scanned2);

  // During the 4 -> 2 transition (nodes already hold the p=2 super-set),
  // running at the old pq=4 against the new shards stays correct.
  auto [ids_mid, scanned_mid] = run_query(stores2, 4, 4, q);
  EXPECT_EQ(ids_mid, ids4);
  EXPECT_EQ(scanned_mid, kFiles);
}

TEST_F(PpsOnRoarTest, PartialLoadTouchesOnlyWindowBlocks) {
  // The §5.6.2 point of the pointer index: a sub-query reads only the
  // slice of the store its window covers.
  uint32_t p = 4;
  auto stores = shard(p);
  auto plan = planner_.plan(ring_, rng_.next_ring_id(), p, p, rng_);
  for (const auto& part : plan.parts) {
    Arc window(part.window_begin.advanced_raw(1),
               part.window_begin.distance_to(part.responsibility_end));
    auto slice = stores[part.node].slice(window);
    EXPECT_LT(slice.count, stores[part.node].size())
        << "window slice must be a strict subset of the node's store";
    EXPECT_LT(stores[part.node].bytes(slice),
              stores[part.node].total_bytes());
  }
}

}  // namespace
}  // namespace roar
