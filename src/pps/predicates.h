// Multi-predicate queries with dynamic predicate ordering (§5.6.5).
//
// A query is a list of encrypted predicates combined with AND or OR. The
// server first matches a sample of metadata against every predicate to
// estimate per-predicate selectivity, then orders them (AND: most selective
// first; OR: least selective first) and short-circuits. The paper derives
// the 225-sample size from Chebyshev's inequality (±0.1 selectivity at ~89%
// confidence).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pps/file_metadata.h"
#include "pps/scheme.h"

namespace roar::pps {

// One encrypted predicate plus the bookkeeping the evaluator needs. The
// match function captures the scheme-typed ciphertext, erasing it here.
class Predicate {
 public:
  using MatchFn =
      std::function<bool(const EncryptedFileMetadata&, MatchCost*)>;
  // Batched form: writes 0/1 per item. Must produce the same outcomes and
  // cost accounting as item-by-item MatchFn calls.
  using BatchFn = std::function<void(
      std::span<const EncryptedFileMetadata* const>, uint8_t*, MatchCost*)>;

  Predicate(std::string label, MatchFn fn, BatchFn batch = nullptr)
      : label_(std::move(label)),
        fn_(std::move(fn)),
        batch_(std::move(batch)) {}

  const std::string& label() const { return label_; }
  bool match(const EncryptedFileMetadata& m, MatchCost* cost) const {
    return fn_(m, cost);
  }
  bool has_batch() const { return static_cast<bool>(batch_); }
  // Falls back to item-by-item matching when no batch fn was supplied.
  void match_batch(std::span<const EncryptedFileMetadata* const> items,
                   uint8_t* results, MatchCost* cost) const {
    if (batch_) {
      batch_(items, results, cost);
      return;
    }
    for (size_t k = 0; k < items.size(); ++k) {
      results[k] = fn_(*items[k], cost) ? 1 : 0;
    }
  }

 private:
  std::string label_;
  MatchFn fn_;
  BatchFn batch_;
};

enum class Combiner { kAnd, kOr };

struct QueryOptions {
  bool dynamic_ordering = true;
  size_t selectivity_samples = 225;  // §5.6.5
};

// AND/OR of predicates. Copyable; evaluation state (ordering) lives in the
// Evaluation object so the same query can run concurrently.
class MultiPredicateQuery {
 public:
  MultiPredicateQuery(Combiner combiner, std::vector<Predicate> predicates,
                      QueryOptions options = {});

  Combiner combiner() const { return combiner_; }
  size_t size() const { return predicates_.size(); }
  const QueryOptions& options() const { return options_; }

  // Stateful evaluator for one execution of the query. Thread-compatible:
  // the pipeline shares one Evaluation across matcher threads behind its
  // own synchronization-free design (selectivity counts are approximate, so
  // racy increments are tolerated by design and the ordering decision is
  // made once, atomically published).
  class Evaluation {
   public:
    explicit Evaluation(const MultiPredicateQuery& query);

    // Returns whether metadata matches. Also advances selectivity sampling.
    bool match(const EncryptedFileMetadata& m, MatchCost* cost);

    // Batched evaluation: writes 0/1 per item. Identical outcomes and
    // predicate-evaluation counts to calling match() per item in order —
    // the sampling phase runs item-by-item (so the ordering decision sees
    // the same counts), then the ordered phase runs predicate-major with
    // survivor compaction, feeding each predicate's batch kernel. A
    // single-predicate query is that predicate's batch kernel; no call
    // allocates.
    void match_batch(std::span<const EncryptedFileMetadata* const> items,
                     uint8_t* results, MatchCost* cost);

    // Predicate order currently in force (indexes into the query), for
    // tests and the §5.7.1 bench.
    std::vector<size_t> current_order() const;
    bool ordering_decided() const { return ordered_; }

   private:
    void maybe_decide_order();

    const MultiPredicateQuery& query_;
    std::vector<size_t> order_;
    std::vector<size_t> sample_matches_;  // per predicate
    size_t sampled_ = 0;
    bool ordered_ = false;
  };

  Evaluation evaluate() const { return Evaluation(*this); }

  const std::vector<Predicate>& predicates() const { return predicates_; }

 private:
  Combiner combiner_;
  std::vector<Predicate> predicates_;
  QueryOptions options_;
};

// Convenience builders over a MetadataEncoder.
Predicate make_keyword_predicate(const MetadataEncoder& enc,
                                 std::string_view word);
Predicate make_size_predicate(const MetadataEncoder& enc, IneqType type,
                              int64_t value);
Predicate make_mtime_predicate(const MetadataEncoder& enc, int64_t lb,
                               int64_t ub);
Predicate make_ranked_predicate(const MetadataEncoder& enc,
                                std::string_view word, uint32_t bucket);

}  // namespace roar::pps
