#include "pps/predicates.h"

#include <algorithm>
#include <numeric>

namespace roar::pps {

MultiPredicateQuery::MultiPredicateQuery(Combiner combiner,
                                         std::vector<Predicate> predicates,
                                         QueryOptions options)
    : combiner_(combiner),
      predicates_(std::move(predicates)),
      options_(options) {}

MultiPredicateQuery::Evaluation::Evaluation(const MultiPredicateQuery& query)
    : query_(query),
      order_(query.size()),
      sample_matches_(query.size(), 0) {
  std::iota(order_.begin(), order_.end(), 0);
  // Single predicate or ordering disabled: nothing to decide.
  if (!query_.options().dynamic_ordering || query_.size() < 2) {
    ordered_ = true;
  }
}

void MultiPredicateQuery::Evaluation::maybe_decide_order() {
  if (ordered_ || sampled_ < query_.options().selectivity_samples) return;
  // AND: most selective (fewest matches) first so non-matching metadata is
  // rejected after one cheap predicate. OR: least selective first so
  // matching metadata is accepted after one predicate.
  std::stable_sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
    if (query_.combiner() == Combiner::kAnd) {
      return sample_matches_[a] < sample_matches_[b];
    }
    return sample_matches_[a] > sample_matches_[b];
  });
  ordered_ = true;
}

bool MultiPredicateQuery::Evaluation::match(const EncryptedFileMetadata& m,
                                            MatchCost* cost) {
  const auto& preds = query_.predicates();
  if (!ordered_) {
    // Sampling phase: run every predicate, count matches.
    bool acc = query_.combiner() == Combiner::kAnd;
    for (size_t i = 0; i < preds.size(); ++i) {
      bool r = preds[i].match(m, cost);
      if (r) ++sample_matches_[i];
      if (query_.combiner() == Combiner::kAnd) {
        acc = acc && r;
      } else {
        acc = acc || r;
      }
    }
    ++sampled_;
    maybe_decide_order();
    return acc;
  }
  // Ordered phase: short-circuit in decided order.
  if (query_.combiner() == Combiner::kAnd) {
    for (size_t i : order_) {
      if (!preds[i].match(m, cost)) return false;
    }
    return true;
  }
  for (size_t i : order_) {
    if (preds[i].match(m, cost)) return true;
  }
  return false;
}

void MultiPredicateQuery::Evaluation::match_batch(
    std::span<const EncryptedFileMetadata* const> items, uint8_t* results,
    MatchCost* cost) {
  const auto& preds = query_.predicates();
  // One predicate has no ordering to learn: its batch kernel is the query.
  if (preds.size() == 1) {
    preds[0].match_batch(items, results, cost);
    return;
  }
  size_t n = items.size();
  size_t start = 0;
  // Sampling phase stays item-by-item so the selectivity counts (and the
  // ordering decision, which may land mid-batch) are exactly what the
  // sequential path would compute.
  while (start < n && !ordered_) {
    results[start] = match(*items[start], cost) ? 1 : 0;
    ++start;
  }
  const bool is_and = query_.combiner() == Combiner::kAnd;
  std::fill(results + start, results + n, is_and ? uint8_t{1} : uint8_t{0});
  // Predicate-major over the undecided items, one stack-sized chunk at a
  // time: each predicate sees one compacted batch of survivors, so
  // per-item evaluations (and cost) are identical to the sequential
  // short-circuit.
  constexpr size_t kChunk = BloomKeywordScheme::kBatch;
  const EncryptedFileMetadata* live[kChunk];
  uint32_t live_idx[kChunk];
  uint8_t sub[kChunk];
  for (size_t off = start; off < n; off += kChunk) {
    size_t count = std::min(kChunk, n - off);
    for (size_t k = 0; k < count; ++k) {
      live[k] = items[off + k];
      live_idx[k] = static_cast<uint32_t>(k);
    }
    for (size_t i : order_) {
      if (count == 0) break;
      preds[i].match_batch({live, count}, sub, cost);
      size_t kept = 0;
      for (size_t k = 0; k < count; ++k) {
        bool r = sub[k] != 0;
        if (is_and ? !r : r) {
          // Decided: AND fails on the first false, OR succeeds on the
          // first true. Drop the item from later predicates.
          results[off + live_idx[k]] = is_and ? 0 : 1;
        } else {
          live[kept] = live[k];
          live_idx[kept] = live_idx[k];
          ++kept;
        }
      }
      count = kept;
    }
  }
}

std::vector<size_t> MultiPredicateQuery::Evaluation::current_order() const {
  return order_;
}

namespace {

// Shared shape of every builder: expand the trapdoor's key schedules once
// and capture them in both the scalar and the batch closure.
Predicate make_prepared_predicate(const MetadataEncoder& enc,
                                  std::string label,
                                  BloomKeywordScheme::Trapdoor trapdoor) {
  auto prepared =
      std::make_shared<const BloomKeywordScheme::PreparedTrapdoor>(
          enc.prepare(trapdoor));
  return Predicate(
      std::move(label),
      [&enc, prepared](const EncryptedFileMetadata& m, MatchCost* cost) {
        return enc.match(m, *prepared, cost);
      },
      [&enc, prepared](std::span<const EncryptedFileMetadata* const> items,
                       uint8_t* results, MatchCost* cost) {
        enc.match_batch(items, *prepared, results, cost);
      });
}

}  // namespace

Predicate make_keyword_predicate(const MetadataEncoder& enc,
                                 std::string_view word) {
  return make_prepared_predicate(enc, "kw=" + std::string(word),
                                 enc.keyword_query(word));
}

Predicate make_size_predicate(const MetadataEncoder& enc, IneqType type,
                              int64_t value) {
  std::string label = std::string("size") +
                      (type == IneqType::kGreater ? ">" : "<") +
                      std::to_string(value);
  return make_prepared_predicate(enc, std::move(label),
                                 enc.size_query(type, value));
}

Predicate make_mtime_predicate(const MetadataEncoder& enc, int64_t lb,
                               int64_t ub) {
  return make_prepared_predicate(
      enc, "mtime[" + std::to_string(lb) + "," + std::to_string(ub) + "]",
      enc.mtime_range_query(lb, ub));
}

Predicate make_ranked_predicate(const MetadataEncoder& enc,
                                std::string_view word, uint32_t bucket) {
  return make_prepared_predicate(
      enc, "top" + std::to_string(bucket) + "|" + std::string(word),
      enc.ranked_keyword_query(word, bucket));
}

}  // namespace roar::pps
