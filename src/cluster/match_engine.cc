#include "cluster/match_engine.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <span>

#include "common/rng.h"

namespace roar::cluster {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

MatchEngine::MatchEngine(const MatchEngineConfig& config)
    : key_(pps::SecretKey::from_seed(config.encoder_seed)),
      encoder_(key_, pps::MetadataEncoderParams::keyword_only()) {
  pps::CorpusParams cp;
  cp.content_keywords_per_file = 2;
  cp.max_path_depth = 3;
  pps::CorpusGenerator gen(cp, config.corpus_seed);
  auto files = gen.generate(config.corpus_items);
  Rng rng(config.corpus_seed);
  auto store = std::make_shared<pps::MetadataStore>(4096);
  store->load(pps::encrypt_corpus(encoder_, files, rng));
  base_ = std::move(store);

  std::vector<pps::Predicate> preds;
  if (config.query_word_rank > 0) {
    preds.push_back(pps::make_keyword_predicate(
        encoder_, pps::CorpusGenerator::word(config.query_word_rank)));
  } else {
    preds.push_back(pps::make_keyword_predicate(encoder_, "zz_nomatch_0"));
    preds.push_back(pps::make_keyword_predicate(encoder_, "zz_nomatch_1"));
  }
  query_.emplace(pps::Combiner::kAnd, std::move(preds));
}

pps::EncryptedFileMetadata MatchEngine::encrypt_document(
    const pps::FileInfo& doc, RingId id, uint64_t enc_seed) const {
  Rng rng(enc_seed);
  pps::EncryptedFileMetadata m = encoder_.encrypt(doc, rng);
  m.id = id;
  return m;
}

MatchEngine::Result MatchEngine::run_slice(
    const pps::MetadataStore& store,
    const pps::MetadataStore::RangeSlice& slice,
    const pps::StoreSnapshot* skip_dead,
    pps::MultiPredicateQuery::Evaluation& eval) const {
  Result res;
  const auto& items = store.items();
  pps::MatchCost cost;
  auto t0 = std::chrono::steady_clock::now();
  // Live items accumulate into fixed-size batches for the evaluation's
  // batched (multi-block AES) path; results are order-independent so
  // batching across extent boundaries is safe. The batch is the matcher's
  // own, so its late probe rounds — run only by the few items every
  // earlier probe passed — stay wide enough to fill the AES pipeline.
  constexpr size_t kBatch = pps::BloomKeywordScheme::kBatch;
  std::array<const pps::EncryptedFileMetadata*, kBatch> batch;
  std::array<uint8_t, kBatch> verdicts;
  size_t nb = 0;
  auto flush = [&] {
    eval.match_batch({batch.data(), nb}, verdicts.data(), &cost);
    for (size_t k = 0; k < nb; ++k) res.matches += verdicts[k];
    nb = 0;
  };
  std::span<const uint64_t> dead;
  if (skip_dead && skip_dead->dead) dead = *skip_dead->dead;
  for (auto [first, last] : slice.extents) {
    if (first >= last) continue;
    // Tombstones are sorted ids and so is each extent: one cursor walks
    // them in step instead of a binary search per item.
    auto d = std::lower_bound(dead.begin(), dead.end(), items[first].id.raw());
    for (size_t i = first; i < last; ++i) {
      const uint64_t id = items[i].id.raw();
      while (d != dead.end() && *d < id) ++d;
      if (d != dead.end() && *d == id) continue;
      ++res.scanned;
      batch[nb++] = &items[i];
      if (nb == kBatch) flush();
    }
  }
  if (nb > 0) flush();
  res.cpu_s = seconds_since(t0);
  return res;
}

MatchEngine::Result MatchEngine::run_window(
    const Window& window, const pps::StoreSnapshot* snap,
    pps::MultiPredicateQuery::Evaluation& eval) const {
  if (!snap) {
    return run_slice(*base_,
                     window.whole ? base_->slice_all()
                                  : base_->slice(window.arc),
                     nullptr, eval);
  }
  // Versioned view: the base segment, then the delta segment, both minus
  // tombstones. Adding cpu times keeps the measurement honest for the
  // speed estimator.
  Result res;
  auto scan = [&](const std::shared_ptr<const pps::MetadataStore>& store) {
    if (!store || store->size() == 0) return;
    Result part = run_slice(
        *store, window.whole ? store->slice_all() : store->slice(window.arc),
        snap, eval);
    res.scanned += part.scanned;
    res.matches += part.matches;
    res.cpu_s += part.cpu_s;
  };
  scan(snap->base);
  scan(snap->delta);
  return res;
}

MatchEngine::Result MatchEngine::execute(const Window& window) const {
  auto eval = query_->evaluate();
  return run_window(window, nullptr, eval);
}

MatchEngine::Result MatchEngine::execute(
    const Window& window, const pps::StoreSnapshot& snap) const {
  auto eval = query_->evaluate();
  return run_window(window, &snap, eval);
}

std::vector<MatchEngine::Result> MatchEngine::execute_batch(
    const std::vector<Window>& windows) const {
  std::vector<Result> out;
  out.reserve(windows.size());
  auto eval = query_->evaluate();  // shared ordering state: one sampling
                                   // phase amortized over the batch
  for (const auto& w : windows) {
    out.push_back(run_window(w, nullptr, eval));
  }
  return out;
}

std::vector<MatchEngine::Result> MatchEngine::execute_batch(
    const std::vector<Window>& windows,
    const std::vector<std::shared_ptr<const pps::StoreSnapshot>>& snaps)
    const {
  std::vector<Result> out;
  out.reserve(windows.size());
  auto eval = query_->evaluate();
  for (size_t i = 0; i < windows.size(); ++i) {
    const pps::StoreSnapshot* snap =
        i < snaps.size() ? snaps[i].get() : nullptr;
    out.push_back(run_window(windows[i], snap, eval));
  }
  return out;
}

uint64_t MatchEngine::full_store_matches() const {
  Window whole;
  whole.whole = true;
  return execute(whole).matches;
}

uint64_t MatchEngine::full_store_matches(
    const pps::StoreSnapshot& snap) const {
  Window whole;
  whole.whole = true;
  return execute(whole, snap).matches;
}

}  // namespace roar::cluster
