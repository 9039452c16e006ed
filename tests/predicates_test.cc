#include "pps/predicates.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "pps/corpus.h"

namespace roar::pps {
namespace {

class PredicatesTest : public ::testing::Test {
 protected:
  SecretKey key_ = SecretKey::from_seed(31415);
  MetadataEncoder enc_{key_};
  Rng rng_{27};

  FileInfo file_with(std::vector<std::string> keywords, int64_t size = 1000) {
    FileInfo f;
    f.path = "home/data/file.txt";
    f.content_keywords = std::move(keywords);
    f.size_bytes = size;
    f.mtime = 1'200'000'000;
    return f;
  }
};

TEST_F(PredicatesTest, AndSemantics) {
  auto m_both = enc_.encrypt(file_with({"alpha", "beta"}), rng_);
  auto m_one = enc_.encrypt(file_with({"alpha"}), rng_);
  MultiPredicateQuery q(Combiner::kAnd,
                        {make_keyword_predicate(enc_, "alpha"),
                         make_keyword_predicate(enc_, "beta")});
  auto eval = q.evaluate();
  EXPECT_TRUE(eval.match(m_both, nullptr));
  EXPECT_FALSE(eval.match(m_one, nullptr));
}

TEST_F(PredicatesTest, OrSemantics) {
  auto m_a = enc_.encrypt(file_with({"alpha"}), rng_);
  auto m_b = enc_.encrypt(file_with({"beta"}), rng_);
  auto m_none = enc_.encrypt(file_with({"gamma"}), rng_);
  MultiPredicateQuery q(Combiner::kOr,
                        {make_keyword_predicate(enc_, "alpha"),
                         make_keyword_predicate(enc_, "beta")});
  auto eval = q.evaluate();
  EXPECT_TRUE(eval.match(m_a, nullptr));
  EXPECT_TRUE(eval.match(m_b, nullptr));
  EXPECT_FALSE(eval.match(m_none, nullptr));
}

TEST_F(PredicatesTest, MixedAttributeQuery) {
  auto m = enc_.encrypt(file_with({"report"}, /*size=*/500'000), rng_);
  MultiPredicateQuery q(
      Combiner::kAnd,
      {make_keyword_predicate(enc_, "report"),
       make_size_predicate(enc_, IneqType::kGreater, 100'000),
       make_mtime_predicate(enc_, 1'100'000'000, 1'300'000'000)});
  auto eval = q.evaluate();
  EXPECT_TRUE(eval.match(m, nullptr));
}

TEST_F(PredicatesTest, OrderingDecidedAfterSampleWindow) {
  QueryOptions opts;
  opts.selectivity_samples = 50;
  MultiPredicateQuery q(Combiner::kAnd,
                        {make_keyword_predicate(enc_, "common"),
                         make_keyword_predicate(enc_, "rare")},
                        opts);
  auto eval = q.evaluate();
  EXPECT_FALSE(eval.ordering_decided());
  for (int i = 0; i < 50; ++i) {
    auto m = enc_.encrypt(file_with({i % 2 ? "common" : "other"}), rng_);
    eval.match(m, nullptr);
  }
  EXPECT_TRUE(eval.ordering_decided());
}

TEST_F(PredicatesTest, AndPutsSelectivePredicateFirst) {
  QueryOptions opts;
  opts.selectivity_samples = 60;
  // Predicate 0 matches everything ("common"), predicate 1 nothing.
  MultiPredicateQuery q(Combiner::kAnd,
                        {make_keyword_predicate(enc_, "common"),
                         make_keyword_predicate(enc_, "xyzzy")},
                        opts);
  auto eval = q.evaluate();
  for (int i = 0; i < 60; ++i) {
    auto m = enc_.encrypt(file_with({"common"}), rng_);
    eval.match(m, nullptr);
  }
  ASSERT_TRUE(eval.ordering_decided());
  EXPECT_EQ(eval.current_order().front(), 1u)
      << "most selective predicate must run first under AND";
}

TEST_F(PredicatesTest, OrPutsBroadPredicateFirst) {
  QueryOptions opts;
  opts.selectivity_samples = 60;
  MultiPredicateQuery q(Combiner::kOr,
                        {make_keyword_predicate(enc_, "xyzzy"),
                         make_keyword_predicate(enc_, "common")},
                        opts);
  auto eval = q.evaluate();
  for (int i = 0; i < 60; ++i) {
    auto m = enc_.encrypt(file_with({"common"}), rng_);
    eval.match(m, nullptr);
  }
  ASSERT_TRUE(eval.ordering_decided());
  EXPECT_EQ(eval.current_order().front(), 1u)
      << "least selective predicate must run first under OR";
}

TEST_F(PredicatesTest, OrderingReducesPrfCost) {
  // Reproduces the §5.7.1 effect in miniature: "the xyz" with ordering
  // should cost close to matching "xyz" alone; without ordering and with
  // the wildcard first, cost is much higher.
  std::vector<EncryptedFileMetadata> corpus;
  for (int i = 0; i < 600; ++i) {
    corpus.push_back(enc_.encrypt(file_with({"the", "word" +
                                                        std::to_string(i)}),
                                  rng_));
  }

  auto run = [&](bool ordering) {
    QueryOptions opts;
    opts.dynamic_ordering = ordering;
    opts.selectivity_samples = 100;
    MultiPredicateQuery q(Combiner::kAnd,
                          {make_keyword_predicate(enc_, "the"),
                           make_keyword_predicate(enc_, "xyz")},
                          opts);
    auto eval = q.evaluate();
    MatchCost cost;
    for (const auto& m : corpus) eval.match(m, &cost);
    return cost.prf_calls;
  };

  uint64_t with = run(true);
  uint64_t without = run(false);
  EXPECT_LT(with, without * 6 / 10)
      << "dynamic ordering should cut PRF cost substantially";
}

TEST_F(PredicatesTest, SinglePredicateSkipsSampling) {
  MultiPredicateQuery q(Combiner::kAnd,
                        {make_keyword_predicate(enc_, "alpha")});
  auto eval = q.evaluate();
  EXPECT_TRUE(eval.ordering_decided());
}

TEST_F(PredicatesTest, MatchCostAccumulates) {
  auto m = enc_.encrypt(file_with({"alpha"}), rng_);
  MultiPredicateQuery q(Combiner::kAnd,
                        {make_keyword_predicate(enc_, "alpha")});
  auto eval = q.evaluate();
  MatchCost cost;
  eval.match(m, &cost);
  EXPECT_GT(cost.prf_calls, 0u);
}


// Evaluation::match_batch against item-by-item match() on a fresh
// evaluation of the same query: same verdicts, PRF count and predicate
// order. The batches are cut so the default 225-item sampling window
// ends inside one (items 100-299), and the last one (1100 items) spans
// more than one of the evaluator's kBatch-item (1024) chunks.
TEST_F(PredicatesTest, MatchBatchAgreesAcrossSamplingBoundary) {
  MetadataEncoder enc(key_, MetadataEncoderParams::keyword_only());
  std::vector<EncryptedFileMetadata> corpus;
  for (int i = 0; i < 1400; ++i) {
    std::vector<std::string> words = {"w" + std::to_string(i)};
    if (i % 2 == 0) words.push_back("alpha");
    if (i % 5 == 0) words.push_back("beta");
    if (i % 3 == 0) words.push_back("gamma");
    corpus.push_back(enc.encrypt(file_with(words), rng_));
  }
  std::vector<const EncryptedFileMetadata*> items;
  for (const auto& m : corpus) items.push_back(&m);
  constexpr size_t cuts[] = {0, 100, 300, 1400};
  static_assert(cuts[3] - cuts[2] > BloomKeywordScheme::kBatch);

  auto check = [&](Combiner combiner, std::vector<Predicate> preds) {
    MultiPredicateQuery q(combiner, std::move(preds));
    auto ref_eval = q.evaluate();
    std::vector<uint8_t> expect;
    MatchCost expect_cost;
    for (const auto& m : corpus) {
      expect.push_back(ref_eval.match(m, &expect_cost) ? 1 : 0);
    }
    auto eval = q.evaluate();
    std::vector<uint8_t> got(corpus.size(), 2);
    MatchCost got_cost;
    for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
      eval.match_batch({items.data() + cuts[c], cuts[c + 1] - cuts[c]},
                       got.data() + cuts[c], &got_cost);
    }
    EXPECT_EQ(got, expect);
    EXPECT_EQ(got_cost.prf_calls, expect_cost.prf_calls);
    EXPECT_EQ(eval.current_order(), ref_eval.current_order());
    EXPECT_GT(std::count(expect.begin(), expect.end(), 1), 0);
    return eval.current_order().front();
  };
  // AND puts the rarer beta first, OR the broader alpha.
  EXPECT_EQ(check(Combiner::kAnd, {make_keyword_predicate(enc, "alpha"),
                                   make_keyword_predicate(enc, "beta"),
                                   make_keyword_predicate(enc, "gamma")}),
            1u);
  EXPECT_EQ(check(Combiner::kOr, {make_keyword_predicate(enc, "beta"),
                                  make_keyword_predicate(enc, "alpha")}),
            1u);
  // One predicate: the batch kernel is called straight through.
  check(Combiner::kAnd, {make_keyword_predicate(enc, "gamma")});
}

}  // namespace
}  // namespace roar::pps
