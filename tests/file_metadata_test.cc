#include "pps/file_metadata.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "pps/aes128.h"
#include "pps/corpus.h"

namespace roar::pps {
namespace {

class FileMetadataTest : public ::testing::Test {
 protected:
  SecretKey key_ = SecretKey::from_seed(2024);
  MetadataEncoder enc_{key_};
  Rng rng_{11};

  FileInfo sample_file() {
    FileInfo f;
    f.path = "home/projects/roar/notes.txt";
    f.content_keywords = {"rendezvous", "ring", "replication", "search"};
    f.size_bytes = 50'000;
    f.mtime = 1'500'000'000;
    return f;
  }
};

TEST_F(FileMetadataTest, KeywordMatchOnContent) {
  auto m = enc_.encrypt(sample_file(), rng_);
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("rendezvous")));
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("search")));
  EXPECT_FALSE(enc_.match(m, enc_.keyword_query("absent")));
}

TEST_F(FileMetadataTest, KeywordMatchOnPathComponents) {
  auto m = enc_.encrypt(sample_file(), rng_);
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("projects")));
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("notes")));
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("txt")));
}

TEST_F(FileMetadataTest, AttributeNamespacesAreIsolated) {
  // A content keyword must not be matchable via a size or ranked query
  // namespace and vice versa: "kw=" prefixing isolates attributes.
  auto m = enc_.encrypt(sample_file(), rng_);
  EXPECT_FALSE(enc_.match(m, enc_.keyword_query(">10000")));
}

TEST_F(FileMetadataTest, SizeInequality) {
  auto m = enc_.encrypt(sample_file(), rng_);  // 50 kB file
  EXPECT_TRUE(enc_.match(m, enc_.size_query(IneqType::kGreater, 10'000)));
  EXPECT_FALSE(enc_.match(m, enc_.size_query(IneqType::kGreater, 1'000'000)));
  EXPECT_TRUE(enc_.match(m, enc_.size_query(IneqType::kLess, 1'000'000)));
  EXPECT_FALSE(enc_.match(m, enc_.size_query(IneqType::kLess, 10'000)));
}

TEST_F(FileMetadataTest, MtimeRange) {
  auto m = enc_.encrypt(sample_file(), rng_);  // mtime 1.5e9
  EXPECT_TRUE(
      enc_.match(m, enc_.mtime_range_query(1'400'000'000, 1'600'000'000)));
  EXPECT_FALSE(
      enc_.match(m, enc_.mtime_range_query(1'000'000'000, 1'100'000'000)));
}

TEST_F(FileMetadataTest, RankedQueries) {
  auto m = enc_.encrypt(sample_file(), rng_);
  // "rendezvous" is the most important keyword.
  EXPECT_TRUE(enc_.match(m, enc_.ranked_keyword_query("rendezvous", 1)));
  EXPECT_FALSE(enc_.match(m, enc_.ranked_keyword_query("search", 1)));
  EXPECT_TRUE(enc_.match(m, enc_.ranked_keyword_query("search", 5)));
}

TEST_F(FileMetadataTest, MetadataSizeNearPaper) {
  auto m = enc_.encrypt(sample_file(), rng_);
  // Paper: ~500 B per combined metadata; ours carries more attributes
  // (ranked buckets + dyadic mtime partitions) → ≤ 800 B.
  EXPECT_LE(m.byte_size(), 800u);
  EXPECT_GE(m.byte_size(), 300u);
}

TEST_F(FileMetadataTest, WordDocumentWithinBloomCapacity) {
  auto words = enc_.words_for(sample_file());
  EXPECT_LE(words.size(), enc_.params().bloom.expected_words);
}

TEST_F(FileMetadataTest, FullKeywordLoadStaysWithinCapacity) {
  FileInfo f = sample_file();
  f.content_keywords.clear();
  for (int i = 0; i < 50; ++i) {
    f.content_keywords.push_back("kw" + std::to_string(i));
  }
  // Deep path too.
  f.path = "a";
  for (int i = 0; i < 21; ++i) f.path += "/d" + std::to_string(i);
  f.path += "/leaf.txt";
  auto words = enc_.words_for(f);
  EXPECT_LE(words.size(), enc_.params().bloom.expected_words)
      << "encoder capacity must cover the paper's max document";
  auto m = enc_.encrypt(f, rng_);
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("kw49")));
  EXPECT_TRUE(enc_.match(m, enc_.keyword_query("d20")));
}

TEST_F(FileMetadataTest, IdsAreUniformlyDistributed) {
  // Ring ids drive ROAR placement; a heavily skewed assignment would break
  // load balancing. Coarse uniformity check over 2000 files.
  Rng rng(99);
  int buckets[4] = {0, 0, 0, 0};
  for (int i = 0; i < 2000; ++i) {
    auto m = enc_.encrypt(sample_file(), rng);
    buckets[m.id.raw() >> 62]++;
  }
  for (int b : buckets) EXPECT_NEAR(b, 500, 120);
}

// The batched matcher (probe-major rounds over kBatch-item chunks, survivor
// compaction, multi-block AES) must give every verdict and the PRF count
// of item-by-item match(). Batch sizes straddle the AES group widths and
// the chunk size; the hardware path and the portable one
// (Aes128::set_force_scalar) are both checked, through the Bloom kernel
// and through MetadataEncoder's chunking.
TEST(MatchBatchTest, AgreesWithItemByItemMatch) {
  MetadataEncoder enc(SecretKey::from_seed(77),
                      MetadataEncoderParams::keyword_only());
  CorpusParams cp;
  cp.content_keywords_per_file = 2;
  cp.max_path_depth = 3;
  CorpusGenerator gen(cp, 5);
  Rng rng(5);
  const std::vector<EncryptedFileMetadata> docs =
      encrypt_corpus(enc, gen.generate(3000), rng);
  std::vector<const EncryptedFileMetadata*> files;
  std::vector<const BloomKeywordScheme::EncryptedMetadata*> filters;
  for (const auto& d : docs) {
    files.push_back(&d);
    filters.push_back(&d.enc);
  }
  // Around the AES-NI and VAES group widths (8 and 32 blocks), then
  // around the kBatch-item (1024) chunk.
  constexpr size_t kBatch = BloomKeywordScheme::kBatch;
  std::vector<size_t> sizes = {0, 1, 3, 7, 8, 9, 31, 32, 33, 127};
  sizes.insert(sizes.end(), {kBatch - 1, kBatch, kBatch + 1, 3000});
  const std::vector<std::string> words = {CorpusGenerator::word(1),
                                          CorpusGenerator::word(8), "absent"};
  for (bool portable : {false, true}) {
    Aes128::set_force_scalar(portable);
    for (const std::string& word : words) {
      const auto q = enc.prepare(enc.keyword_query(word));
      for (size_t n : sizes) {
        SCOPED_TRACE("portable=" + std::to_string(portable) + " word=" +
                     word + " n=" + std::to_string(n));
        std::vector<uint8_t> expect(n);
        MatchCost expect_cost;
        for (size_t i = 0; i < n; ++i) {
          expect[i] = enc.match(docs[i], q, &expect_cost) ? 1 : 0;
        }
        std::vector<uint8_t> got(n, 2);
        MatchCost got_cost;
        enc.backend().match_batch({filters.data(), n}, q, got.data(),
                                  &got_cost);
        EXPECT_EQ(got, expect);
        EXPECT_EQ(got_cost.prf_calls, expect_cost.prf_calls);
        std::vector<uint8_t> chunked(n, 2);
        MatchCost chunked_cost;
        enc.match_batch({files.data(), n}, q, chunked.data(), &chunked_cost);
        EXPECT_EQ(chunked, expect);
        EXPECT_EQ(chunked_cost.prf_calls, expect_cost.prf_calls);
        if (n == 3000 && word != "absent") {
          // Enough matches that some items run all r probes.
          EXPECT_GT(std::count(expect.begin(), expect.end(), 1), 30);
        }
      }
    }
  }
  Aes128::set_force_scalar(false);
}

}  // namespace
}  // namespace roar::pps
