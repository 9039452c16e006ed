#include "pps/store.h"

#include <gtest/gtest.h>

#include "pps/corpus.h"

namespace roar::pps {
namespace {

class StoreTest : public ::testing::Test {
 protected:
  SecretKey key_ = SecretKey::from_seed(555);
  MetadataEncoder enc_{key_};
  Rng rng_{666};

  std::vector<EncryptedFileMetadata> make_corpus(size_t n) {
    CorpusGenerator gen(CorpusParams{}, 123);
    auto files = gen.generate(n);
    return encrypt_corpus(enc_, files, rng_);
  }
};

TEST_F(StoreTest, LoadSortsById) {
  MetadataStore store(16);
  store.load(make_corpus(200));
  const auto& items = store.items();
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LE(items[i - 1].id.raw(), items[i].id.raw());
  }
}

TEST_F(StoreTest, SliceAllCoversEverything) {
  MetadataStore store(16);
  store.load(make_corpus(100));
  auto s = store.slice_all();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(store.bytes(s), store.total_bytes());
  EXPECT_EQ(s.extents.size(), 1u);
}

TEST_F(StoreTest, SliceMatchesBruteForce) {
  MetadataStore store(8);
  auto corpus = make_corpus(500);
  store.load(corpus);

  for (double start : {0.0, 0.1, 0.33, 0.7, 0.95}) {
    Arc arc(RingId::from_double(start), circle_fraction(5));
    auto s = store.slice(arc);
    size_t expected = 0;
    for (const auto& m : store.items()) {
      if (arc.contains(m.id)) ++expected;
    }
    EXPECT_EQ(s.count, expected) << "start=" << start;
    // Every index in the extents must be inside the arc.
    for (auto [first, last] : s.extents) {
      for (size_t i = first; i < last; ++i) {
        EXPECT_TRUE(arc.contains(store.items()[i].id));
      }
    }
  }
}

TEST_F(StoreTest, WrappingSliceHasTwoExtents) {
  MetadataStore store(8);
  store.load(make_corpus(300));
  Arc arc(RingId::from_double(0.9), circle_fraction(5));  // wraps past 0
  auto s = store.slice(arc);
  EXPECT_EQ(s.extents.size(), 2u);
}

TEST_F(StoreTest, EmptyArcSliceIsEmpty) {
  MetadataStore store(8);
  store.load(make_corpus(50));
  auto s = store.slice(Arc(RingId::from_double(0.5), 0));
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(s.extents.empty());
}

TEST_F(StoreTest, InsertMaintainsOrderAndIndex) {
  MetadataStore store(4);
  store.load(make_corpus(50));
  auto extra = make_corpus(10);
  for (auto& m : extra) store.insert(m);
  EXPECT_EQ(store.size(), 60u);
  const auto& items = store.items();
  for (size_t i = 1; i < items.size(); ++i) {
    EXPECT_LE(items[i - 1].id.raw(), items[i].id.raw());
  }
  // Slice still correct after inserts.
  Arc arc(RingId::from_double(0.25), circle_fraction(4));
  auto s = store.slice(arc);
  size_t expected = 0;
  for (const auto& m : items) {
    if (arc.contains(m.id)) ++expected;
  }
  EXPECT_EQ(s.count, expected);
}

TEST_F(StoreTest, EraseAndRetainRange) {
  auto corpus = make_corpus(400);
  MetadataStore store(16);
  store.load(corpus);
  Arc arc(RingId::from_double(0.5), circle_fraction(4));
  auto slice = store.slice(arc);
  size_t in_range = slice.count;

  MetadataStore store2(16);
  store2.load(corpus);

  EXPECT_EQ(store.erase_range(arc), in_range);
  EXPECT_EQ(store.size(), 400u - in_range);
  EXPECT_EQ(store.slice(arc).count, 0u);

  EXPECT_EQ(store2.retain_range(arc), 400u - in_range);
  EXPECT_EQ(store2.size(), in_range);
}

TEST_F(StoreTest, IoModelRegimes) {
  IoModel io;
  uint64_t mb = 1'000'000;
  double cold = io.read_seconds(SourceMode::kColdDisk, 66 * mb, 1);
  EXPECT_NEAR(cold, 1.0 + io.seek_s, 0.02);  // 66 MB at 66 MB/s + 1 seek
  double warm = io.read_seconds(SourceMode::kBufferCache, 700 * mb);
  EXPECT_NEAR(warm, 1.0, 0.02);
  EXPECT_DOUBLE_EQ(io.read_seconds(SourceMode::kMemory, 1 << 30), 0.0);
}

TEST_F(StoreTest, TotalBytesTracksItems) {
  MetadataStore store(16);
  auto corpus = make_corpus(20);
  uint64_t expected = 0;
  for (const auto& m : corpus) expected += m.byte_size();
  store.load(corpus);
  EXPECT_EQ(store.total_bytes(), expected);
}

}  // namespace
}  // namespace roar::pps
