// MatchEngine ciphertext pins and the shared-engine concurrency contract.
//
// The golden digests below were computed from the scalar SHA-1 / scalar
// AES key-schedule implementation and must never move: every PRF speed-up
// (hardware SHA-1, prepared HMAC keys, AESKEYGENASSIST) has to reproduce
// the corpus byte for byte, so the benchmark's expected match counts and
// every stored ciphertext stay what they were.
#include "cluster/match_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "pps/aes128.h"
#include "pps/corpus.h"
#include "pps/sha1.h"
#include "pps/versioned_store.h"

namespace roar::cluster {
namespace {

std::string hex(const pps::Sha1Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

void put_le64(pps::Sha1& h, uint64_t v) {
  uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(v >> (i * 8));
  h.update(std::span<const uint8_t>(b, 8));
}

void put_bits(pps::Sha1& h, const std::vector<uint64_t>& bits) {
  for (uint64_t w : bits) put_le64(h, w);
}

// Per item in store order: id as 8 LE bytes, the nonce, the filter words
// as LE u64s.
std::string store_digest(const pps::MetadataStore& store) {
  pps::Sha1 h;
  for (const auto& item : store.items()) {
    put_le64(h, item.id.raw());
    h.update(std::span<const uint8_t>(item.enc.rnd.data(),
                                      item.enc.rnd.size()));
    put_bits(h, item.enc.bits);
  }
  return hex(h.finish());
}

std::string bits_digest(const pps::EncryptedFileMetadata& m) {
  pps::Sha1 h;
  put_bits(h, m.enc.bits);
  return hex(h.finish());
}

MatchEngineConfig small_engine() {
  MatchEngineConfig cfg;
  cfg.corpus_items = 500;
  return cfg;
}

// Runs `body` once on the default dispatch and once with both PRF
// primitives forced onto their portable paths.
template <typename F>
void on_both_paths(F body) {
  body();
  pps::Sha1::set_force_scalar(true);
  pps::Aes128::set_force_scalar(true);
  body();
  pps::Sha1::set_force_scalar(false);
  pps::Aes128::set_force_scalar(false);
}

TEST(MatchEngineTest, GoldenCorpusDigest) {
  on_both_paths([] {
    MatchEngine engine(small_engine());
    ASSERT_EQ(engine.store_size(), 500u);
    EXPECT_EQ(store_digest(*engine.base_store()),
              "a5487be9ed785c7c0be8942b91e4b65ac600a797");
    EXPECT_EQ(engine.full_store_matches(), 26u);
  });
}

TEST(MatchEngineTest, GoldenDocumentDigest) {
  MatchEngine engine(small_engine());
  on_both_paths([&] {
    auto m = engine.encrypt_document(
        pps::CorpusGenerator::sample_document(12345), RingId(77), 9);
    EXPECT_EQ(m.id, RingId(77));
    EXPECT_EQ(bits_digest(m), "d8f67c94dfd0582ba32bdd213ab227954eab2af0");
  });
}

// Every reactor shard's ingest path encrypts through the one shared
// engine; concurrent calls must produce exactly the serial bytes.
TEST(MatchEngineTest, ConcurrentEncryptDocumentMatchesSerial) {
  constexpr int kThreads = 4;
  constexpr uint64_t kDocs = 48;
  MatchEngine engine(small_engine());
  std::vector<std::vector<uint64_t>> serial(kDocs);
  for (uint64_t k = 0; k < kDocs; ++k) {
    serial[k] = engine
                    .encrypt_document(pps::CorpusGenerator::sample_document(k),
                                      RingId(k), k + 1)
                    .enc.bits;
  }
  std::vector<std::vector<std::vector<uint64_t>>> got(
      kThreads, std::vector<std::vector<uint64_t>>(kDocs));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the documents from a different start so the
      // same prepared keys are in use on several threads at once.
      for (uint64_t i = 0; i < kDocs; ++i) {
        uint64_t k = (i + static_cast<uint64_t>(t) * kDocs / kThreads) % kDocs;
        got[t][k] = engine
                        .encrypt_document(
                            pps::CorpusGenerator::sample_document(k),
                            RingId(k), k + 1)
                        .enc.bits;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], serial) << "thread " << t;
  }
}


// The overlay scan walks each sorted extent and the sorted tombstones in
// step. Its counts must equal a reference that filters every stored item
// with is_dead and matches it on its own, with tombstones on extent ends,
// in an arc that wraps past zero, on delta documents, and on ids that
// were never stored (a delete that raced ahead of its add).
TEST(MatchEngineTest, OverlayScanSkipsTombstonesLikeIsDead) {
  const MatchEngineConfig cfg = small_engine();
  MatchEngine engine(cfg);
  pps::MetadataEncoder enc(pps::SecretKey::from_seed(cfg.encoder_seed),
                           pps::MetadataEncoderParams::keyword_only());
  const auto query = enc.prepare(
      enc.keyword_query(pps::CorpusGenerator::word(cfg.query_word_rank)));
  const auto& base = engine.base_store()->items();
  ASSERT_EQ(base.size(), 500u);

  pps::VersionedStore store(engine.base_store());
  Rng rng(3);
  std::vector<RingId> added;
  for (uint64_t k = 0; k < 40; ++k) {
    added.push_back(rng.next_ring_id());
    store.add(engine.encrypt_document(
        pps::CorpusGenerator::sample_document(k), added.back(), k + 1));
  }
  auto after = [](RingId id) { return RingId(id.raw() + 1); };
  // Ends of the straight window's extent, ends of both extents of the
  // wrapping window, one inside each, a delta document, and three ids no
  // store holds.
  for (size_t i : {100, 150, 199, 480, 490, 499, 0, 19}) {
    store.remove(base[i].id);
  }
  store.remove(added[7]);
  store.remove(after(base[120].id));
  store.remove(after(base[495].id));
  store.remove(after(base[300].id));

  MatchEngine::Window straight;
  straight.arc = Arc(base[100].id, base[100].id.distance_to(base[200].id));
  MatchEngine::Window wrapping;
  wrapping.arc = Arc(base[480].id, base[480].id.distance_to(base[20].id));
  MatchEngine::Window whole;
  whole.whole = true;

  auto snap = store.snapshot();
  // Also counts the stored items the window covers, dead or alive.
  uint64_t stored = 0;
  auto reference = [&](const MatchEngine::Window& w) {
    MatchEngine::Result r;
    stored = 0;
    for (const auto* segment : {snap->base.get(), snap->delta.get()}) {
      for (const auto& item : segment->items()) {
        if (!w.whole && !w.arc.contains(item.id)) continue;
        ++stored;
        if (snap->is_dead(item.id)) continue;
        ++r.scanned;
        r.matches += enc.match(item, query) ? 1 : 0;
      }
    }
    return r;
  };
  uint64_t matches = 0;
  for (const auto* w : {&straight, &wrapping, &whole}) {
    const MatchEngine::Result want = reference(*w);
    const MatchEngine::Result got = engine.execute(*w, *snap);
    EXPECT_EQ(got.scanned, want.scanned);
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_LE(want.scanned + 3, stored) << "tombstones in the window";
    matches += got.matches;
  }
  EXPECT_EQ(reference(whole).scanned, snap->live_size());
  EXPECT_GT(matches, 0u);
}

}  // namespace
}  // namespace roar::cluster
