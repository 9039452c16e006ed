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

#include "pps/aes128.h"
#include "pps/sha1.h"

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

}  // namespace
}  // namespace roar::cluster
