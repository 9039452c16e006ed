#include "pps/sha1.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace roar::pps {
namespace {

std::string hex(const Sha1Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

// Known-answer cases run once per compression path: the portable one
// (forced with Sha1::set_force_scalar) and SHA-NI, skipped on CPUs
// without it.
enum class Path { kPortable, kHardware };

class Sha1PathTest : public ::testing::TestWithParam<Path> {
 protected:
  void SetUp() override {
    Sha1::set_force_scalar(GetParam() == Path::kPortable);
    if (GetParam() == Path::kHardware && !Sha1::accelerated()) {
      GTEST_SKIP() << "no SHA-NI on this machine; portable path only";
    }
  }
  void TearDown() override { Sha1::set_force_scalar(false); }
};

INSTANTIATE_TEST_SUITE_P(Paths, Sha1PathTest,
                         ::testing::Values(Path::kPortable, Path::kHardware),
                         [](const auto& info) {
                           return info.param == Path::kPortable
                                      ? std::string("Portable")
                                      : std::string("Hardware");
                         });

// FIPS 180-1 / RFC 3174 known-answer tests.
TEST_P(Sha1PathTest, EmptyString) {
  EXPECT_EQ(hex(Sha1::hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST_P(Sha1PathTest, Abc) {
  EXPECT_EQ(hex(Sha1::hash("abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST_P(Sha1PathTest, TwoBlockMessage) {
  EXPECT_EQ(
      hex(Sha1::hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST_P(Sha1PathTest, MillionAs) {
  Sha1 s;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) s.update(chunk);
  EXPECT_EQ(hex(s.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// 'a' x n around the padding edges: 55 is the longest tail whose length
// field fits its own block, 56..63 spill the length into an extra block,
// 64 pads a whole new block. Digests from python3 hashlib.
TEST_P(Sha1PathTest, PaddingEdges) {
  const std::pair<size_t, const char*> cases[] = {
      {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
      {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
      {57, "f08f24908d682555111be7ff6f004e78283d989a"},
      {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
      {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {65, "11655326c708d70319be2610e8a57d9a5b959d3b"},
      {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"},
      {120, "f34c1488385346a55709ba056ddd08280dd4c6d6"},
  };
  for (const auto& [n, expect] : cases) {
    EXPECT_EQ(hex(Sha1::hash(std::string(n, 'a'))), expect) << "n=" << n;
  }
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= msg.size(); split += 7) {
    Sha1 s;
    s.update(std::string_view(msg).substr(0, split));
    s.update(std::string_view(msg).substr(split));
    EXPECT_EQ(hex(s.finish()), hex(Sha1::hash(msg))) << "split=" << split;
  }
}

TEST(Sha1Test, ExactBlockBoundary) {
  std::string msg(64, 'x');
  Sha1 a;
  a.update(msg);
  std::string msg2(128, 'x');
  Sha1 b;
  b.update(msg2);
  EXPECT_NE(hex(a.finish()), hex(b.finish()));
}

TEST(Sha1Test, HardwareAndPortablePathsAgree) {
  if (!Sha1::accelerated()) {
    GTEST_SKIP() << "no SHA-NI on this machine; portable path is the only one";
  }
  std::string msg;
  std::vector<std::string> hw;
  for (size_t n = 0; n <= 300; ++n) {
    hw.push_back(hex(Sha1::hash(msg)));
    msg.push_back(static_cast<char>(n * 31 + 5));
  }
  Sha1::set_force_scalar(true);
  ASSERT_FALSE(Sha1::accelerated());
  msg.clear();
  for (size_t n = 0; n <= 300; ++n) {
    EXPECT_EQ(hex(Sha1::hash(msg)), hw[n]) << "n=" << n;
    msg.push_back(static_cast<char>(n * 31 + 5));
  }
  Sha1::set_force_scalar(false);
}

// RFC 2202 HMAC-SHA1 test vectors.
TEST_P(Sha1PathTest, HmacRfc2202Case1) {
  std::vector<uint8_t> key(20, 0x0b);
  EXPECT_EQ(hex(hmac_sha1(std::span<const uint8_t>(key), "Hi There")),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST_P(Sha1PathTest, HmacRfc2202Case2) {
  std::string key = "Jefe";
  EXPECT_EQ(hex(hmac_sha1(std::span<const uint8_t>(
                              reinterpret_cast<const uint8_t*>(key.data()),
                              key.size()),
                          "what do ya want for nothing?")),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST_P(Sha1PathTest, HmacRfc2202Case3) {
  std::vector<uint8_t> key(20, 0xaa);
  std::vector<uint8_t> msg(50, 0xdd);
  EXPECT_EQ(hex(hmac_sha1(std::span<const uint8_t>(key),
                          std::span<const uint8_t>(msg))),
            "125d7342b9ac11cd91a39af48aa17b4f63f175d3");
}

TEST_P(Sha1PathTest, HmacLongKeyIsHashed) {
  std::vector<uint8_t> key(80, 0xaa);
  // RFC 2202 case 6.
  EXPECT_EQ(hex(hmac_sha1(std::span<const uint8_t>(key),
                          "Test Using Larger Than Block-Size Key - Hash Key "
                          "First")),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

// RFC 2104 spelled out with the streaming hash, independent of the
// prepared-midstate code.
Sha1Digest reference_hmac(std::span<const uint8_t> key,
                          std::span<const uint8_t> msg) {
  std::vector<uint8_t> k(key.begin(), key.end());
  if (k.size() > 64) {
    Sha1Digest kd = Sha1::hash(key);
    k.assign(kd.begin(), kd.end());
  }
  k.resize(64, 0);
  std::vector<uint8_t> ipad(64), opad(64);
  for (size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<uint8_t>(k[i] ^ 0x5C);
  }
  Sha1 inner;
  inner.update(ipad);
  inner.update(msg);
  Sha1Digest d = inner.finish();
  Sha1 outer;
  outer.update(opad);
  outer.update(d);
  return outer.finish();
}

// One prepared key serves every message length: mac() must leave the
// midstates untouched, whatever each length's padding does.
TEST_P(Sha1PathTest, PreparedKeyMatchesHmac) {
  for (size_t key_len : {0, 20, 64, 65, 80}) {
    std::vector<uint8_t> key(key_len);
    for (size_t i = 0; i < key_len; ++i) {
      key[i] = static_cast<uint8_t>(i * 7 + 1);
    }
    HmacSha1Key prepared(key);
    for (size_t msg_len = 0; msg_len <= 130; ++msg_len) {
      std::vector<uint8_t> msg(msg_len);
      for (size_t i = 0; i < msg_len; ++i) {
        msg[i] = static_cast<uint8_t>(i * 13 + key_len);
      }
      Sha1Digest expect = reference_hmac(key, msg);
      EXPECT_EQ(prepared.mac(msg), expect)
          << "key_len=" << key_len << " msg_len=" << msg_len;
      EXPECT_EQ(hmac_sha1(key, msg), expect)
          << "key_len=" << key_len << " msg_len=" << msg_len;
    }
  }
}

TEST(PrfU64Test, DeterministicAndKeyed) {
  std::vector<uint8_t> k1(16, 1), k2(16, 2);
  EXPECT_EQ(prf_u64(std::span<const uint8_t>(k1), "msg"),
            prf_u64(std::span<const uint8_t>(k1), "msg"));
  EXPECT_NE(prf_u64(std::span<const uint8_t>(k1), "msg"),
            prf_u64(std::span<const uint8_t>(k2), "msg"));
  EXPECT_NE(prf_u64(std::span<const uint8_t>(k1), "msg"),
            prf_u64(std::span<const uint8_t>(k1), "msh"));
}

}  // namespace
}  // namespace roar::pps
