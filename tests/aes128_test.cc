#include "pps/aes128.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace roar::pps {
namespace {

AesKey key_from(std::initializer_list<uint8_t> bytes) {
  AesKey k{};
  std::copy(bytes.begin(), bytes.end(), k.begin());
  return k;
}

// FIPS 197 Appendix B known-answer test.
TEST(Aes128Test, Fips197Vector) {
  AesKey key = key_from({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c});
  AesBlock pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  AesBlock expect = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                     0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  Aes128 aes(key);
  EXPECT_EQ(aes.encrypt_block(pt), expect);
}

// NIST SP 800-38A ECB-AES128 vector.
TEST(Aes128Test, Sp80038aVector) {
  AesKey key = key_from({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                         0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c});
  AesBlock pt = {0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96,
                 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93, 0x17, 0x2a};
  AesBlock expect = {0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60,
                     0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66, 0xef, 0x97};
  Aes128 aes(key);
  EXPECT_EQ(aes.encrypt_block(pt), expect);
}

TEST(Aes128Test, DecryptInvertsEncrypt) {
  Aes128 aes(key_from({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}));
  AesBlock pt{};
  for (int trial = 0; trial < 32; ++trial) {
    for (auto& b : pt) b = static_cast<uint8_t>(b * 31 + trial + 7);
    EXPECT_EQ(aes.decrypt_block(aes.encrypt_block(pt)), pt);
  }
}

TEST(Aes128Test, PermuteU64IsBijective) {
  Aes128 aes(key_from({9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}));
  std::set<uint64_t> seen;
  for (uint64_t v = 0; v < 2000; ++v) {
    uint64_t e = aes.permute_u64(v);
    EXPECT_TRUE(seen.insert(e).second) << "collision at " << v;
    EXPECT_EQ(aes.inverse_permute_u64(e), v);
  }
}

TEST(Aes128Test, PermuteBelowStaysInDomainAndBijective) {
  Aes128 aes(key_from({3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}));
  for (uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000ull, 32768ull}) {
    std::set<uint64_t> seen;
    for (uint64_t v = 0; v < bound; ++v) {
      uint64_t e = aes.permute_below(v, bound);
      ASSERT_LT(e, bound) << "bound=" << bound;
      ASSERT_TRUE(seen.insert(e).second)
          << "collision at v=" << v << " bound=" << bound;
    }
    EXPECT_EQ(seen.size(), bound);
  }
}

TEST(Aes128Test, CtrRoundTripsAndDiffersByNonce) {
  Aes128 aes(key_from({7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}));
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  auto orig = data;

  aes.ctr_xor(std::span<uint8_t>(data), 42);
  EXPECT_NE(data, orig);
  aes.ctr_xor(std::span<uint8_t>(data), 42);
  EXPECT_EQ(data, orig);

  auto a = orig;
  auto b = orig;
  aes.ctr_xor(std::span<uint8_t>(a), 1);
  aes.ctr_xor(std::span<uint8_t>(b), 2);
  EXPECT_NE(a, b);
}

TEST(Aes128Test, DifferentKeysDifferentCiphertexts) {
  Aes128 a(key_from({1}));
  Aes128 b(key_from({2}));
  AesBlock pt{};
  EXPECT_NE(a.encrypt_block(pt), b.encrypt_block(pt));
}

TEST(Aes128Test, EncryptBlocksMatchesSingleBlockAllSizes) {
  Aes128 aes(key_from({0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                       10, 11, 12}));
  // Exercise each kernel's main loop, its tail, and both combined: sizes
  // around the AES-NI group (8 blocks), the VAES register (4 blocks) and
  // the VAES group (8 registers, 32 blocks). encrypt_block always takes
  // the single-block AES-NI path, so on a VAES machine this compares the
  // two hardware kernels.
  std::vector<size_t> sizes = {1, 3, 4, 5, 7, 8, 9, 12, 16, 23};
  sizes.insert(sizes.end(), {31, 32, 33, 35, 64, 129});
  for (size_t n : sizes) {
    std::vector<AesBlock> in(n), out(n), expect(n);
    uint8_t x = 1;
    for (auto& blk : in) {
      for (auto& b : blk) b = x = static_cast<uint8_t>(x * 37 + 11);
    }
    for (size_t i = 0; i < n; ++i) expect[i] = aes.encrypt_block(in[i]);
    aes.encrypt_blocks(in.data(), out.data(), n);
    EXPECT_EQ(out, expect) << "n=" << n;
    // In-place form.
    std::vector<AesBlock> inplace = in;
    aes.encrypt_blocks(inplace.data(), inplace.data(), n);
    EXPECT_EQ(inplace, expect) << "in-place n=" << n;
  }
}

// The AES-NI kernel directly: encrypt_blocks takes it only on hosts
// without VAES, so on a VAES host nothing else runs its 8-block main loop
// or its 2-7-block tail groups. Sizes 1-64 cover every tail after zero to
// seven main-loop groups.
TEST(Aes128Test, AesNiKernelMatchesSingleBlockAllSizes) {
  if (!Aes128::accelerated()) {
    GTEST_SKIP() << "no AES-NI on this machine";
  }
  Aes128 aes(key_from({0x0f, 0x1e, 0x2d, 0x3c, 0x4b, 0x5a, 0x69, 0x78, 0x87,
                       0x96, 0xa5, 0xb4, 0xc3, 0xd2, 0xe1, 0xf0}));
  for (size_t n = 1; n <= 64; ++n) {
    std::vector<AesBlock> in(n), out(n), expect(n);
    uint8_t x = static_cast<uint8_t>(n);
    for (auto& blk : in) {
      for (auto& b : blk) b = x = static_cast<uint8_t>(x * 29 + 7);
    }
    for (size_t i = 0; i < n; ++i) expect[i] = aes.encrypt_block(in[i]);
    detail::encrypt_blocks_aesni(aes, in.data(), out.data(), n);
    EXPECT_EQ(out, expect) << "n=" << n;
    std::vector<AesBlock> inplace = in;
    detail::encrypt_blocks_aesni(aes, inplace.data(), inplace.data(), n);
    EXPECT_EQ(inplace, expect) << "in-place n=" << n;
  }
}

TEST(Aes128Test, HardwareAndScalarPathsAgree) {
  if (!Aes128::accelerated()) {
    GTEST_SKIP() << "no AES-NI on this machine; scalar path is the only one";
  }
  Aes128 aes(key_from({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                       0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}));
  std::vector<AesBlock> in(19);
  uint8_t x = 5;
  for (auto& blk : in) {
    for (auto& b : blk) b = x = static_cast<uint8_t>(x * 13 + 3);
  }
  std::vector<AesBlock> hw(in.size()), scalar(in.size());
  aes.encrypt_blocks(in.data(), hw.data(), in.size());
  Aes128::set_force_scalar(true);
  ASSERT_FALSE(Aes128::accelerated());
  aes.encrypt_blocks(in.data(), scalar.data(), in.size());
  Aes128::set_force_scalar(false);
  EXPECT_EQ(hw, scalar) << "AES-NI and portable paths must be byte-identical";
}

// The constructor expands the key with AESKEYGENASSIST on the hardware
// path and with the S-box loop on the portable one. Both schedules are
// used through the same cipher path, so only the expansion is compared.
TEST(Aes128Test, KeyScheduleHardwareAndScalarAgree) {
  if (!Aes128::accelerated()) {
    GTEST_SKIP() << "no AES-NI on this machine; scalar path is the only one";
  }
  std::vector<AesKey> keys = {
      key_from({0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7,
                0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}),
      AesKey{}, key_from({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                          0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})};
  Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    AesKey k;
    for (auto& b : k) b = static_cast<uint8_t>(rng.next_u64());
    keys.push_back(k);
  }
  AesBlock pt = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  for (const AesKey& key : keys) {
    Aes128::set_force_scalar(true);
    Aes128 scalar_schedule(key);
    Aes128::set_force_scalar(false);
    Aes128 hw_schedule(key);
    ASSERT_TRUE(Aes128::accelerated());
    AesBlock ct = scalar_schedule.encrypt_block(pt);
    EXPECT_EQ(hw_schedule.encrypt_block(pt), ct);
    // decrypt_block is portable only and walks the schedule backwards.
    EXPECT_EQ(hw_schedule.decrypt_block(ct), pt);
  }
  // FIPS 197 Appendix B through the hardware-expanded schedule.
  Aes128 fips(keys[0]);
  AesBlock expect = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                     0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  EXPECT_EQ(fips.encrypt_block(pt), expect);
}

}  // namespace
}  // namespace roar::pps
