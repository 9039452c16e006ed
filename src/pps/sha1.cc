#include "pps/sha1.h"

#include <atomic>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#define ROAR_SHA_X86 1
#include <immintrin.h>
#endif

namespace roar::pps {
namespace {

std::atomic<bool> g_force_scalar{false};

constexpr uint32_t rotl32(uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

// Portable compression: the message schedule, then one loop per 20-round
// stage so each loop body has a fixed round function and constant.
void compress_portable(uint32_t h[5], const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  auto round = [&](uint32_t f, uint32_t k, uint32_t wi) {
    uint32_t tmp = rotl32(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = tmp;
  };
  int i = 0;
  for (; i < 20; ++i) round((b & c) | (~b & d), 0x5A827999u, w[i]);
  for (; i < 40; ++i) round(b ^ c ^ d, 0x6ED9EBA1u, w[i]);
  for (; i < 60; ++i) round((b & c) | (b & d) | (c & d), 0x8F1BBCDCu, w[i]);
  for (; i < 80; ++i) round(b ^ c ^ d, 0xCA62C1D6u, w[i]);
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

#ifdef ROAR_SHA_X86
// Hardware path. Compiled with per-function target attributes so the rest
// of the build needs no -msha; only reachable after the runtime CPUID
// check in Sha1::accelerated().

// Rounds 4G..4G+3. w[j] holds the message words of the last group
// congruent to j mod 4; from G = 4 on, w[G % 4] (group G-4) is replaced
// by group G's words from the schedule over groups G-4..G-1. e_prev is
// the abcd entering the previous group, whose a, rotated, becomes this
// group's e.
template <int G>
__attribute__((target("sha,sse4.1"), always_inline)) inline void rounds4_ni(
    __m128i w[4], __m128i& abcd, __m128i& e, __m128i& e_prev) {
  constexpr int i = G % 4;
  if constexpr (G >= 4) {
    w[i] = _mm_sha1msg2_epu32(
        _mm_xor_si128(_mm_sha1msg1_epu32(w[i], w[(G + 1) % 4]),
                      w[(G + 2) % 4]),
        w[(G + 3) % 4]);
  }
  if constexpr (G == 0) {
    e = _mm_add_epi32(e, w[0]);
  } else {
    e = _mm_sha1nexte_epu32(e_prev, w[i]);
  }
  e_prev = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e, G / 5);
}

template <int... G>
__attribute__((target("sha,sse4.1"))) void compress_ni(
    uint32_t h[5], const uint8_t* block, std::integer_sequence<int, G...>) {
  // SHA-1 words are big-endian; the lane order puts word 0 on top.
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1B);
  __m128i e = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  const __m128i abcd_in = abcd;
  const __m128i e_in = e;
  __m128i w[4];
  for (int j = 0; j < 4; ++j) {
    w[j] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * j)),
        bswap);
  }
  __m128i e_prev = abcd;
  (rounds4_ni<G>(w, abcd, e, e_prev), ...);
  e = _mm_sha1nexte_epu32(e_prev, e_in);
  abcd = _mm_add_epi32(abcd, abcd_in);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h),
                   _mm_shuffle_epi32(abcd, 0x1B));
  h[4] = static_cast<uint32_t>(_mm_extract_epi32(e, 3));
}

bool cpu_has_sha() {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}
#else
bool cpu_has_sha() { return false; }
#endif

}  // namespace

bool Sha1::accelerated() {
  static const bool has_hw = cpu_has_sha();
  return has_hw && !g_force_scalar.load(std::memory_order_relaxed);
}

void Sha1::set_force_scalar(bool v) {
  g_force_scalar.store(v, std::memory_order_relaxed);
}

void Sha1::reset() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
  total_len_ = 0;
  buf_len_ = 0;
}

void Sha1::process_block(const uint8_t* block) {
#ifdef ROAR_SHA_X86
  if (accelerated()) {
    compress_ni(h_, block, std::make_integer_sequence<int, 20>{});
    return;
  }
#endif
  compress_portable(h_, block);
}

void Sha1::update(std::span<const uint8_t> data) {
  if (data.empty()) return;
  total_len_ += data.size();
  size_t i = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), sizeof(buf_) - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    i = take;
    if (buf_len_ == sizeof(buf_)) {
      process_block(buf_);
      buf_len_ = 0;
    }
  }
  while (i + 64 <= data.size()) {
    process_block(data.data() + i);
    i += 64;
  }
  if (i < data.size()) {
    std::memcpy(buf_, data.data() + i, data.size() - i);
    buf_len_ = data.size() - i;
  }
}

Sha1Digest Sha1::finish() {
  // Padding: 0x80, zeros up to 56 mod 64, then the bit length big-endian.
  // buf_len_ < 64 here, so the 0x80 always fits; a tail past 55 bytes
  // spills the length into one extra block.
  uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, sizeof(buf_) - buf_len_);
    process_block(buf_);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - i * 8));
  }
  process_block(buf_);
  buf_len_ = 0;

  Sha1Digest out;
  for (int i = 0; i < 5; ++i) {
    out[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Sha1Digest Sha1::hash(std::span<const uint8_t> data) {
  Sha1 s;
  s.update(data);
  return s.finish();
}

Sha1Digest Sha1::hash(std::string_view sv) {
  Sha1 s;
  s.update(sv);
  return s.finish();
}

HmacSha1Key::HmacSha1Key(std::span<const uint8_t> key) {
  uint8_t k_block[64] = {0};
  if (key.size() > 64) {
    Sha1Digest kd = Sha1::hash(key);
    std::memcpy(k_block, kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(k_block, key.data(), key.size());
  }
  uint8_t pad[64];
  for (int i = 0; i < 64; ++i) pad[i] = static_cast<uint8_t>(k_block[i] ^ 0x36);
  inner_.update(std::span<const uint8_t>(pad, 64));
  for (int i = 0; i < 64; ++i) pad[i] = static_cast<uint8_t>(k_block[i] ^ 0x5C);
  outer_.update(std::span<const uint8_t>(pad, 64));
}

Sha1Digest HmacSha1Key::mac(std::span<const uint8_t> msg) const {
  Sha1 inner = inner_;
  inner.update(msg);
  Sha1Digest inner_d = inner.finish();
  Sha1 outer = outer_;
  outer.update(std::span<const uint8_t>(inner_d));
  return outer.finish();
}

Sha1Digest hmac_sha1(std::span<const uint8_t> key,
                     std::span<const uint8_t> msg) {
  return HmacSha1Key(key).mac(msg);
}

Sha1Digest hmac_sha1(std::span<const uint8_t> key, std::string_view msg) {
  return HmacSha1Key(key).mac(msg);
}

uint64_t prf_u64(std::span<const uint8_t> key, std::string_view msg) {
  Sha1Digest d = hmac_sha1(key, msg);
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | d[i];
  return v;
}

}  // namespace roar::pps
