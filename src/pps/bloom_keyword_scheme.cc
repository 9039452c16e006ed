#include "pps/bloom_keyword_scheme.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>

namespace roar::pps {

double BloomParams::false_positive_rate() const {
  // (1 - e^{-kn/m})^k with n = expected_words, m = filter_bits, k = r.
  double m = filter_bits();
  double n = expected_words;
  double k = hash_count;
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

BloomKeywordScheme::BloomKeywordScheme(const SecretKey& key,
                                       BloomParams params)
    : params_(params) {
  keys_.reserve(params_.hash_count);
  for (uint32_t i = 0; i < params_.hash_count; ++i) {
    keys_.emplace_back(as_span(key.derive("bloom:" + std::to_string(i))));
  }
}

BloomKeywordScheme::Trapdoor BloomKeywordScheme::encrypt_query(
    std::string_view word) const {
  Trapdoor t;
  t.parts.reserve(keys_.size());
  for (const auto& k : keys_) {
    t.parts.push_back(k.mac(word));
  }
  return t;
}

namespace {

AesKey key_from_part(const Sha1Digest& x) {
  AesKey k;
  std::memcpy(k.data(), x.data(), k.size());
  return k;
}

// The per-document PRF input: document nonce, probe index, zero padding.
AesBlock codeword_block(const Nonce& rnd, uint32_t i) {
  AesBlock blk{};
  std::memcpy(blk.data(), rnd.data(), rnd.size());
  for (int b = 0; b < 4; ++b) {
    blk[8 + b] = static_cast<uint8_t>(i >> (b * 8));
  }
  return blk;
}

// The first four bytes, big-endian: one load and a byte swap.
uint32_t block_to_u32(const AesBlock& y) {
  uint32_t v = 0;
  std::memcpy(&v, y.data(), sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace

BloomKeywordScheme::PreparedTrapdoor BloomKeywordScheme::prepare(
    const Trapdoor& q) const {
  PreparedTrapdoor p;
  p.ciphers.reserve(q.parts.size());
  for (const auto& part : q.parts) {
    p.ciphers.emplace_back(key_from_part(part));
  }
  return p;
}

uint32_t BloomKeywordScheme::codeword_position(const Nonce& rnd,
                                               const Aes128& cipher,
                                               uint32_t i) const {
  // y_i = AES_{x_i}(rnd ‖ i); the bit position is y_i reduced mod the
  // filter size. The probe index is mixed into the block so identical
  // trapdoor parts (which cannot happen for distinct sub-keys, but cheap
  // insurance) separate.
  AesBlock y = cipher.encrypt_block(codeword_block(rnd, i));
  return block_to_u32(y) % params_.filter_bits();
}

void BloomKeywordScheme::set_word(EncryptedMetadata& m,
                                  const Trapdoor& t) const {
  for (uint32_t i = 0; i < t.parts.size(); ++i) {
    Aes128 cipher(key_from_part(t.parts[i]));
    uint32_t pos = codeword_position(m.rnd, cipher, i);
    m.bits[pos / 64] |= (1ull << (pos % 64));
  }
}

BloomKeywordScheme::EncryptedMetadata BloomKeywordScheme::encrypt_metadata(
    std::span<const std::string> words, Rng& rng) const {
  EncryptedMetadata m;
  m.rnd = make_nonce(rng);
  m.bits.assign((params_.filter_bits() + 63) / 64, 0);
  m.word_count = static_cast<uint32_t>(words.size());
  for (const auto& w : words) {
    set_word(m, encrypt_query(w));
  }
  // Pad: set random bits as if `expected_words` words were present, so the
  // popcount does not reveal the document's true word count.
  if (words.size() < params_.expected_words) {
    uint64_t missing =
        (params_.expected_words - words.size()) * params_.hash_count;
    for (uint64_t i = 0; i < missing; ++i) {
      uint64_t pos = rng.next_below(params_.filter_bits());
      m.bits[pos / 64] |= (1ull << (pos % 64));
    }
  }
  return m;
}

bool BloomKeywordScheme::match(const EncryptedMetadata& m, const Trapdoor& q,
                               MatchCost* cost) const {
  return match(m, prepare(q), cost);
}

bool BloomKeywordScheme::match(const EncryptedMetadata& m,
                               const PreparedTrapdoor& q,
                               MatchCost* cost) const {
  for (uint32_t i = 0; i < q.ciphers.size(); ++i) {
    if (cost != nullptr) cost->bump();
    uint32_t pos = codeword_position(m.rnd, q.ciphers[i], i);
    if ((m.bits[pos / 64] & (1ull << (pos % 64))) == 0) return false;
  }
  return true;
}

namespace {

// Exact n mod d for 32-bit n by a multiply-shift (Lemire, Kaser & Kurz,
// "Faster remainder by direct computation", 2019): with
// m = floor((2^64 - 1) / d) + 1, n mod d = ((m * n mod 2^64) * d) >> 64.
struct FastMod {
  explicit FastMod(uint32_t d) : d(d), m(~uint64_t{0} / d + 1) {}
  uint32_t operator()(uint32_t n) const {
    uint64_t low = m * n;
    return static_cast<uint32_t>(
        (static_cast<unsigned __int128>(low) * d) >> 64);
  }
  uint64_t d;
  uint64_t m;
};

// Bytes 8..15 of the codeword block for probe i (see codeword_block), as
// one word: the block is then two 8-byte stores.
uint64_t probe_word(uint32_t i) {
  AesBlock blk = codeword_block(Nonce{}, i);
  uint64_t w = 0;
  std::memcpy(&w, blk.data() + 8, sizeof(w));
  return w;
}

void put_block(AesBlock& blk, uint64_t rnd, uint64_t probe) {
  std::memcpy(blk.data(), &rnd, 8);
  std::memcpy(blk.data() + 8, &probe, 8);
}

// The items of one chunk still alive after the probes so far, as parallel
// arrays compacted in place each round: the item's index in the chunk,
// its nonce and filter words, and its codeword block for the next probe.
// Slot `kept` <= k is always written after slot k was read, so each
// round compacts without a second buffer.
struct Survivors {
  uint32_t item[BloomKeywordScheme::kBatch];
  uint64_t rnd[BloomKeywordScheme::kBatch];
  const uint64_t* words[BloomKeywordScheme::kBatch];
  AesBlock blocks[BloomKeywordScheme::kBatch];
};

// Tests the encrypted blocks [0, live) against their filters and keeps
// the passing items, each with its block for the next probe; returns how
// many were kept. No branch depends on a verdict.
size_t test_and_compact(Survivors& s, size_t live, const FastMod& mod,
                        uint64_t next_probe) {
  size_t kept = 0;
  for (size_t k = 0; k < live; ++k) {
    const uint32_t pos = mod(block_to_u32(s.blocks[k]));
    const uint64_t* words = s.words[k];
    const uint64_t rnd = s.rnd[k];
    s.item[kept] = s.item[k];
    s.rnd[kept] = rnd;
    s.words[kept] = words;
    put_block(s.blocks[kept], rnd, next_probe);
    kept += (words[pos >> 6] >> (pos & 63)) & 1;
  }
  return kept;
}

}  // namespace

void BloomKeywordScheme::match_batch(
    std::span<const EncryptedMetadata* const> items, const PreparedTrapdoor& q,
    uint8_t* results, MatchCost* cost) const {
  static_assert(sizeof(Nonce) == sizeof(uint64_t));
  std::fill(results, results + items.size(), uint8_t{0});
  const FastMod mod(params_.filter_bits());
  const auto rounds = static_cast<uint32_t>(q.ciphers.size());
  // Survivor compaction: probe i is computed only for items every earlier
  // probe passed — the exact work the sequential early exit does, but
  // each probe round is one multi-block AES call over the survivors. The
  // survivors live on the stack, one chunk at a time, so a batch
  // allocates nothing and later rounds never chase the item pointers.
  Survivors s;
  for (size_t off = 0; off < items.size(); off += kBatch) {
    const size_t n = std::min(kBatch, items.size() - off);
    const uint64_t probe = probe_word(0);
    for (size_t k = 0; k < n; ++k) {
      const EncryptedMetadata& m = *items[off + k];
      s.item[k] = static_cast<uint32_t>(k);
      std::memcpy(&s.rnd[k], m.rnd.data(), sizeof(uint64_t));
      s.words[k] = m.bits.data();
      put_block(s.blocks[k], s.rnd[k], probe);
    }
    size_t live = n;
    for (uint32_t i = 0; i < rounds && live > 0; ++i) {
      if (cost != nullptr) cost->bump(live);
      q.ciphers[i].encrypt_blocks(s.blocks, s.blocks, live);
      live = test_and_compact(s, live, mod, probe_word(i + 1));
    }
    // Whoever passed every probe matches.
    for (size_t k = 0; k < live; ++k) results[off + s.item[k]] = 1;
  }
}

bool BloomKeywordScheme::cover(const Trapdoor& a, const Trapdoor& b) {
  return a.parts == b.parts;
}

}  // namespace roar::pps
