// SHA-1 (FIPS 180-1), implemented from scratch.
//
// The thesis' PPS implementation (§5.6) uses SHA-1 as its pseudorandom
// function throughout; we match that choice so the per-metadata matching
// cost (the paper's "8 cycles/byte, ~2.5 SHA-1 applications per metadata")
// has the same shape. SHA-1 is cryptographically broken for collision
// resistance; it remains adequate here as a PRF building block for a
// faithful reproduction, and the Scheme interfaces are hash-agnostic.
//
// Dispatch: the compression function runs on the x86 SHA extensions
// (SHA-NI) when the CPU reports them at run time, and on a portable
// four-loop implementation otherwise. Both are byte-identical; the
// hardware one is compiled with a per-function target attribute, so the
// build needs no -msha. Sha1::set_force_scalar pins the portable path for
// equivalence tests.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace roar::pps {

using Sha1Digest = std::array<uint8_t, 20>;

class Sha1 {
 public:
  Sha1() { reset(); }

  void reset();
  void update(std::span<const uint8_t> data);
  void update(std::string_view s) {
    update(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(s.data()), s.size()));
  }
  // Finalizes and returns the digest. The object must be reset() before
  // reuse.
  Sha1Digest finish();

  static Sha1Digest hash(std::span<const uint8_t> data);
  static Sha1Digest hash(std::string_view s);

  // True when the SHA-NI compression is compiled in, supported by this
  // CPU, and not disabled by set_force_scalar.
  static bool accelerated();
  // Test hook (process-wide): force the portable compression so
  // equivalence tests can diff the two paths on the same machine.
  static void set_force_scalar(bool v);

 private:
  void process_block(const uint8_t* block);

  uint32_t h_[5];
  uint64_t total_len_ = 0;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
};

// HMAC-SHA1 (RFC 2104) with the key prepared once: holds the hash states
// after absorbing the ipad and opad blocks, so each mac() costs the
// message's compressions plus one for the outer hash (2 in all for a
// message under 56 bytes) instead of two more for re-absorbing the key.
// mac() works on copies of the midstates and never writes the object, so
// one prepared key may be shared by any number of threads.
class HmacSha1Key {
 public:
  explicit HmacSha1Key(std::span<const uint8_t> key);

  Sha1Digest mac(std::span<const uint8_t> msg) const;
  Sha1Digest mac(std::string_view msg) const {
    return mac(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(msg.data()), msg.size()));
  }

 private:
  Sha1 inner_;  // after H(key ^ ipad)
  Sha1 outer_;  // after H(key ^ opad)
};

// HMAC-SHA1 (RFC 2104): the keyed PRF used by every PPS scheme.
Sha1Digest hmac_sha1(std::span<const uint8_t> key, std::span<const uint8_t> msg);
Sha1Digest hmac_sha1(std::span<const uint8_t> key, std::string_view msg);

// First 8 bytes of HMAC-SHA1 as a little-endian integer; convenient for
// Bloom-filter positions and dictionary indexes.
uint64_t prf_u64(std::span<const uint8_t> key, std::string_view msg);

}  // namespace roar::pps
