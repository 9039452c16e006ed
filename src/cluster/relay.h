// Deterministic k-ary dissemination tree and per-child pacing for view
// delta relaying (control plane roots, node-side interior relays).
//
// The tree is structural rather than stateful: a relay that receives a
// delta with relay_targets splits the list into up to `fanout` contiguous
// near-even chunks and forwards to each chunk's head, handing it the
// chunk's tail as that child's own targets. Every relay applies the same
// rule, so one sorted, epoch-rotated target list at the root determines
// the whole tree — no per-hop membership state, depth O(log_k N).
//
// Forwarding is paced per child by the one AIMD window (core/cc.h): each
// ack returns the waves it clears as credits, and a queued delta getting
// superseded (the bounded-buffer signal that the child is falling behind)
// counts as a loss. The buffer holds at most one deferred wave — a newer
// delta supersedes an older queued one, never queues behind it — so relay
// memory stays O(k) no matter how fast epochs are published.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/transport.h"

namespace roar::cluster::relay {

struct Branch {
  net::Address head = 0;
  std::vector<net::Address> rest;  // the head's own relay_targets
};

// Splits `targets` into up to `fanout` contiguous chunks (sizes differing
// by at most one); each chunk's first entry heads the branch.
std::vector<Branch> split(const std::vector<net::Address>& targets,
                          uint32_t fanout);

// Every relay hop starts each child's window here (core::AimdWindow).
inline constexpr double kWindowInitial = 8;
inline constexpr double kWindowMax = 64;

// Per-child send watermarks: waves in flight for the window's gate, and
// the child's latest aggregated watermark for upward ack aggregation.
struct Watermark {
  uint32_t in_flight = 0;
  uint64_t sent_epoch = 0;  // newest epoch pushed to this child
  uint64_t acked = 0;       // child's newest (aggregated) watermark
  uint32_t agg = 0;         // subscribers that watermark covers (0 = none)

  void on_sent(uint64_t epoch) {
    ++in_flight;
    sent_epoch = std::max(sent_epoch, epoch);
  }
  // Records the child's ack; returns the waves it cleared (the credits).
  uint32_t on_ack(uint64_t epoch, uint32_t agg_count) {
    acked = std::max(acked, epoch);
    agg = agg_count;
    uint32_t before = in_flight;
    if (acked >= sent_epoch) {
      in_flight = 0;  // everything outstanding is covered by this watermark
    } else if (in_flight > 0) {
      --in_flight;
    }
    return before - in_flight;
  }
};

}  // namespace roar::cluster::relay
