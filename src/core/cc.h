// The one AIMD congestion window. It paces ingest replication (one per
// destination node) and view dissemination down the relay tree (control
// plane roots, node relay children); each caller maps its own events onto
// credits and losses. cwnd stays in [1, max]; allows(k) holds exactly when
// k < floor(cwnd); on_ack(credits) adds credits / cwnd, capped at max;
// on_loss() halves, never below 1. tests/cc_test.cc checks these bounds.
#pragma once

#include <algorithm>
#include <cstddef>

namespace roar::core {

class AimdWindow {
 public:
  AimdWindow(double initial, double max)
      : max_(std::max(1.0, max)), cwnd_(std::clamp(initial, 1.0, max_)) {}

  double cwnd() const { return cwnd_; }
  bool allows(size_t in_flight) const {
    return in_flight < static_cast<size_t>(cwnd_);
  }
  void on_ack(double credits) {
    cwnd_ = std::min(max_, cwnd_ + credits / cwnd_);
  }
  void on_loss() { cwnd_ = std::max(1.0, cwnd_ / 2); }

 private:
  double max_;
  double cwnd_;
};

}  // namespace roar::core
