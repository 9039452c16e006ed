// Contracts of the one AIMD window (core/cc.h), and relay pacing on a
// tree root whose downlink is dead.
//
// The window contract is checked under random ack/loss sequences: cwnd
// stays in [1, max], a loss leaves at most max(1, cwnd/2), clean credits
// never shrink the window, and allows(k) holds exactly when
// k < floor(cwnd). The cluster case checks what the law buys the control
// plane: a relay root that hears nothing costs at most one window of tree
// waves plus one repair snapshot per retransmit tick, however many p
// changes are published, and the branch reconverges once the link heals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cluster/relay.h"
#include "cluster/scenario.h"
#include "common/rng.h"
#include "core/cc.h"

namespace roar {
namespace {

TEST(AimdWindowTest, ContractHoldsUnderRandomAckLossSequences) {
  constexpr int kSteps = 10'000;
  for (double max : {1.0, 8.0, 64.0}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE("max=" + std::to_string(max) +
                   " seed=" + std::to_string(seed));
      Rng rng(seed * 7919 + static_cast<uint64_t>(max));
      // Loss rates from none to frequent, so both the ceiling and the
      // floor get exercised.
      double loss_p = 0.005 * static_cast<double>((seed - 1) * (seed - 1));
      core::AimdWindow w(1.0 + rng.next_double() * max, max);
      bool reached_max = false;
      for (int step = 0; step < kSteps; ++step) {
        double before = w.cwnd();
        if (rng.next_double() < loss_p) {
          w.on_loss();
          ASSERT_LE(w.cwnd(), std::max(1.0, before / 2))
              << "a loss must halve the window (step " << step << ")";
        } else {
          w.on_ack(static_cast<double>(rng.next_below(6)));
          ASSERT_GE(w.cwnd(), before)
              << "credits must never shrink the window (step " << step
              << ")";
        }
        ASSERT_GE(w.cwnd(), 1.0) << "step " << step;
        ASSERT_LE(w.cwnd(), max) << "step " << step;
        reached_max = reached_max || w.cwnd() == max;
        double floor_cwnd = std::floor(w.cwnd());
        for (size_t k = 0; k <= static_cast<size_t>(max) + 1; ++k) {
          ASSERT_EQ(w.allows(k), static_cast<double>(k) < floor_cwnd)
              << "k=" << k << " cwnd=" << w.cwnd() << " step " << step;
        }
      }
      if (seed == 1) {
        EXPECT_TRUE(reached_max) << "clean credits must fill the window";
      }
    }
  }
}

TEST(AimdWindowTest, OneWindowOfCreditsAddsOne) {
  core::AimdWindow w(4.0, 64.0);
  EXPECT_EQ(w.cwnd(), 4.0);
  w.on_ack(4.0);  // a full window's worth of credit
  EXPECT_DOUBLE_EQ(w.cwnd(), 5.0);
  w.on_ack(0.0);
  EXPECT_DOUBLE_EQ(w.cwnd(), 5.0);
  w.on_loss();
  EXPECT_DOUBLE_EQ(w.cwnd(), 2.5);
  EXPECT_TRUE(w.allows(1));
  EXPECT_FALSE(w.allows(2));

  // The initial value is clamped into [1, max].
  EXPECT_EQ(core::AimdWindow(0.0, 8.0).cwnd(), 1.0);
  EXPECT_EQ(core::AimdWindow(100.0, 8.0).cwnd(), 8.0);
  EXPECT_EQ(core::AimdWindow(4.0, 0.0).cwnd(), 1.0);
}

uint32_t live_nodes_at_epoch(cluster::EmulatedCluster& c, uint64_t epoch) {
  uint32_t n = 0;
  for (cluster::NodeId id : c.node_ids()) {
    if (c.node(id).alive() && c.node(id).view_epoch() == epoch) ++n;
  }
  return n;
}

TEST(RelayPacingTest, DeadRootDownlinkCostsOneWindowAndHeals) {
  cluster::ClusterConfig cfg;
  cfg.classes = {{"relay", 32, 1.0}};
  cfg.dataset_size = 100'000;
  cfg.p = 4;
  cfg.seed = 43;
  cfg.relay_fanout = 4;
  cfg.enable_faults = true;
  cluster::EmulatedCluster c(cfg);
  c.loop().run_until(c.now() + 1.0);
  ASSERT_EQ(live_nodes_at_epoch(c, c.control().epoch()), 32u);

  auto roots = c.control().relay_roots();
  auto it = std::find_if(roots.begin(), roots.end(),
                         [](const auto& r) { return r.second > 0; });
  ASSERT_NE(it, roots.end()) << "need a root with a subtree";
  net::Address root = it->first;

  // Every control-plane message to the root is lost; nothing else is.
  net::FaultSpec dead;
  dead.drop = 1.0;
  c.faults()->set_link_faults(cluster::kMembershipAddr, root, dead);
  uint64_t drops0 = c.faults()->counters().messages_dropped;
  uint64_t epoch0 = c.control().epoch();
  uint64_t commits0 = c.control().p_changes_committed();
  double t0 = c.now();
  for (uint32_t p = 5; p <= 20; ++p) {
    c.change_p(p);  // raises: gated only on front-end acks
    c.loop().run_until(c.now() + 0.05);
  }
  double elapsed = c.now() - t0;
  ASSERT_EQ(c.control().p_changes_committed() - commits0, 16u);
  uint64_t waves = c.control().epoch() - epoch0;
  uint64_t sends = c.faults()->counters().messages_dropped - drops0;

  // The root never acks, so its window admits the initial window's worth
  // of waves and defers the rest (one queued at a time). The retransmit
  // tick adds at most one repair snapshot each.
  double tick_s = cluster::ControlPlaneParams{}.retransmit_interval_s;
  uint64_t ticks = static_cast<uint64_t>(elapsed / tick_s) + 1;
  uint64_t bound = static_cast<uint64_t>(cluster::relay::kWindowInitial) +
                   ticks;
  ASSERT_GT(waves, bound) << "the sweep must publish more waves than the "
                             "bound, or the bound shows nothing";
  EXPECT_LE(sends, bound) << waves << " waves published";
  EXPECT_LT(c.control().acked_epoch(root), c.control().epoch());

  c.faults()->clear_link_faults(cluster::kMembershipAddr, root);
  c.loop().run_until(c.now() + 3.0);
  uint64_t epoch = c.control().epoch();
  EXPECT_EQ(live_nodes_at_epoch(c, epoch), 32u)
      << "every node must reach the control epoch after heal";
  EXPECT_EQ(c.control().acked_epoch(root), epoch);
  EXPECT_EQ(c.control().max_epoch_lag(), 0u);

  cluster::InvariantChecker chk(c, 13);
  chk.check("after root downlink heal");
  chk.check_view_converged("after root downlink heal");
  for (const auto& v : chk.violations()) {
    ADD_FAILURE() << v.context << ": " << v.detail;
  }
}

}  // namespace
}  // namespace roar
