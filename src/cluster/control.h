// The ROAR control plane (§4.5, §4.8–§4.9): single writer of the
// epoch-versioned ClusterView, distributed to every node and front-end
// over the wire.
//
// The ControlPlane owns the §4.5 ReplicationController and publishes the
// membership server's state as ViewDelta waves. Dissemination is scoped
// and tree-shaped rather than broadcast:
//
//  * Interest scoping — nodes register the ring arcs their control logic
//    depends on (kViewInterest). A wave that changes no p level and
//    touches none of a node's arcs (nor the node itself, nor its §4.5
//    pending membership) skips that node entirely, so a single fetch
//    confirmation no longer costs O(members) messages. Front-ends keep
//    full interest and receive every epoch directly: the drop gate and
//    the convergence audit key off per-front-end watermarks.
//  * Tree dissemination — waves that do concern most nodes (level
//    changes, full snapshots, membership churn) go to the k roots of a
//    deterministic relay tree (target list sorted, rotated by the view
//    epoch at build time, rebuilt on membership change). Interior nodes
//    forward to their children and aggregate child ack watermarks upward,
//    so the per-epoch send and ack work here is O(k), not O(members).
//  * Delta compaction — the retained log folds into one compacted delta
//    per recipient spanning whatever range it is owed (per member the
//    latest change wins), so a laggard's kViewPull costs one message.
//    Retention adapts to the observed lag distribution.
//
// Subscribers ack each applied epoch (kViewAck, possibly aggregated) and
// pull on gaps (kViewPull); the periodic retransmission tick walks only
// the laggard set — subscribers whose watermark trails what they were
// directly sent — so a converged cluster pays O(1) per tick.
//
// Reconfiguration choreography over views:
//
//  * decrease p (r grows): pending confirmers ride in the view; each node
//    that finds itself pending starts its background download and reports
//    kFetchComplete. safe_p (and storage_p) flip only when the last
//    confirmation lands — until then every published view keeps the old
//    safe level, so front-ends never partition a query below it.
//  * increase p (r shrinks): safe_p rises immediately, but storage_p —
//    the level nodes store at — rises only once the aggregated front-end
//    ack watermark (the minimum over live front-ends) reaches the raising
//    epoch (the drop gate). A front-end still planning at the old p
//    therefore always finds the old replication arcs on disk: "no query
//    is ever partitioned with an unsafe p" holds end-to-end, not just
//    inside one process.
//
// The adaptive-p controller (core/adaptive_p.h) plugs in here: the
// control plane feeds it the kNodeStats load reports and the front-ends'
// piggybacked latency digests, ticks it on a fixed cadence, and gates its
// decisions through the same §4.5 safety machinery as manual changes.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/protocol.h"
#include "cluster/relay.h"
#include "core/adaptive_p.h"
#include "core/cc.h"
#include "core/cluster_view.h"
#include "core/membership.h"

namespace roar::cluster {

struct ControlPlaneParams {
  uint32_t initial_p = 8;
  // Laggard-resync cadence; also nudges pending §4.5 confirmers whose
  // completion may have been lost. 0 disables the timer (tests only).
  double retransmit_interval_s = 0.5;
  // Floor on the incremental deltas retained for compacted kViewPull
  // replies; retention adapts upward (to at most delta_log_retain_max)
  // from the live lag distribution. Pulls from further behind get a full
  // snapshot.
  size_t delta_log_retain = 64;
  size_t delta_log_retain_max = 512;
  // Relay-tree fanout k: direct children per relay (and tree roots at the
  // control plane).
  uint32_t relay_fanout = 8;
  // A wave whose interested-node count is at least node_subs/tree_divisor
  // goes through the relay tree (reaching everyone); smaller sets get
  // direct interest-sliced sends.
  uint32_t tree_divisor = 4;
  // Closed-loop p control (off by default).
  bool adaptive = false;
  core::AdaptivePParams adaptive_params;
  double adaptive_interval_s = 4.0;
};

class ControlPlane {
 public:
  ControlPlane(net::Transport& net, core::MembershipServer& membership,
               ControlPlaneParams params);

  // Binds kMembershipAddr and arms the periodic timers.
  void start();

  // --- subscribers -------------------------------------------------------
  void subscribe_node(NodeId id);
  void subscribe_frontend(net::Address addr);
  // Departed subscribers (graceful leave, long-term removal) stop
  // receiving waves and retransmissions.
  void unsubscribe(net::Address addr);
  // Harness notice that a front-end crashed/revived. Crashed front-ends
  // leave the drop gate (they re-sync through kViewPull on restart) and
  // are skipped by retransmission.
  void set_frontend_down(net::Address addr, bool down);
  // Nodes still downloading their arc (§4.3) are published as down.
  void set_warming(NodeId id, bool warming);
  bool is_warming(NodeId id) const { return warming_.count(id) > 0; }

  // --- publication -------------------------------------------------------
  // Captures the current membership + reconfiguration state; if anything
  // changed, bumps the epoch and disseminates the delta (sliced or
  // tree-relayed by wave scope). Call after every membership mutation
  // (the harnesses do).
  void publish();
  // Re-sends the current view as a full snapshot: to every subscriber
  // when `everyone` (the heal path's promptness), else only to the
  // laggard set; the retransmit timer provides the latter as a backstop.
  void resync(bool everyone);

  // --- reconfiguration (§4.5) -------------------------------------------
  void order_p_change(uint32_t p_new);
  // Long-term failure handling: a confirmer removed from the ring can
  // never report; stop waiting on it (completes the change if last).
  void abandon_fetch(NodeId id);
  // A change is in flight: confirmations pending (decrease) or the drop
  // gate waiting on front-end acks (increase).
  bool reconfig_busy() const {
    return repl_.in_progress() || drop_gate_.has_value();
  }
  bool drop_gate_pending() const { return drop_gate_.has_value(); }

  // --- introspection -----------------------------------------------------
  const core::ClusterView& view() const { return view_; }
  const core::ReplicationController& replication() const { return repl_; }
  uint64_t epoch() const { return view_.epoch; }
  uint32_t safe_p() const { return repl_.safe_p(); }
  uint32_t target_p() const { return repl_.target_p(); }
  uint32_t storage_p() const { return storage_p_; }
  // Committed p changes (a decrease counts when the last fetch confirms,
  // an increase when the drop gate clears).
  uint32_t p_changes_committed() const { return p_changes_; }
  // Last acked epoch of a subscriber (0 if never heard from). For a relay
  // root this is its subtree's aggregated minimum.
  uint64_t acked_epoch(net::Address addr) const;
  // Worst view-convergence lag over the laggard set: how far a
  // subscriber's watermark trails the newest epoch it was directly owed
  // (0 = everyone caught up). Interest-sliced subscribers legitimately
  // sit below epoch(); they are not lagging. O(laggards).
  uint64_t max_epoch_lag() const;
  const core::AdaptivePController* adaptive() const {
    return adaptive_ ? &*adaptive_ : nullptr;
  }

  // --- dissemination metrics --------------------------------------------
  // View delta messages this control plane sent (direct + tree roots).
  uint64_t deltas_sent() const { return deltas_sent_; }
  // Node sends skipped because the wave touched none of their interest.
  uint64_t interest_skips() const { return interest_skips_; }
  // Aggregated subscribers carried by relayed acks beyond their senders.
  uint64_t acks_aggregated() const { return acks_aggregated_; }
  // Log deltas folded into compacted messages / messages they became.
  double compaction_ratio() const {
    return compaction_msgs_ == 0
               ? 1.0
               : static_cast<double>(compaction_folded_) /
                     static_cast<double>(compaction_msgs_);
  }
  size_t delta_log_retain() const { return retain_; }
  uint32_t tree_rebuilds() const { return tree_rebuilds_; }
  // Current dissemination-tree roots and their subtree sizes (tests use
  // this to pick an interior node to crash mid-wave).
  std::vector<std::pair<net::Address, size_t>> relay_roots() const {
    std::vector<std::pair<net::Address, size_t>> out;
    out.reserve(tree_.size());
    for (const auto& r : tree_) out.emplace_back(r.addr, r.subtree.size());
    return out;
  }

  // Invoked when a reconfiguration commits (safe_p reached target on a
  // decrease; drop gate cleared on an increase). Harnesses log here.
  std::function<void(uint32_t new_p)> on_reconfigured;

 private:
  struct Subscriber {
    bool is_frontend = false;
    bool down = false;
    NodeId id = core::kInvalidNode;  // nodes only
    uint64_t acked = 0;     // newest (possibly aggregated) watermark
    uint64_t expected = 0;  // newest epoch directly pushed to this sub
    bool has_interest = false;
    std::vector<Arc> interest;
  };

  // What one published wave touches, for interest scoping.
  struct WaveScope {
    bool broad = false;  // level change or full snapshot: everyone cares
    bool members_changed = false;  // liveness/membership set changed
    std::vector<RingId> touched;   // positions whose coverage changed
    std::vector<NodeId> touched_ids;  // upserted/removed/pending-diff ids
  };

  // One direct child of the control plane in the relay tree.
  struct Root {
    net::Address addr = 0;
    std::vector<net::Address> subtree;  // its relay_targets
    uint64_t basis = 0;  // newest epoch sent down this branch
    core::AimdWindow win{relay::kWindowInitial, relay::kWindowMax};
    relay::Watermark mark;
    bool queued_wave = false;  // a wave deferred by the AIMD window
  };

  void handle(net::Address from, net::ByteView payload);
  void on_fetch_complete(const FetchCompleteMsg& m);
  void on_view_ack(const ViewAckMsg& m);
  void on_view_pull(const ViewPullMsg& m);
  void on_view_interest(const ViewInterestMsg& m);
  void on_node_stats(const NodeStatsMsg& m);
  void maybe_clear_drop_gate();
  // Every committed change runs exactly this: storage level, counter,
  // view epoch, notification.
  void commit_change(uint32_t p_new);

  WaveScope classify_wave(const core::ClusterView& prev,
                          const core::ClusterView& next,
                          const core::ViewDelta& d) const;
  bool is_interested(const Subscriber& sub, const WaveScope& scope) const;
  void disseminate(const core::ViewDelta& d, const WaveScope& scope);
  void rebuild_tree();
  // Sends root r the compacted wave from its branch basis to the current
  // epoch (deferred if its window is full).
  void send_wave_to_root(Root& r);
  // Direct interest-sliced send: one compacted delta covering whatever
  // `sub` is owed since its last direct push (or the last tree wave).
  void send_compact_to(net::Address to, Subscriber& sub);
  void send_full(net::Address to);
  // Builds the delta owed to a subscriber whose state is at `basis`:
  // the log fold when retained, a full snapshot otherwise.
  ViewDeltaMsg delta_since(uint64_t basis);
  void send_raw(net::Address to, const net::Bytes& payload);
  void trim_log();
  void adapt_retain();
  // Bookkeeping: a direct push to `addr` at the current epoch.
  void mark_expected(net::Address addr, Subscriber& sub);
  void retransmit_tick();
  void adaptive_tick();
  core::ClusterView capture(uint64_t epoch) const;
  Root* find_root(net::Address addr);

  net::Transport& net_;
  core::MembershipServer& membership_;
  ControlPlaneParams params_;
  core::ReplicationController repl_;
  uint32_t storage_p_;
  // An increase waiting on the aggregated front-end watermark
  // (p_new, epoch).
  std::optional<std::pair<uint32_t, uint64_t>> drop_gate_;
  core::ClusterView view_;  // last published
  std::map<net::Address, Subscriber> subs_;
  // Subscribers whose acked watermark trails their expected epoch — the
  // only set the retransmit tick and the lag gauge walk.
  std::set<net::Address> laggards_;
  // (acked, addr) over live front-ends: the aggregated front-end
  // watermark the drop gate waits on is begin()->first.
  std::set<std::pair<uint64_t, net::Address>> frontend_acked_;
  std::deque<core::ViewDelta> delta_log_;  // epochs (epoch - size, epoch]
  size_t retain_;
  std::vector<Root> tree_;
  bool tree_dirty_ = true;
  uint64_t last_tree_epoch_ = 0;  // newest epoch any tree wave carried
  std::set<NodeId> warming_;
  uint32_t p_changes_ = 0;
  uint64_t deltas_sent_ = 0;
  uint64_t interest_skips_ = 0;
  uint64_t acks_aggregated_ = 0;
  uint64_t compaction_folded_ = 0;
  uint64_t compaction_msgs_ = 0;
  uint32_t tree_rebuilds_ = 0;
  std::optional<core::AdaptivePController> adaptive_;
};

}  // namespace roar::cluster
