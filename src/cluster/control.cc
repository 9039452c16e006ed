#include "cluster/control.h"

#include <algorithm>

#include "common/logging.h"

namespace roar::cluster {

namespace {

// prev.members is canonically id-sorted; binary search keeps wave
// classification O(changes · log n) even for broad waves.
const core::ViewMember* find_member(const std::vector<core::ViewMember>& ms,
                                    NodeId id) {
  auto it = std::lower_bound(ms.begin(), ms.end(), id,
                             [](const core::ViewMember& m, NodeId want) {
                               return m.id < want;
                             });
  return it != ms.end() && it->id == id ? &*it : nullptr;
}

}  // namespace

ControlPlane::ControlPlane(net::Transport& net,
                           core::MembershipServer& membership,
                           ControlPlaneParams params)
    : net_(net),
      membership_(membership),
      params_(params),
      repl_(params.initial_p),
      storage_p_(params.initial_p),
      retain_(params.delta_log_retain) {
  view_.target_p = view_.safe_p = view_.storage_p = params.initial_p;
  if (params_.relay_fanout == 0) params_.relay_fanout = 1;
  if (params_.tree_divisor == 0) params_.tree_divisor = 1;
  if (params_.delta_log_retain_max < params_.delta_log_retain) {
    params_.delta_log_retain_max = params_.delta_log_retain;
  }
  if (params_.adaptive) {
    adaptive_.emplace(params_.adaptive_params);
  }
}

void ControlPlane::start() {
  net_.bind(kMembershipAddr, [this](net::Address from, net::Payload payload) {
    handle(from, payload);
  });
  if (params_.retransmit_interval_s > 0) {
    net_.clock().schedule_after(params_.retransmit_interval_s,
                                [this] { retransmit_tick(); });
  }
  if (adaptive_) {
    net_.clock().schedule_after(params_.adaptive_interval_s,
                                [this] { adaptive_tick(); });
  }
}

void ControlPlane::subscribe_node(NodeId id) {
  net::Address addr = node_address(id);
  laggards_.erase(addr);  // re-subscription starts from a clean slate
  Subscriber s;
  s.id = id;
  subs_[addr] = std::move(s);
  tree_dirty_ = true;
}

void ControlPlane::subscribe_frontend(net::Address addr) {
  auto it = subs_.find(addr);
  if (it != subs_.end()) {
    frontend_acked_.erase({it->second.acked, addr});
  }
  laggards_.erase(addr);
  Subscriber s;
  s.is_frontend = true;
  subs_[addr] = std::move(s);
  frontend_acked_.insert({0, addr});
}

void ControlPlane::unsubscribe(net::Address addr) {
  auto it = subs_.find(addr);
  if (it != subs_.end()) {
    if (it->second.is_frontend) {
      frontend_acked_.erase({it->second.acked, addr});
    }
    subs_.erase(it);
  }
  laggards_.erase(addr);
  tree_dirty_ = true;
  maybe_clear_drop_gate();  // a departed front-end leaves the gate
}

void ControlPlane::set_frontend_down(net::Address addr, bool down) {
  auto it = subs_.find(addr);
  if (it == subs_.end()) return;
  Subscriber& s = it->second;
  if (down) {
    frontend_acked_.erase({s.acked, addr});
    laggards_.erase(addr);
  } else {
    frontend_acked_.insert({s.acked, addr});
    if (s.acked < s.expected) laggards_.insert(addr);
  }
  s.down = down;
  // A crashed front-end cannot hold surplus drops hostage: it re-syncs
  // through kViewPull before serving again, so it never plans at a p the
  // nodes stopped storing for.
  if (down) maybe_clear_drop_gate();
}

void ControlPlane::set_warming(NodeId id, bool warming) {
  if (warming) {
    warming_.insert(id);
  } else {
    warming_.erase(id);
  }
}

core::ClusterView ControlPlane::capture(uint64_t epoch) const {
  return core::ClusterView::capture(epoch, membership_.ring(0), repl_,
                                    storage_p_, warming_);
}

ControlPlane::WaveScope ControlPlane::classify_wave(
    const core::ClusterView& prev, const core::ClusterView& next,
    const core::ViewDelta& d) const {
  WaveScope s;
  s.broad = d.full || prev.target_p != next.target_p ||
            prev.safe_p != next.safe_p || prev.storage_p != next.storage_p;
  for (const auto& up : d.upserts) {
    s.touched.push_back(up.position);
    s.touched_ids.push_back(up.id);
    const core::ViewMember* was = find_member(prev.members, up.id);
    if (!was || was->alive != up.alive) s.members_changed = true;
    if (was && was->position != up.position) s.touched.push_back(was->position);
  }
  for (NodeId id : d.removes) {
    s.touched_ids.push_back(id);
    s.members_changed = true;
    if (const auto* was = find_member(prev.members, id)) {
      s.touched.push_back(was->position);
    }
  }
  // Entering or leaving the §4.5 pending set concerns exactly that node
  // (it must start, or stop re-reporting, its fetch).
  std::set_symmetric_difference(prev.pending.begin(), prev.pending.end(),
                                next.pending.begin(), next.pending.end(),
                                std::back_inserter(s.touched_ids));
  return s;
}

bool ControlPlane::is_interested(const Subscriber& sub,
                                 const WaveScope& scope) const {
  if (scope.broad || !sub.has_interest) return true;
  for (NodeId id : scope.touched_ids) {
    if (id == sub.id) return true;
  }
  for (RingId point : scope.touched) {
    for (const Arc& a : sub.interest) {
      if (a.contains(point)) return true;
    }
  }
  return false;
}

void ControlPlane::publish() {
  core::ClusterView next = capture(view_.epoch + 1);
  if (next.same_state(view_)) return;  // nothing to tell anyone
  core::ViewDelta d = core::view_diff(view_, next);
  WaveScope scope = classify_wave(view_, next, d);
  if (scope.members_changed) tree_dirty_ = true;
  view_ = std::move(next);
  delta_log_.push_back(d);
  trim_log();
  disseminate(d, scope);
}

void ControlPlane::disseminate(const core::ViewDelta& d,
                               const WaveScope& scope) {
  // Front-ends: every epoch, direct, individually acked — the §4.5 drop
  // gate and the end-of-run convergence audit key off their watermarks.
  {
    net::Bytes payload;
    for (auto& [addr, sub] : subs_) {
      if (!sub.is_frontend || sub.down) continue;
      if (payload.empty()) {
        ViewDeltaMsg msg;
        msg.delta = d;
        payload = msg.encode();
      }
      send_raw(addr, payload);
      mark_expected(addr, sub);
    }
  }
  // Node subscribers: slice the wave down to the interested set, or relay
  // it through the tree when (nearly) everyone cares.
  size_t node_subs = 0;
  std::vector<std::pair<net::Address, Subscriber*>> interested;
  for (auto& [addr, sub] : subs_) {
    if (sub.is_frontend || sub.down) continue;
    ++node_subs;
    if (is_interested(sub, scope)) interested.emplace_back(addr, &sub);
  }
  if (node_subs == 0) return;
  bool tree = scope.broad ||
              interested.size() * params_.tree_divisor >= node_subs;
  if (!tree) {
    interest_skips_ += node_subs - interested.size();
    for (auto& [addr, sub] : interested) send_compact_to(addr, *sub);
    return;
  }
  if (tree_dirty_) rebuild_tree();
  for (Root& r : tree_) send_wave_to_root(r);
  last_tree_epoch_ = view_.epoch;
}

void ControlPlane::rebuild_tree() {
  tree_dirty_ = false;
  ++tree_rebuilds_;
  // Live ring members with a subscription, address-sorted for determinism
  // and rotated by the build epoch so relay roles shuffle across rebuilds.
  std::vector<net::Address> targets;
  for (const auto& n : membership_.ring(0).nodes()) {
    if (!n.alive) continue;
    auto it = subs_.find(node_address(n.id));
    if (it == subs_.end() || it->second.down) continue;
    targets.push_back(node_address(n.id));
  }
  std::sort(targets.begin(), targets.end());
  if (!targets.empty()) {
    std::rotate(targets.begin(),
                targets.begin() +
                    static_cast<ptrdiff_t>(view_.epoch % targets.size()),
                targets.end());
  }
  std::map<net::Address, Root> old;
  for (Root& r : tree_) old.emplace(r.addr, std::move(r));
  tree_.clear();
  for (auto& b : relay::split(targets, params_.relay_fanout)) {
    Root r;
    auto it = old.find(b.head);
    if (it != old.end()) {
      // Surviving roots keep their branch basis, pacing window,
      // watermarks and any deferred wave.
      r = std::move(it->second);
    } else {
      // A fresh root's members converged through the old tree; anything
      // further behind gaps and pulls (the repair path).
      r.basis = last_tree_epoch_;
    }
    r.addr = b.head;
    r.subtree = std::move(b.rest);
    tree_.push_back(std::move(r));
  }
}

ViewDeltaMsg ControlPlane::delta_since(uint64_t basis) {
  ViewDeltaMsg msg;
  if (basis >= view_.epoch) {
    msg.delta = core::view_full_delta(view_);
    return msg;
  }
  uint64_t oldest_prev = view_.epoch - delta_log_.size();
  if (basis < oldest_prev) {
    msg.delta = core::view_full_delta(view_);
    return msg;
  }
  if (basis + 1 == view_.epoch) {
    msg.delta = delta_log_.back();
    return msg;
  }
  msg.delta = core::compact_log(delta_log_, basis, view_.epoch);
  compaction_folded_ += view_.epoch - basis;
  ++compaction_msgs_;
  return msg;
}

void ControlPlane::send_wave_to_root(Root& r) {
  auto it = subs_.find(r.addr);
  if (it == subs_.end() || it->second.down) return;
  if (!r.win.allows(r.mark.in_flight)) {
    // Deferred; a newer wave supersedes an already-queued one (bounded
    // buffer of one), the AIMD loss that this branch is falling behind.
    if (r.queued_wave) r.win.on_loss();
    r.queued_wave = true;
    mark_expected(r.addr, it->second);  // still owed: tick repairs a stall
    return;
  }
  ViewDeltaMsg msg = delta_since(r.basis);
  msg.relay_fanout = static_cast<uint8_t>(
      std::min<uint32_t>(params_.relay_fanout, 255));
  msg.relay_targets = r.subtree;
  send_raw(r.addr, msg.encode());
  r.mark.on_sent(view_.epoch);
  r.basis = view_.epoch;
  r.queued_wave = false;
  mark_expected(r.addr, it->second);
}

void ControlPlane::send_compact_to(net::Address to, Subscriber& sub) {
  // A fresh subscriber (never pushed, never acked) has no basis to fold
  // from; start it with a snapshot.
  if (sub.expected == 0 && sub.acked == 0) {
    send_full(to);
    return;
  }
  // The subscriber saw every tree wave in addition to its direct pushes;
  // fold only what it is still owed. If a push was lost the basis is
  // ahead of its state and it gaps into a pull — the repair path.
  uint64_t basis = std::max(sub.expected, last_tree_epoch_);
  ViewDeltaMsg msg = delta_since(basis);
  send_raw(to, msg.encode());
  mark_expected(to, sub);
}

void ControlPlane::send_full(net::Address to) {
  ViewDeltaMsg msg;
  msg.delta = core::view_full_delta(view_);
  send_raw(to, msg.encode());
  auto it = subs_.find(to);
  if (it != subs_.end()) mark_expected(to, it->second);
}

void ControlPlane::send_raw(net::Address to, const net::Bytes& payload) {
  net_.send(kMembershipAddr, to, payload);
  ++deltas_sent_;
}

void ControlPlane::mark_expected(net::Address addr, Subscriber& sub) {
  sub.expected = view_.epoch;
  if (sub.acked < sub.expected) laggards_.insert(addr);
}

void ControlPlane::trim_log() {
  while (delta_log_.size() > retain_) delta_log_.pop_front();
}

void ControlPlane::adapt_retain() {
  // Size retention to twice the worst live lag (plus slack) so a laggard
  // that converges through the pull path gets one compacted suffix, not a
  // full snapshot. Growth is immediate, decay is halved-toward-demand so
  // one slow subscriber doesn't whipsaw the log.
  uint64_t lag = max_epoch_lag();
  size_t want =
      std::clamp<size_t>(2 * lag + 8, params_.delta_log_retain,
                         params_.delta_log_retain_max);
  if (want > retain_) {
    retain_ = want;
  } else {
    retain_ = std::max(want, retain_ - (retain_ - want + 1) / 2);
  }
  trim_log();
}

uint64_t ControlPlane::max_epoch_lag() const {
  uint64_t lag = 0;
  for (net::Address addr : laggards_) {
    auto it = subs_.find(addr);
    if (it == subs_.end() || it->second.down) continue;
    uint64_t d = it->second.expected > it->second.acked
                     ? it->second.expected - it->second.acked
                     : 0;
    lag = std::max(lag, d);
  }
  return lag;
}

ControlPlane::Root* ControlPlane::find_root(net::Address addr) {
  for (Root& r : tree_) {
    if (r.addr == addr) return &r;
  }
  return nullptr;
}

void ControlPlane::resync(bool everyone) {
  if (everyone) {
    ViewDeltaMsg msg;
    msg.delta = core::view_full_delta(view_);
    net::Bytes payload = msg.encode();  // shared by every recipient
    for (auto& [addr, sub] : subs_) {
      if (sub.down) continue;
      send_raw(addr, payload);
      mark_expected(addr, sub);
    }
    // Everyone now holds the current epoch directly; tree branches resume
    // folding from here.
    for (Root& r : tree_) r.basis = view_.epoch;
    return;
  }
  // Laggards only — O(laggards), not O(members). A lagging relay root may
  // be stalled by a descendant rather than itself: repair the whole
  // branch directly (each behind member then acks individually; the next
  // tree wave restores aggregation).
  std::vector<net::Address> behind(laggards_.begin(), laggards_.end());
  for (net::Address addr : behind) {
    auto it = subs_.find(addr);
    if (it == subs_.end()) {
      laggards_.erase(addr);
      continue;
    }
    if (it->second.down) continue;
    if (!it->second.is_frontend) {
      if (Root* r = find_root(addr); r && !r->subtree.empty()) {
        r->win.on_loss();  // branch is not draining: halve its pace
        for (net::Address m : r->subtree) {
          auto ms = subs_.find(m);
          if (ms == subs_.end() || ms->second.down) continue;
          if (ms->second.acked < view_.epoch) send_full(m);
        }
      }
    }
    send_full(addr);
  }
}

void ControlPlane::commit_change(uint32_t p_new) {
  storage_p_ = p_new;
  ++p_changes_;
  publish();
  if (on_reconfigured) on_reconfigured(p_new);
}

void ControlPlane::order_p_change(uint32_t p_new) {
  if (p_new == 0) return;
  if (reconfig_busy()) {
    ROAR_LOG(kInfo) << "control: p change to " << p_new
                    << " ignored, reconfiguration in flight";
    return;
  }
  uint32_t p_old = repl_.safe_p();
  if (p_new == p_old) return;
  if (p_new > p_old) {
    // Increase: safe immediately (arcs only shrink), but nodes may drop
    // surplus data only once the aggregated front-end watermark reaches
    // the raising epoch.
    repl_.begin_change(p_new, {});
    bool any_frontend = !frontend_acked_.empty();
    publish();
    if (any_frontend) {
      drop_gate_ = {p_new, view_.epoch};
    } else {
      commit_change(p_new);
    }
    return;
  }
  // Decrease: every live node must fetch its extended arc and confirm
  // before the new, smaller p becomes safe. The pending set travels in
  // the view — receiving the epoch IS the fetch order.
  std::vector<NodeId> confirmers;
  for (const auto& n : membership_.ring(0).nodes()) {
    if (n.alive) confirmers.push_back(n.id);
  }
  repl_.begin_change(p_new, confirmers);
  if (!repl_.in_progress()) {
    // Zero live confirmers (everything crashed): the change completes
    // vacuously inside the controller, so commit — otherwise storage_p
    // would sit above safe_p forever with no gate pending.
    commit_change(repl_.safe_p());
  } else {
    publish();
  }
}

void ControlPlane::abandon_fetch(NodeId id) {
  if (!repl_.in_progress()) return;
  bool was_pending = repl_.pending().count(id) > 0;
  repl_.abandon(id);
  if (!was_pending) return;
  if (!repl_.in_progress()) {
    commit_change(repl_.safe_p());
  } else {
    publish();
  }
}

uint64_t ControlPlane::acked_epoch(net::Address addr) const {
  auto it = subs_.find(addr);
  return it != subs_.end() ? it->second.acked : 0;
}

void ControlPlane::handle(net::Address from, net::ByteView payload) {
  (void)from;
  auto type = peek_type(payload);
  if (!type) return;
  switch (*type) {
    case MsgType::kFetchComplete:
      if (auto m = FetchCompleteMsg::decode(payload)) on_fetch_complete(*m);
      break;
    case MsgType::kViewAck:
      if (auto m = ViewAckMsg::decode(payload)) on_view_ack(*m);
      break;
    case MsgType::kViewPull:
      if (auto m = ViewPullMsg::decode(payload)) on_view_pull(*m);
      break;
    case MsgType::kViewInterest:
      if (auto m = ViewInterestMsg::decode(payload)) on_view_interest(*m);
      break;
    case MsgType::kNodeStats:
      if (auto m = NodeStatsMsg::decode(payload)) on_node_stats(*m);
      break;
    default:
      break;
  }
}

void ControlPlane::on_fetch_complete(const FetchCompleteMsg& m) {
  if (!repl_.in_progress() || m.new_p != repl_.target_p()) return;
  if (repl_.pending().count(m.node) == 0) return;  // duplicate confirm
  repl_.confirm(m.node);
  if (!repl_.in_progress()) {
    // Last confirmation: the smaller p is now safe everywhere.
    commit_change(repl_.safe_p());
  } else {
    publish();  // pending set shrank; nodes track it through the view
  }
}

void ControlPlane::on_view_ack(const ViewAckMsg& m) {
  auto it = subs_.find(m.subscriber);
  if (it == subs_.end()) return;
  Subscriber& s = it->second;
  if (m.epoch > s.acked) {
    if (s.is_frontend && !s.down) {
      frontend_acked_.erase({s.acked, m.subscriber});
      frontend_acked_.insert({m.epoch, m.subscriber});
    }
    s.acked = m.epoch;
  }
  if (s.acked >= s.expected) laggards_.erase(m.subscriber);
  if (m.agg_count > 1) acks_aggregated_ += m.agg_count - 1;
  if (Root* r = find_root(m.subscriber)) {
    r->win.on_ack(r->mark.on_ack(m.epoch, m.agg_count));
    if (r->queued_wave && r->win.allows(r->mark.in_flight)) {
      send_wave_to_root(*r);  // drain the deferred wave
      if (r->basis == view_.epoch) last_tree_epoch_ = view_.epoch;
    }
  }
  if (adaptive_ && s.is_frontend) {
    adaptive_->observe_latency(m.subscriber, net_.clock().now(), m.p99_s,
                               m.completed);
  }
  maybe_clear_drop_gate();
}

void ControlPlane::on_view_interest(const ViewInterestMsg& m) {
  auto it = subs_.find(m.subscriber);
  if (it == subs_.end() || it->second.is_frontend) return;
  it->second.interest = m.arcs;
  it->second.has_interest = !m.arcs.empty();
}

void ControlPlane::maybe_clear_drop_gate() {
  if (!drop_gate_) return;
  // The aggregated front-end watermark: minimum acked epoch over live
  // front-ends (none left clears the gate — nobody can plan at the old p).
  if (!frontend_acked_.empty() &&
      frontend_acked_.begin()->first < drop_gate_->second) {
    return;
  }
  uint32_t p_new = drop_gate_->first;
  drop_gate_.reset();
  ROAR_LOG(kInfo) << "control: drop gate cleared, storage_p=" << p_new;
  commit_change(p_new);
}

void ControlPlane::on_view_pull(const ViewPullMsg& m) {
  auto it = subs_.find(m.subscriber);
  if (it == subs_.end()) return;
  if (m.have_epoch >= view_.epoch) {
    // Current (or claims to be from the future): refresh with the full
    // view anyway — a revived subscriber re-runs its reconciliation off
    // this, e.g. re-deriving an in-flight fetch order it lost.
    send_full(m.subscriber);
    return;
  }
  // A pull from beyond the retained log forced a snapshot: grow retention
  // toward the demonstrated demand.
  uint64_t needed = view_.epoch - m.have_epoch;
  if (needed > delta_log_.size()) {
    retain_ = std::clamp<size_t>(2 * needed, retain_,
                                 params_.delta_log_retain_max);
  }
  ViewDeltaMsg msg = delta_since(m.have_epoch);
  send_raw(m.subscriber, msg.encode());
  mark_expected(m.subscriber, it->second);
}

void ControlPlane::on_node_stats(const NodeStatsMsg& m) {
  if (adaptive_) {
    adaptive_->observe_load(m.node, net_.clock().now(), m.busy_fraction);
  }
}

void ControlPlane::retransmit_tick() {
  adapt_retain();
  resync(/*everyone=*/false);
  // Nudge pending confirmers: a node whose kFetchComplete was lost (or
  // that never saw the ordering epoch) re-derives its duty from the full
  // view and re-reports. Idempotent on both ends.
  if (repl_.in_progress()) {
    for (NodeId id : repl_.pending()) {
      const core::ViewMember* member = view_.find(id);
      if (member && member->alive) send_full(node_address(id));
    }
  }
  net_.clock().schedule_after(params_.retransmit_interval_s,
                              [this] { retransmit_tick(); });
}

void ControlPlane::adaptive_tick() {
  double now = net_.clock().now();
  if (!reconfig_busy()) {
    uint32_t p_new = adaptive_->decide(now, repl_.target_p());
    if (p_new != 0 && p_new != repl_.target_p()) {
      ROAR_LOG(kInfo) << "control: adaptive p " << repl_.target_p() << " -> "
                      << p_new << " (p99=" << adaptive_->last_p99_s()
                      << "s, busy=" << adaptive_->last_busy() << ")";
      order_p_change(p_new);
    }
  }
  net_.clock().schedule_after(params_.adaptive_interval_s,
                              [this] { adaptive_tick(); });
}

}  // namespace roar::cluster
