#include "cluster/frontend.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/logging.h"

namespace roar::cluster {

uint64_t frontend_seed(uint64_t cluster_seed, uint32_t index) {
  uint64_t base = subseed(cluster_seed, SeedStream::kFrontend);
  return index == 0 ? base : subseed(base, static_cast<uint64_t>(index));
}

// Finish estimator over the front-end's EWMA rates and queue projections.
class Frontend::Estimator : public core::FinishEstimator {
 public:
  explicit Estimator(const Frontend& fe) : fe_(fe) {}
  double estimate_finish(core::NodeId node, double share) const override {
    return fe_.predict(node, share);
  }

 private:
  const Frontend& fe_;
};

Frontend::Frontend(net::Transport& net, uint32_t index,
                   FrontendParams params, uint64_t dataset_size,
                   uint64_t seed)
    : net_(net),
      index_(index),
      params_(params),
      dataset_size_(dataset_size),
      rng_(seed) {
  if (index >= kMaxFrontends) {
    throw std::out_of_range("Frontend: index collides with node addresses");
  }
  if (params_.slo_enabled) {
    admission_ =
        std::make_unique<core::AdmissionController>(params_.admission);
  }
}

void Frontend::start() {
  alive_ = true;
  synced_ = false;
  ++life_;
  net_.bind(address(), [this](net::Address from, net::Payload payload) {
    handle(from, payload);
  });
  if (view_epoch() > 0) {
    // Restart after a crash: our view is stale by an unknown number of
    // epochs. Pull before serving (ready() stays false until the first
    // applied view of this life... the pull's full-snapshot reply).
    ViewPullMsg pull;
    pull.subscriber = address();
    pull.have_epoch = view_epoch();
    net_.send(address(), kMembershipAddr, pull.encode());
  }
  if (params_.digest_interval_s > 0) {
    uint64_t life = life_;
    net_.clock().schedule_after(params_.digest_interval_s,
                                [this, life] { send_digest(life); });
  }
}

void Frontend::stop() {
  if (!alive_) return;
  alive_ = false;
  ++life_;  // kills digest/timeout timer chains from this life
  // Pre-crash completions must not surface as a fresh latency digest
  // after a revival — the controller would read minutes-old overload as
  // a current contract breach.
  digest_window_.clear();
  net_.unbind(address());
  // In-flight queries die with the process; their clients observe the
  // loss as a failed, zero-harvest outcome.
  std::vector<uint64_t> ids;
  for (const auto& [id, q] : pending_) ids.push_back(id);
  for (uint64_t id : ids) fail_query(id);
}

void Frontend::trace_event(uint64_t trace, core::TraceStage stage,
                           uint32_t part, double dur, uint32_t aux) {
  if (!tracer_) return;
  tracer_->record(trace_shard_, trace, stage, index_, part,
                  net_.clock().now(), dur, aux);
}

void Frontend::fail_query(uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingQuery& q = it->second;
  for (const auto& part : q.parts) {
    if (!part.done) net_.clock().cancel(part.timer_id);
  }
  trace_event(q.trace, core::TraceStage::kQueryFail);
  QueryOutcome out;
  out.id = id;
  out.complete = false;
  out.harvest = 0.0;
  out.klass = q.klass;
  out.trace = q.trace;
  auto cb = std::move(q.cb);
  pending_.erase(it);
  if (cb) cb(out);
}

void Frontend::sync_from_view() {
  const core::ClusterView& v = sub_.view();
  ring_ = v.to_ring();
  double now = net_.clock().now();
  for (const auto& n : ring_.nodes()) {
    auto& st = nodes_[n.id];
    st.alive = n.alive;
    if (!st.rate.has_value()) {
      st.rate = Ewma(params_.ewma_alpha);
      st.rate.add(params_.initial_rate * n.speed);
      st.busy_until = now;
    }
  }
  // Members removed from the view release their estimator state.
  for (auto it = nodes_.begin(); it != nodes_.end();) {
    if (!ring_.contains(it->first)) {
      it = nodes_.erase(it);
    } else {
      ++it;
    }
  }
}

void Frontend::send_ack(net::Address to) {
  // Plain watermark: completed == 0 keeps it out of the latency signal.
  ViewAckMsg ack;
  ack.subscriber = address();
  ack.epoch = view_epoch();
  net_.send(address(), to, ack.encode());
}

void Frontend::send_digest(uint64_t life) {
  if (life != life_ || !alive_) return;
  ViewAckMsg ack;
  ack.subscriber = address();
  ack.epoch = view_epoch();
  if (!digest_window_.empty()) {
    ack.completed = digest_window_.count();
    ack.p99_s = digest_window_.percentile(0.99);
    ack.mean_s = digest_window_.mean();
  }
  digest_window_.clear();
  net_.send(address(), kMembershipAddr, ack.encode());
  net_.clock().schedule_after(params_.digest_interval_s,
                              [this, life] { send_digest(life); });
}

void Frontend::on_view_delta(const ViewDeltaMsg& m) {
  switch (sub_.apply(m.delta)) {
    case core::ViewSubscription::Apply::kApplied:
      synced_ = true;
      sync_from_view();
      send_ack(m.ack_to);
      break;
    case core::ViewSubscription::Apply::kStale:
      send_ack(m.ack_to);  // refresh the control plane's watermark anyway
      break;
    case core::ViewSubscription::Apply::kGap: {
      ViewPullMsg pull;
      pull.subscriber = address();
      pull.have_epoch = view_epoch();
      net_.send(address(), kMembershipAddr, pull.encode());
      break;
    }
  }
}

void Frontend::node_down(NodeId id) {
  if (ring_.contains(id)) ring_.set_alive(id, false);
  nodes_[id].alive = false;
}

RingId Frontend::add_document(const pps::FileInfo& doc) {
  if (!ingest_) {
    throw std::logic_error("Frontend::add_document: no ingest router");
  }
  return ingest_->add_document(doc);
}

bool Frontend::delete_document(RingId doc_id) {
  if (!ingest_) {
    throw std::logic_error("Frontend::delete_document: no ingest router");
  }
  return ingest_->delete_document(doc_id);
}

double Frontend::estimated_rate(NodeId id) const {
  auto it = nodes_.find(id);
  return it != nodes_.end() && it->second.rate.has_value()
             ? it->second.rate.value()
             : params_.initial_rate;
}

double Frontend::predict(NodeId node, double share) const {
  double now = net_.clock().now();
  auto it = nodes_.find(node);
  double busy = now, rate = params_.initial_rate;
  if (it != nodes_.end()) {
    busy = std::max(now, it->second.busy_until);
    if (it->second.rate.has_value()) rate = it->second.rate.value();
  }
  double count = share * static_cast<double>(dataset_size_);
  return busy + count / rate + params_.subquery_overhead_s +
         2 * net_.latency();
}

uint64_t Frontend::submit(QueryCallback cb) {
  return submit(QueryRequest{}, std::move(cb));
}

uint64_t Frontend::submit(const QueryRequest& req, QueryCallback cb) {
  uint64_t id = next_query_id_++;
  uint64_t trace = core::query_trace_id(index_, id);
  TraceIdScope log_scope(trace);
  if (!ready() || ring_.empty()) {
    // No view yet (fresh or just-revived front-end) or nothing to plan
    // against: refuse rather than guess — planning off a stale view is
    // exactly what the ready gate exists to prevent.
    trace_event(trace, core::TraceStage::kQueryFail);
    QueryOutcome out;
    out.id = id;
    out.complete = false;
    out.harvest = 0.0;
    out.klass = req.klass;
    out.trace = trace;
    if (cb) cb(out);
    return id;
  }
  // Admission runs BEFORE the sweep/planner: a shed query costs one
  // occupancy comparison, not a schedule. The refusal is the contract's
  // max_shed budget being spent to keep admitted queries inside their p99.
  if (admission_ && !admission_->admit(req.klass, pending_.size())) {
    trace_event(trace, core::TraceStage::kAdmitShed);
    QueryOutcome out;
    out.id = id;
    out.complete = false;
    out.harvest = 0.0;
    out.klass = req.klass;
    out.shed = true;
    out.trace = trace;
    if (cb) cb(out);
    return id;
  }
  PendingQuery q;
  q.id = id;
  q.trace = trace;
  q.submit_time = net_.clock().now();
  trace_event(trace, core::TraceStage::kSubmit);
  q.klass = req.klass;
  q.extra_cost_s = req.extra_cost_s;
  q.cb = std::move(cb);

  // The scheduling computation itself is measured in wall-clock time: this
  // is the Fig 7.12 quantity (it is real CPU work the front-end does).
  auto wall0 = std::chrono::steady_clock::now();
  Estimator est(*this);
  uint32_t p = safe_p();
  uint32_t pq = std::max(
      p, static_cast<uint32_t>(p * params_.pq_factor + 0.5));
  if (params_.slo_enabled && req.klass != core::QueryClass::kInteractive) {
    // Contract-fed scheduling: only the tight-latency class fans out wider
    // than p. Batch/scavenger latitude is the contract's, not the
    // scheduler's.
    pq = p;
  }
  auto sched =
      core::SweepScheduler::schedule(ring_, pq, est, rng_.next_ring_id());
  auto plan = planner_.plan(ring_, sched.best_start, pq, p, rng_);
  if (params_.range_adjustment) {
    core::adjust_ranges(&plan, ring_, p, est);
  }
  if (params_.max_splits > 0) {
    core::split_slowest(&plan, ring_, p, est, params_.max_splits);
  }
  q.schedule_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  schedule_times_.add(q.schedule_wall_s);
  trace_event(trace, core::TraceStage::kPlanned, 0, q.schedule_wall_s);

  auto [it, inserted] = pending_.emplace(id, std::move(q));
  queue_hwm_ = std::max(queue_hwm_, pending_.size());
  PendingQuery& stored = it->second;
  for (const auto& part : plan.parts) {
    if (part.node == core::kInvalidNode) {
      stored.full_coverage = false;  // harvest < 100%
      stored.missing_share += part.share;
      continue;
    }
    send_part(stored, part);
  }
  if (stored.outstanding == 0) {
    // Nothing could be sent (e.g. all nodes dead): fail immediately.
    trace_event(trace, core::TraceStage::kQueryFail);
    QueryOutcome out;
    out.id = id;
    out.complete = false;
    out.klass = stored.klass;
    out.trace = trace;
    auto cb2 = std::move(stored.cb);
    pending_.erase(id);
    if (cb2) cb2(out);
  }
  return id;
}

void Frontend::send_part(PendingQuery& q, const core::RoarSubQuery& sub) {
  PendingPart part;
  part.sub = sub;
  part.node = sub.node;

  SubQueryMsg msg;
  msg.query_id = q.id;
  msg.part_id = static_cast<uint32_t>(q.parts.size());
  msg.trace = q.trace;
  msg.point = sub.point;
  msg.window_begin = sub.window_begin;
  msg.window_end = sub.responsibility_end;
  msg.pq = safe_p();
  msg.share = sub.share;
  msg.klass = static_cast<uint8_t>(q.klass);

  // Update the queue projection for this node.
  double predicted = predict(sub.node, sub.share);
  auto& st = nodes_[sub.node];
  st.busy_until = predicted - 2 * net_.latency();

  double timeout = (predicted - net_.clock().now()) * params_.timeout_factor +
                   params_.timeout_margin_s;
  uint64_t qid = q.id;
  uint32_t pidx = static_cast<uint32_t>(q.parts.size());
  part.timer_id = net_.clock().schedule_after(
      timeout, [this, qid, pidx] { on_timeout(qid, pidx); });

  q.parts.push_back(part);
  ++q.outstanding;
  trace_event(q.trace, core::TraceStage::kDispatch, pidx, 0.0, sub.node);
  net_.send(address(), node_address(sub.node), msg.encode());
}

void Frontend::handle(net::Address from, net::ByteView payload) {
  (void)from;
  auto type = peek_type(payload);
  if (!type) return;
  if (*type == MsgType::kSubQueryReply) {
    if (auto m = SubQueryReplyMsg::decode(payload)) on_reply(*m);
  } else if (*type == MsgType::kViewDelta) {
    if (auto m = ViewDeltaMsg::decode(payload)) on_view_delta(*m);
  }
}

void Frontend::on_reply(const SubQueryReplyMsg& m) {
  auto it = pending_.find(m.query_id);
  if (it == pending_.end()) return;  // late reply after query completion
  PendingQuery& q = it->second;
  if (m.part_id >= q.parts.size()) return;
  PendingPart& part = q.parts[m.part_id];

  // Liveness is "last time seen up" (§4.8): any reply — including a late
  // one from a node whose timer already fired — proves the node is alive,
  // merely overloaded. Without this resurrection, false timeouts under
  // transient overload would progressively erase the ring.
  auto& replier = nodes_[part.node];
  if (!replier.alive) {
    replier.alive = true;
    if (ring_.contains(part.node)) ring_.set_alive(part.node, true);
  }

  if (part.done) return;  // duplicate or post-timeout reply
  part.done = true;
  net_.clock().cancel(part.timer_id);
  --q.outstanding;
  TraceIdScope log_scope(q.trace);
  trace_event(q.trace, core::TraceStage::kReplyRecv, m.part_id, m.service_s,
              m.shed);

  if (m.shed) {
    // The node refused this sub-query at its queue bound. Its window goes
    // unsearched — a harvest loss identical in kind to a §4.4 abandoned
    // window — but the query finishes NOW instead of waiting out a
    // timeout, and the node stays alive in the mirror (the reply proved
    // it). No rate observation: a refusal says nothing about speed.
    ++q.parts_shed;
    ++parts_shed_;
    q.full_coverage = false;
    q.missing_share += part.sub.share;
    finish_if_done(q);
    return;
  }

  q.matches += m.matches;
  q.max_service = std::max(q.max_service, m.service_s);

  // Speed estimation (§4.8): observed rate from this sub-query.
  if (m.service_s > params_.subquery_overhead_s && m.scanned > 0) {
    double rate = static_cast<double>(m.scanned) /
                  (m.service_s - params_.subquery_overhead_s / 2);
    nodes_[part.node].rate.add(rate);
  }
  finish_if_done(q);
}

void Frontend::on_timeout(uint64_t query_id, uint32_t part_index) {
  auto it = pending_.find(query_id);
  if (it == pending_.end()) return;
  PendingQuery& q = it->second;
  if (part_index >= q.parts.size()) return;
  PendingPart& part = q.parts[part_index];
  if (part.done) return;

  TraceIdScope log_scope(q.trace);
  if (part.expiries == 0) {
    // Second chance: re-arm from the *current* queue projection — if the
    // node is alive but swamped (e.g. absorbing a mass failure's load),
    // the refreshed prediction reflects the backlog and the timer now
    // covers it.
    part.expiries = 1;
    trace_event(q.trace, core::TraceStage::kPartTimeout, part_index);
    double predicted = predict(part.node, part.sub.share);
    double timeout =
        (predicted - net_.clock().now()) * params_.timeout_factor +
        params_.timeout_margin_s;
    part.timer_id = net_.clock().schedule_after(
        std::max(timeout, params_.timeout_margin_s),
        [this, query_id, part_index] { on_timeout(query_id, part_index); });
    return;
  }

  // Node considered dead (§4.8: "if a query response times out, the node
  // is marked as dead").
  ++failures_detected_;
  NodeId dead = part.node;
  node_down(dead);
  ROAR_LOG_TAG(kInfo, "frontend")
      << "frontend " << index_ << ": node " << dead << " timed out on query "
      << query_id;
  trace_event(q.trace, core::TraceStage::kFailure, part_index, 0.0, dead);
  if (tracer_) {
    // The flight-recorder hook for the timeout path: dump the recent
    // timeline around the query that just lost a node.
    tracer_->anomaly(q.trace,
                     "query timeout: node " + std::to_string(dead) +
                         " declared dead on query " +
                         std::to_string(query_id),
                     net_.clock().now());
  }

  part.done = true;
  --q.outstanding;
  ++q.retries;

  // Split the unfinished sub-query across the failed node's neighbourhood
  // and reschedule (§4.4).
  std::vector<core::RoarSubQuery> splits;
  if (planner_.split_around_failure(ring_, part.sub, safe_p(), rng_,
                                    &splits)) {
    for (const auto& sub : splits) send_part(q, sub);
  } else {
    q.full_coverage = false;  // the dead node's window is unreachable
    q.missing_share += part.sub.share;
  }
  finish_if_done(q);
}

void Frontend::finish_if_done(PendingQuery& q) {
  if (q.outstanding > 0) return;
  double now = net_.clock().now();
  // extra_cost_s is the client-side cost the workload engine attributes
  // to this query (user-metadata cache-miss I/O): it is part of what the
  // user waits for, so it is part of the contract-visible latency.
  double total = now - q.submit_time + params_.fixed_cost_s + q.extra_cost_s;

  trace_event(q.trace, core::TraceStage::kQueryDone, 0, total);
  if (latency_hist_) latency_hist_->record(total);

  QueryOutcome out;
  out.id = q.id;
  out.trace = q.trace;
  out.complete = q.full_coverage;
  out.harvest = std::max(0.0, 1.0 - q.missing_share);
  out.matches = q.matches;
  out.parts_sent = static_cast<uint32_t>(q.parts.size());
  out.retries = q.retries;
  out.klass = q.klass;
  out.parts_shed = q.parts_shed;
  out.breakdown.schedule_s = q.schedule_wall_s;
  out.breakdown.network_s = 2 * net_.latency();
  out.breakdown.service_s = q.max_service;
  out.breakdown.total_s = total;
  out.breakdown.queue_s = std::max(
      0.0, total - q.max_service - out.breakdown.network_s -
               params_.fixed_cost_s);

  delays_.add(total);
  digest_window_.add(total);
  ++completed_;
  auto cb = std::move(q.cb);
  pending_.erase(q.id);
  if (cb) cb(out);
}

}  // namespace roar::cluster
