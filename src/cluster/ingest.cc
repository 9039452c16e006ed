#include "cluster/ingest.h"

#include <algorithm>

#include "common/logging.h"

namespace roar::cluster {

// Shard boundaries: b(s) = ceil(s * 2^64 / shards). shard_of uses the
// inverse fixed-point multiply, which lands ids exactly in [b(s), b(s+1)).
static uint64_t shard_boundary(uint32_t shard, uint32_t shards) {
  unsigned __int128 x = (static_cast<unsigned __int128>(shard) << 64);
  return static_cast<uint64_t>((x + shards - 1) / shards);
}

uint32_t shard_of(RingId id, uint32_t shards) {
  unsigned __int128 prod =
      static_cast<unsigned __int128>(id.raw()) * shards;
  return static_cast<uint32_t>(prod >> 64);
}

Arc shard_arc(uint32_t shard, uint32_t shards) {
  if (shards <= 1) return Arc(RingId(0), UINT64_MAX);  // (near-)full circle
  uint64_t begin = shard_boundary(shard, shards);
  uint64_t end = shard + 1 == shards ? 0 : shard_boundary(shard + 1, shards);
  return Arc(RingId(begin), end - begin);  // unsigned wrap at the seam
}

void issue_random_ingest_op(IngestRouter& router, Rng& rng,
                            double delete_frac) {
  auto live = router.live_docs();
  if (!live.empty() && rng.next_double() < delete_frac) {
    router.delete_document(live[rng.next_below(live.size())]);
    return;
  }
  router.add_document(pps::CorpusGenerator::sample_document(rng.next_u64()));
}

// ------------------------------------------------------------------ router

// Retransmit law: each timeout doubles an op's RTO, up to kRtoMaxS; after
// kRetransmitMax resends the op is left to anti-entropy.
constexpr double kRtoBackoff = 2.0;
constexpr double kRtoMaxS = 1.0;
constexpr uint32_t kRetransmitMax = 6;

IngestRouter::IngestRouter(net::Transport& net, IngestConfig cfg,
                           uint64_t seed,
                           std::shared_ptr<const MatchEngine> engine,
                           RingProvider ring, PProvider safe_p)
    : net_(net),
      cfg_(cfg),
      initial_window_(cfg.window_initial, cfg.window_max),
      engine_(std::move(engine)),
      ring_(std::move(ring)),
      safe_p_(std::move(safe_p)),
      rng_(seed),
      shards_(cfg_.shards == 0 ? 1 : cfg_.shards),
      ref_(engine_->base_store()) {
  if (cfg_.shards == 0) cfg_.shards = 1;
}

IngestRouter::~IngestRouter() {
  if (retransmit_armed_) net_.clock().cancel(retransmit_timer_);
}

void IngestRouter::start() {
  net_.bind(kUpdateServerAddr,
            [this](net::Address from, net::Payload payload) {
              (void)from;
              handle(from, payload);
            });
}

void IngestRouter::trace_event(uint64_t trace, core::TraceStage stage,
                               uint32_t actor, uint32_t part, uint32_t aux) {
  if (!tracer_) return;
  tracer_->record(trace_shard_, trace, stage, actor, part,
                  net_.clock().now(), 0.0, aux);
}

void IngestRouter::handle(net::Address from, net::ByteView payload) {
  (void)from;
  auto type = peek_type(payload);
  if (!type) return;
  switch (*type) {
    case MsgType::kUpdateAck:
      if (auto m = UpdateAckMsg::decode(payload)) on_ack(*m);
      break;
    case MsgType::kSyncReq:
      if (auto m = SyncReqMsg::decode(payload)) on_sync_req(*m);
      break;
    default:
      break;
  }
}

RingId IngestRouter::add_document(const pps::FileInfo& doc) {
  UpdateMsg op;
  op.op = UpdateMsg::kAdd;
  op.doc_id = rng_.next_ring_id();
  op.enc_seed = rng_.next_u64();
  op.path = doc.path;
  op.keywords = doc.content_keywords;
  op.size_bytes = doc.size_bytes;
  op.mtime = doc.mtime;
  RingId id = op.doc_id;
  commit(std::move(op));
  return id;
}

bool IngestRouter::delete_document(RingId doc_id) {
  Shard& sh = shards_[shard_of(doc_id, cfg_.shards)];
  bool ingested = sh.live_adds.count(doc_id.raw()) > 0;
  bool in_base = !sh.deleted_base.count(doc_id.raw()) &&
                 engine_->base_store()->slice(Arc(doc_id, 1)).count > 0;
  if (!ingested && !in_base) return false;
  UpdateMsg op;
  op.op = UpdateMsg::kDelete;
  op.doc_id = doc_id;
  commit(std::move(op));
  return true;
}

void IngestRouter::commit(UpdateMsg op) {
  uint32_t shard = shard_of(op.doc_id, cfg_.shards);
  Shard& sh = shards_[shard];
  op.shard = shard;
  op.lsn = sh.next_lsn++;
  // Deterministic end-to-end trace id, carried on every UPDATE carrying
  // this op (first send, retransmits, sync chunks, full segments).
  op.trace = core::ingest_trace_id(shard, op.lsn);
  ++ops_accepted_;
  TraceIdScope log_scope(op.trace);
  trace_event(op.trace, core::TraceStage::kUpdateIssued, shard, shard,
              op.op);

  // Catalog of live state, for full-segment transfers.
  if (op.op == UpdateMsg::kAdd) {
    sh.live_adds[op.doc_id.raw()] = op;
  } else if (sh.live_adds.erase(op.doc_id.raw()) == 0) {
    sh.deleted_base.insert(op.doc_id.raw());
  }

  sh.log.push_back(op);
  while (sh.log.size() > cfg_.log_retain) {
    sh.log.pop_front();
    ++sh.log_head;
  }

  apply_to_reference(op);

  for (NodeId id : replicas_of(shard)) {
    Peer& p = peer(id);
    p.queue.emplace_back(shard, op.lsn);
    pump(id, p);
  }
}

// --------------------------------------------------------- flow control

IngestRouter::Peer& IngestRouter::peer(NodeId id) {
  return peers_.try_emplace(id, initial_window_).first->second;
}

IngestRouter::FlowStats IngestRouter::flow(NodeId node) const {
  auto it = peers_.find(node);
  if (it == peers_.end()) return {initial_window_.cwnd(), 0, 0};
  return {it->second.win.cwnd(), it->second.outstanding.size(),
          it->second.queue.size()};
}

bool IngestRouter::send_logged(NodeId to, uint32_t shard, uint64_t lsn) {
  const Shard& sh = shards_[shard];
  if (lsn < sh.log_head || lsn >= sh.log_head + sh.log.size()) return false;
  const UpdateMsg& op = sh.log[lsn - sh.log_head];
  net_.send(kUpdateServerAddr, node_address(to), op.encode());
  ++updates_sent_;
  return true;
}

void IngestRouter::pump(NodeId id, Peer& p) {
  while (!p.queue.empty() && p.win.allows(p.outstanding.size())) {
    auto [shard, lsn] = p.queue.front();
    p.queue.pop_front();
    if (lsn <= acked_lsn(shard, id)) continue;  // acked while queued
    if (send_logged(id, shard, lsn)) {
      p.outstanding[{shard, lsn}] = {net_.clock().now(), cfg_.rto_initial_s,
                                     0};
    } else {
      ++flow_abandoned_;  // trimmed already; anti-entropy's problem
    }
  }
  if (!p.outstanding.empty()) arm_retransmit();
}

void IngestRouter::arm_retransmit() {
  if (retransmit_armed_) return;
  retransmit_armed_ = true;
  retransmit_timer_ = net_.clock().schedule_after(
      cfg_.retransmit_tick_s, [this] { retransmit_scan(); });
}

void IngestRouter::retransmit_scan() {
  retransmit_armed_ = false;
  double now = net_.clock().now();
  for (auto& [id, p] : peers_) {
    bool lost = false;
    for (auto it = p.outstanding.begin(); it != p.outstanding.end();) {
      OutOp& out = it->second;
      if (now - out.sent_at < out.rto_s) {
        ++it;
        continue;
      }
      lost = true;
      auto [shard, lsn] = it->first;
      if (out.retries >= kRetransmitMax || !send_logged(id, shard, lsn)) {
        ++flow_abandoned_;  // retry budget spent or log trimmed
        it = p.outstanding.erase(it);
        continue;
      }
      ++retransmits_;
      ++out.retries;
      out.sent_at = now;
      out.rto_s = std::min(kRtoMaxS, out.rto_s * kRtoBackoff);
      ++it;
    }
    if (lost) {
      // One multiplicative decrease per peer per scan, however many ops
      // timed out together — a loss EVENT, not a per-packet penalty.
      ++loss_events_;
      p.win.on_loss();
    }
    pump(id, p);  // re-arms the scan while anything is outstanding
  }
}

void IngestRouter::apply_to_reference(const UpdateMsg& op) {
  if (op.op == UpdateMsg::kAdd) {
    pps::FileInfo doc;
    doc.path = op.path;
    doc.content_keywords = op.keywords;
    doc.size_bytes = op.size_bytes;
    doc.mtime = op.mtime;
    ref_.add(engine_->encrypt_document(doc, op.doc_id, op.enc_seed));
    ref_.maybe_compact(cfg_.compact_overlay);
  } else {
    ref_.remove(op.doc_id);
    ref_.maybe_compact(cfg_.compact_overlay);
  }
}

std::vector<NodeId> IngestRouter::replicas_of(uint32_t shard) const {
  Arc arc = shard_arc(shard, cfg_.shards);
  core::Ring ring = ring_();
  uint32_t p = safe_p_();
  std::vector<NodeId> out;
  for (const auto& n : ring.nodes()) {
    if (!n.alive) continue;
    if (core::stored_object_arc(ring, n.id, p).intersects(arc)) {
      out.push_back(n.id);
    }
  }
  return out;
}

uint64_t IngestRouter::issued_lsn(uint32_t shard) const {
  return shards_.at(shard).next_lsn - 1;
}

uint64_t IngestRouter::acked_lsn(uint32_t shard, NodeId node) const {
  auto it = acked_.find({shard, node});
  return it == acked_.end() ? 0 : it->second;
}

uint64_t IngestRouter::watermark(uint32_t shard) const {
  std::vector<NodeId> reps = replicas_of(shard);
  if (reps.empty()) return issued_lsn(shard);
  uint64_t low = UINT64_MAX;
  for (NodeId id : reps) low = std::min(low, acked_lsn(shard, id));
  return low;
}

std::vector<RingId> IngestRouter::live_docs() const {
  std::vector<RingId> out;
  for (const auto& sh : shards_) {
    for (const auto& [raw, op] : sh.live_adds) out.push_back(RingId(raw));
  }
  return out;
}

void IngestRouter::on_ack(const UpdateAckMsg& m) {
  if (m.shard >= cfg_.shards) return;
  uint64_t& slot = acked_[{m.shard, m.node}];
  slot = std::max(slot, m.applied_lsn);

  // Credit return: the watermark clears every outstanding op it covers in
  // one sweep ((shard, lsn) keys are ordered, so the covered range is a
  // contiguous prefix of the shard's entries).
  Peer& p = peer(m.node);
  size_t cleared = 0;
  auto it = p.outstanding.lower_bound({m.shard, 0});
  while (it != p.outstanding.end() && it->first.first == m.shard &&
         it->first.second <= m.applied_lsn) {
    it = p.outstanding.erase(it);
    ++cleared;
  }
  p.win.on_ack(static_cast<double>(cleared));
  pump(m.node, p);
}

void IngestRouter::on_sync_req(const SyncReqMsg& m) {
  if (m.shard >= cfg_.shards) return;
  ++syncs_served_;
  const Shard& sh = shards_[m.shard];
  uint64_t issued = sh.next_lsn - 1;
  if (m.have_lsn >= issued) return;  // nothing new; silence is fine, the
                                     // requester asks again next interval

  // Chunk budget: at most sync_chunk_ops ops, stop growing past
  // sync_chunk_bytes of encoded payload; always at least one op so every
  // reply makes progress. The receiver credit-clocks the stream — each
  // applied chunk triggers the request for the next.
  size_t budget_ops = std::max<size_t>(1, cfg_.sync_chunk_ops);
  auto budget_full = [&](const SyncDataMsg& r, size_t bytes) {
    return r.ops.size() >= budget_ops ||
           (!r.ops.empty() && bytes >= cfg_.sync_chunk_bytes);
  };

  SyncDataMsg reply;
  reply.shard = m.shard;
  reply.issued_lsn = issued;
  reply.trace = m.trace;  // echo the clocking request's sync trace id
  size_t bytes = 0;
  if (m.have_lsn + 1 >= sh.log_head) {
    // Close enough: a contiguous log-suffix chunk after the requester's
    // LSN. The receiver re-requests while its applied LSN trails
    // issued_lsn, so the stream continues without a full round of the
    // sync interval per chunk.
    for (const auto& op : sh.log) {
      if (op.lsn <= m.have_lsn) continue;
      if (budget_full(reply, bytes)) break;
      reply.ops.push_back(op);
      bytes += op.encode().size();
    }
  } else {
    // Too far behind (log trimmed): authoritative live state for the
    // shard — adds of every live ingested doc plus deletes of every
    // removed boot-corpus doc, streamed in deterministic order (adds by
    // doc id, then base deletes by doc id) as credit-clocked chunks. The
    // generation stamp is issued_lsn: any commit changes it, which
    // restarts a stale stream from offset 0. The receiver reconciles
    // only once all total_ops chunks arrive (IngestLog::on_sync_data).
    reply.full_segment = 1;
    reply.total_ops = sh.live_adds.size() + sh.deleted_base.size();
    uint64_t start =
        m.segment_lsn == issued
            ? std::min<uint64_t>(m.chunk_offset, reply.total_ops)
            : 0;
    reply.chunk_offset = start;
    if (start == 0) ++full_segments_sent_;
    uint64_t pos = 0;
    for (const auto& [raw, op] : sh.live_adds) {
      if (pos++ < start) continue;
      if (budget_full(reply, bytes)) break;
      reply.ops.push_back(op);
      bytes += op.encode().size();
    }
    for (uint64_t raw : sh.deleted_base) {
      if (pos++ < start) continue;
      if (budget_full(reply, bytes)) break;
      UpdateMsg del;
      del.shard = m.shard;
      del.op = UpdateMsg::kDelete;
      del.doc_id = RingId(raw);
      reply.ops.push_back(del);
      bytes += del.encode().size();
    }
  }
  ++sync_chunks_sent_;
  trace_event(m.trace, core::TraceStage::kSyncChunk, m.node, m.shard,
              static_cast<uint32_t>(reply.ops.size()));
  net_.send(kUpdateServerAddr, node_address(m.node), reply.encode());
}

// ----------------------------------------------------------------- replica

IngestLog::IngestLog(net::Transport& net, NodeId node, IngestConfig cfg,
                     std::shared_ptr<const MatchEngine> engine)
    : net_(net),
      node_(node),
      cfg_(cfg),
      engine_(std::move(engine)),
      store_(engine_->base_store()) {
  if (cfg_.shards == 0) cfg_.shards = 1;
}

IngestLog::~IngestLog() { on_kill(); }

void IngestLog::on_start() {
  if (running_) return;
  running_ = true;
  timer_id_ = net_.clock().schedule_after(cfg_.sync_interval_s,
                                          [this] { sync_tick(); });
}

void IngestLog::on_kill() {
  if (!running_) return;
  running_ = false;
  net_.clock().cancel(timer_id_);
}

void IngestLog::trace_event(uint64_t trace, core::TraceStage stage,
                            uint32_t part, uint32_t aux) {
  if (!tracer_) return;
  tracer_->record(trace_shard_, trace, stage, node_, part,
                  net_.clock().now(), 0.0, aux);
}

void IngestLog::apply(const UpdateMsg& m, bool charge) {
  TraceIdScope log_scope(m.trace);
  trace_event(m.trace, core::TraceStage::kUpdateApplied, m.shard,
              static_cast<uint32_t>(m.op));
  if (m.op == UpdateMsg::kAdd) {
    pps::FileInfo doc;
    doc.path = m.path;
    doc.content_keywords = m.keywords;
    doc.size_bytes = m.size_bytes;
    doc.mtime = m.mtime;
    store_.add(engine_->encrypt_document(doc, m.doc_id, m.enc_seed));
  } else {
    store_.remove(m.doc_id);
  }
  // Both branches: a delete-only stream grows the tombstone list (and
  // the per-op copy-on-write cost) just like adds grow the delta.
  store_.maybe_compact(cfg_.compact_overlay);
  if (charge && hooks_.charge) hooks_.charge();
  ++ops_applied_;
}

void IngestLog::on_update(const UpdateMsg& m) {
  if (m.shard >= cfg_.shards) return;
  ShardState& st = shards_[m.shard];
  if (m.lsn <= st.applied) return;  // duplicate
  if (m.lsn == st.applied + 1) {
    apply(m);
    st.applied = m.lsn;
    drain_and_ack(m.shard);
    return;
  }
  // Gap: a predecessor was lost or is still in flight. Buffer, and ask
  // the router once per gap episode (the periodic sync covers the rest).
  bool first_gap = st.pending.empty();
  buffer_pending(st, m);
  if (first_gap) request_sync(m.shard);
}

void IngestLog::buffer_pending(ShardState& st, const UpdateMsg& m) {
  if (st.pending.count(m.lsn)) return;  // duplicate
  st.pending[m.lsn] = m;
  size_t cap = std::max<size_t>(1, cfg_.pending_cap);
  if (st.pending.size() > cap) {
    // At the cap, drop the LARGEST buffered LSN (possibly the one just
    // inserted): it is the farthest from becoming contiguous, and resync
    // re-fetches it anyway. The buffer never exceeds pending_cap — the
    // bounded-memory invariant ingest_safety_report enforces.
    st.pending.erase(std::prev(st.pending.end()));
    ++pending_evictions_;
  }
  pending_hwm_ = std::max(pending_hwm_, st.pending.size());
}

size_t IngestLog::pending_size(uint32_t shard) const {
  auto it = shards_.find(shard);
  return it == shards_.end() ? 0 : it->second.pending.size();
}

void IngestLog::apply_full_segment(uint32_t shard,
                                   std::span<const UpdateMsg> ops) {
  // Authoritative restart for the shard. The local shard state cannot be
  // rebuilt by "clear overlay + replay": compaction may have folded
  // ingested docs into the replica's base segment, where no overlay
  // reset reaches them. Instead, RECONCILE against the segment: the
  // authoritative live set is (boot corpus ∩ shard − segment deletes) ∪
  // segment adds, and the boot corpus is always available as the
  // engine's immutable base store.
  Arc arc = shard_arc(shard, cfg_.shards);
  std::set<uint64_t> segment_adds;
  for (const auto& op : ops) {
    if (op.op == UpdateMsg::kAdd) segment_adds.insert(op.doc_id.raw());
  }

  auto present = [this](RingId id) {
    auto snap = store_.snapshot();
    if (snap->is_dead(id)) return false;
    Arc point(id, 1);
    return (snap->base && snap->base->slice(point).count > 0) ||
           (snap->delta && snap->delta->slice(point).count > 0);
  };
  auto in_boot = [this](RingId id) {
    return engine_->base_store()->slice(Arc(id, 1)).count > 0;
  };

  // 1) Remove stale ingested docs: live locally, not in the segment's
  // adds, not boot-corpus — e.g. a compacted-in doc whose delete the
  // replica missed while it was down.
  auto snap = store_.snapshot();
  std::vector<uint64_t> local;
  auto collect = [&](const std::shared_ptr<const pps::MetadataStore>& s) {
    if (!s) return;
    auto slice = s->slice(arc);
    for (auto [first, last] : slice.extents) {
      for (size_t i = first; i < last; ++i) {
        const RingId id = s->items()[i].id;
        if (!snap->is_dead(id)) local.push_back(id.raw());
      }
    }
  };
  collect(snap->base);
  collect(snap->delta);
  for (uint64_t raw : local) {
    RingId id(raw);
    if (!segment_adds.count(raw) && !in_boot(id)) {
      UpdateMsg del;
      del.shard = shard;
      del.op = UpdateMsg::kDelete;
      del.doc_id = id;
      apply(del);
    }
  }

  // 2) Apply the segment: deletes idempotently, adds only where absent
  // (a compacted-in doc is already present in the base — re-adding it
  // would double-count it). Charges were prepaid at chunk receipt.
  for (const auto& op : ops) {
    if (op.op == UpdateMsg::kDelete) {
      if (present(op.doc_id)) apply(op, /*charge=*/false);
    } else if (!present(op.doc_id)) {
      apply(op, /*charge=*/false);
    }
  }
  ++full_segments_applied_;
}

void IngestLog::on_sync_data(const SyncDataMsg& m) {
  if (m.shard >= cfg_.shards) return;
  ShardState& st = shards_[m.shard];
  if (m.full_segment) {
    // Staleness guard: a duplicated or reordered segment built before
    // ops we have since applied would reconcile us BACKWARDS — and with
    // the LSN already past its issued_lsn, anti-entropy would never
    // notice the divergence. Drop it; a fresher reply is on its way.
    if (m.issued_lsn < st.applied) {
      if (st.full_active && st.full_gen <= st.applied) {
        // The stream we were accumulating is itself stale — abandon it
        // rather than re-requesting chunks of a dead generation.
        st.full_active = false;
        st.full_buf.clear();
        kick_full_wait();
      }
      return;
    }
    // Chunked accumulation, pinned to the generation stamp (issued_lsn):
    // chunks append strictly in order; anything else — a duplicate, a
    // reorder, a chunk of a superseded generation — is dropped, and the
    // resume fields in the next SYNC_REQ re-fetch from the right offset.
    if (!st.full_active || st.full_gen != m.issued_lsn) {
      // A mid-stream chunk of a stream we are not accumulating.
      if (m.chunk_offset != 0) return;
      if (full_stream_busy(m.shard)) {
        // Per-replica credit: one full-segment stream at a time, so the
        // pacing delay bounds the NODE's resync duty cycle no matter how
        // many shards need catching up. Defer this shard; it restarts
        // when the active stream finishes (or at the next sync tick).
        full_wait_.insert(m.shard);
        return;
      }
      full_wait_.erase(m.shard);
      st.full_active = true;
      st.full_gen = m.issued_lsn;
      st.full_total = m.total_ops;
      st.full_buf.clear();
    } else if (m.chunk_offset != st.full_buf.size() ||
               m.total_ops != st.full_total) {
      return;
    }
    st.full_buf.insert(st.full_buf.end(), m.ops.begin(), m.ops.end());
    ++full_chunks_received_;
    // Pay the per-op capacity charge NOW, as the chunk is decoded and
    // staged — the whole point of chunking is that the §7.3.4 apply cost
    // lands spread across the paced transfer instead of bursting onto
    // the query pipeline when the segment completes.
    if (hooks_.charge) {
      for (size_t i = 0; i < m.ops.size(); ++i) hooks_.charge();
    }
    if (st.full_buf.size() < st.full_total) {
      // Credit return: pull the next chunk after the pacing delay instead
      // of waiting a full sync interval per chunk.
      schedule_chunk_request(m.shard);
      return;
    }
    std::vector<UpdateMsg> ops = std::move(st.full_buf);
    st.full_active = false;
    st.full_buf.clear();
    apply_full_segment(m.shard, ops);
    // Op LSNs in a full segment are not sequenced — the watermark jumps
    // straight to the segment's generation.
    st.applied = std::max(st.applied, st.full_gen);
    kick_full_wait();
  } else {
    for (const auto& op : m.ops) {
      if (op.lsn == st.applied + 1) {
        apply(op);
        st.applied = op.lsn;
      } else if (op.lsn > st.applied) {
        buffer_pending(st, op);
      }
    }
  }
  drain_and_ack(m.shard);
  // Credit return for an incremental stream: still behind the router with
  // nothing buffered to bridge the gap — pull the next chunk after the
  // pacing delay instead of waiting out the sync interval.
  if (!m.full_segment && st.pending.empty() && st.applied < m.issued_lsn) {
    schedule_chunk_request(m.shard);
  }
}

bool IngestLog::full_stream_busy(uint32_t shard) const {
  for (const auto& [s, st] : shards_) {
    if (s != shard && st.full_active) return true;
  }
  return false;
}

void IngestLog::kick_full_wait() {
  if (full_wait_.empty()) return;
  uint32_t next = *full_wait_.begin();
  full_wait_.erase(full_wait_.begin());
  // A plain SYNC_REQ after the pacing delay: if the shard caught up via
  // incremental ops in the meantime the router simply has nothing for it.
  schedule_chunk_request(next);
}

void IngestLog::schedule_chunk_request(uint32_t shard) {
  if (cfg_.sync_credit_delay_s <= 0) {
    request_sync(shard);
    return;
  }
  net_.clock().schedule_after(cfg_.sync_credit_delay_s, [this, shard] {
    if (!running_) return;
    if (hooks_.alive && !hooks_.alive()) return;
    // A stale extra request is harmless: the router answers only when the
    // requester is behind, and mis-offset chunks are dropped on arrival.
    request_sync(shard);
  });
}

void IngestLog::drain_and_ack(uint32_t shard) {
  ShardState& st = shards_[shard];
  // Buffered ops made contiguous by what just applied.
  while (!st.pending.empty()) {
    auto it = st.pending.begin();
    if (it->first <= st.applied) {
      st.pending.erase(it);
    } else if (it->first == st.applied + 1) {
      apply(it->second);
      st.applied = it->first;
      st.pending.erase(it);
    } else {
      break;
    }
  }
  if (st.full_active && st.full_gen <= st.applied) {
    // Updates overtook the full-segment stream's generation: reconciling
    // it now would be a no-op at best. Drop the accumulation.
    st.full_active = false;
    st.full_buf.clear();
    kick_full_wait();
  }
  UpdateAckMsg ack;
  ack.node = node_;
  ack.shard = shard;
  ack.applied_lsn = st.applied;
  net_.send(node_address(node_), kUpdateServerAddr, ack.encode());
}

void IngestLog::request_sync(uint32_t shard) {
  SyncReqMsg req;
  req.node = node_;
  req.shard = shard;
  req.trace = core::sync_trace_id(node_, shard);
  req.have_lsn = applied_lsn(shard);
  trace_event(req.trace, core::TraceStage::kSyncReq, shard);
  auto it = shards_.find(shard);
  if (it != shards_.end() && it->second.full_active) {
    // Resume the in-progress full-segment stream: the router serves from
    // chunk_offset iff segment_lsn still matches its issued LSN,
    // otherwise it restarts the stream at offset 0.
    req.segment_lsn = it->second.full_gen;
    req.chunk_offset = it->second.full_buf.size();
  }
  net_.send(node_address(node_), kUpdateServerAddr, req.encode());
  ++syncs_requested_;
}

void IngestLog::sync_tick() {
  if (!running_) return;
  bool alive = !hooks_.alive || hooks_.alive();
  Arc stored = hooks_.stored_arc ? hooks_.stored_arc() : Arc();
  if (alive && !stored.empty()) {
    for (uint32_t s = 0; s < cfg_.shards; ++s) {
      if (shard_arc(s, cfg_.shards).intersects(stored)) request_sync(s);
    }
  }
  timer_id_ = net_.clock().schedule_after(cfg_.sync_interval_s,
                                          [this] { sync_tick(); });
}

uint64_t IngestLog::applied_lsn(uint32_t shard) const {
  auto it = shards_.find(shard);
  return it == shards_.end() ? 0 : it->second.applied;
}

std::map<uint32_t, uint64_t> IngestLog::applied() const {
  std::map<uint32_t, uint64_t> out;
  for (const auto& [shard, st] : shards_) out[shard] = st.applied;
  return out;
}

// ------------------------------------------------------------- invariants

std::vector<std::string> ingest_safety_report(
    const IngestRouter& router,
    std::span<const IngestReplicaView> replicas) {
  std::vector<std::string> out;
  for (uint32_t s = 0; s < router.shards(); ++s) {
    uint64_t issued = router.issued_lsn(s);
    for (const auto& rep : replicas) {
      if (!rep.log) continue;
      uint64_t applied = rep.log->applied_lsn(s);
      if (applied > issued) {
        out.push_back("node " + std::to_string(rep.node) + " shard " +
                      std::to_string(s) + " applied LSN " +
                      std::to_string(applied) + " exceeds issued " +
                      std::to_string(issued));
      }
      uint64_t acked = router.acked_lsn(s, rep.node);
      if (acked > applied) {
        out.push_back("node " + std::to_string(rep.node) + " shard " +
                      std::to_string(s) + " acked " + std::to_string(acked) +
                      " beyond its applied LSN " + std::to_string(applied));
      }
    }
  }
  // Flow-control bounds, checkable at ANY instant: the AIMD window stays
  // in [1, window_max], in-flight never exceeds the window ceiling, and
  // the out-of-order buffer never exceeds its cap (the bounded-memory
  // guarantee the pending_cap bugfix exists for).
  const IngestConfig& cfg = router.config();
  for (const auto& rep : replicas) {
    if (!rep.log) continue;
    auto f = router.flow(rep.node);
    if (f.cwnd < 1.0 || f.cwnd > cfg.window_max + 1e-9) {
      out.push_back("node " + std::to_string(rep.node) + " cwnd " +
                    std::to_string(f.cwnd) + " outside [1, " +
                    std::to_string(cfg.window_max) + "]");
    }
    size_t ceiling = static_cast<size_t>(cfg.window_max) + 1;
    if (f.in_flight > ceiling) {
      out.push_back("node " + std::to_string(rep.node) + " in-flight " +
                    std::to_string(f.in_flight) + " exceeds window ceiling " +
                    std::to_string(ceiling));
    }
    size_t cap = std::max<size_t>(1, cfg.pending_cap);
    if (rep.log->pending_hwm() > cap) {
      out.push_back("node " + std::to_string(rep.node) +
                    " pending high-water mark " +
                    std::to_string(rep.log->pending_hwm()) +
                    " exceeds pending_cap " + std::to_string(cap));
    }
  }
  return out;
}

std::vector<std::string> ingest_convergence_report(
    const IngestRouter& router,
    std::span<const IngestReplicaView> replicas, bool probe_matches) {
  std::vector<std::string> out;
  auto ref_snap = router.reference().snapshot();
  for (uint32_t s = 0; s < router.shards(); ++s) {
    uint64_t issued = router.issued_lsn(s);
    Arc arc = shard_arc(s, router.shards());
    MatchEngine::Window window;
    window.arc = arc;
    MatchEngine::Result ref{};
    bool ref_done = false;
    for (const auto& rep : replicas) {
      if (!rep.log || !rep.stored.intersects(arc)) continue;
      uint64_t applied = rep.log->applied_lsn(s);
      if (applied != issued) {
        out.push_back("node " + std::to_string(rep.node) + " shard " +
                      std::to_string(s) + " applied LSN " +
                      std::to_string(applied) + " != issued " +
                      std::to_string(issued));
        continue;
      }
      if (!probe_matches) continue;
      if (!ref_done) {
        ref = router.engine().execute(window, *ref_snap);
        ref_done = true;
      }
      MatchEngine::Result got =
          router.engine().execute(window, *rep.log->snapshot());
      if (got.scanned != ref.scanned || got.matches != ref.matches) {
        out.push_back(
            "node " + std::to_string(rep.node) + " shard " +
            std::to_string(s) + " probe (" + std::to_string(got.scanned) +
            " scanned, " + std::to_string(got.matches) +
            " matches) != reference (" + std::to_string(ref.scanned) + ", " +
            std::to_string(ref.matches) + ")");
      }
    }
  }
  return out;
}

}  // namespace roar::cluster
