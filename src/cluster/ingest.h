// Live index ingestion & replica synchronization (§6.3, §7.4).
//
// The seed system loaded an immutable corpus at boot; this subsystem turns
// the cluster into a read/write search index that keeps answering queries
// (and reconfiguring, and surviving chaos-scenario faults) while documents
// are added and removed.
//
// Roles:
//
//  * IngestRouter — lives with the front-end on the control process, bound
//    at kUpdateServerAddr. Accepts AddDocument/DeleteDocument, assigns each
//    op a per-shard monotonically increasing log sequence number (LSN),
//    appends it to the shard's retained log, applies it to its own
//    reference VersionedStore (the authoritative materialized state), and
//    replicates it as an UpdateMsg to every current replica of the owning
//    shard. It also serves anti-entropy: SYNC_REQ in, SYNC_DATA out —
//    incremental log suffix when the requester is close, full-segment
//    state transfer when its LSN predates the retained log.
//
//  * IngestLog — one per storage node. Applies ops in strict LSN order per
//    shard to the node's own pps::VersionedStore (copy-on-write over the
//    engine's shared base corpus), buffers out-of-order arrivals, acks its
//    applied watermark, and runs a periodic SyncSession: for every shard
//    its stored arc intersects, ask the router for anything after its
//    applied LSN. That one mechanism recovers from dropped updates,
//    crashes + revivals, partitions, joins, and range movement — a replica
//    converges whenever it can exchange two messages with the router.
//
// Sharding: ingestion uses a FIXED number of equal ring arcs (`shards`),
// independent of the query partitioning p (which reconfigures on the fly).
// A node replicates shard s iff its stored object arc intersects s's arc;
// it then applies s's WHOLE history, so any two replicas of s hold
// byte-identical live state for s — that is what makes the convergence
// invariant ("identical applied-LSN and identical match results per
// shard") checkable, and it strictly contains the per-document replica
// set, so no query can miss an ingested document.
//
// Determinism: an added document's ciphertext is produced independently by
// every replica from (doc fields, doc_id, enc_seed) — the router picks
// enc_seed, each replica seeds its encoder Rng with it, so replicas agree
// byte-for-byte without shipping ciphertexts.
//
// Threading: everything here runs on the owning endpoint's loop thread.
// The only cross-thread artifact is the StoreSnapshot a node pins per
// sub-query batch and hands to MatchEngine worker lanes (see
// pps/versioned_store.h for the snapshot-swap contract).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cluster/match_engine.h"
#include "cluster/protocol.h"
#include "common/rng.h"
#include "core/cc.h"
#include "core/reconfig.h"
#include "core/tracer.h"
#include "net/transport.h"
#include "pps/versioned_store.h"

namespace roar::cluster {

struct IngestConfig {
  // Fixed ingest partitioning of the ring (NOT the query p).
  uint32_t shards = 8;
  // Replica anti-entropy period: every interval, a node asks the router
  // for news on every shard it covers.
  double sync_interval_s = 0.25;
  // Ops retained per shard log; a SYNC_REQ from further behind gets a
  // full-segment transfer instead of an incremental suffix.
  size_t log_retain = 1024;
  // VersionedStore overlay entries before the node folds delta +
  // tombstones into a fresh base segment.
  size_t compact_overlay = 512;

  // --- flow control (windowed, credit-based write path) -------------------
  // Replication window: outstanding unacked UPDATEs per destination node
  // are capped by the AIMD window of core/cc.h, in [1, window_max]. Each
  // UPDATE an ack watermark clears is one credit; a retransmit timeout is
  // a loss. Ops beyond the window queue at the router and drain as
  // UPDATE_ACK watermarks return credit.
  double window_initial = 4.0;
  double window_max = 64.0;
  // Per-op retransmit: an unacked UPDATE is resent after its RTO (doubling
  // from rto_initial_s, capped in ingest.cc) a bounded number of times,
  // then abandoned to anti-entropy. The scan timer runs every
  // retransmit_tick_s while anything is outstanding.
  double rto_initial_s = 0.05;
  double retransmit_tick_s = 0.025;
  // Sync chunk budget: one SYNC_DATA reply carries at most sync_chunk_ops
  // ops and stops growing once sync_chunk_bytes of encoded op payload is
  // reached (at least one op always ships). Keeps every frame far below
  // net::kMaxFrameBytes and lets the receiver credit-clock the stream.
  size_t sync_chunk_ops = 64;
  size_t sync_chunk_bytes = 256 * 1024;
  // Credit pacing: after applying one sync chunk the replica waits this
  // long before requesting the next, bounding the rate at which a
  // background resync steals matching capacity (§7.3.4) from queries.
  // 0 = pull the next chunk immediately.
  double sync_credit_delay_s = 0.02;
  // Out-of-order buffer cap per (shard, replica): at the cap the largest
  // buffered LSN is evicted (counted in pending_evictions) and the gap
  // healed by resync instead of unbounded buffering.
  size_t pending_cap = 128;
};

// Shard geometry. shard_of(id) is the s with shard_arc(s).contains(id);
// the `shards` arcs tile the ring exactly.
uint32_t shard_of(RingId id, uint32_t shards);
Arc shard_arc(uint32_t shard, uint32_t shards);

class IngestRouter;

// Issues one random workload op against the router: with probability
// `delete_frac` (and a non-empty index) the delete of a random live doc,
// otherwise the add of a deterministic synthetic document. The single
// sampler shared by harness streams and scenario events, so bench and
// chaos workloads cannot drift apart.
void issue_random_ingest_op(IngestRouter& router, Rng& rng,
                            double delete_frac);

// ------------------------------------------------------------------ router

class IngestRouter {
 public:
  // `ring` must return the authoritative membership ring (positions,
  // liveness); `safe_p` the current safe partitioning level — together
  // they define each shard's current replica set.
  using RingProvider = std::function<core::Ring()>;
  using PProvider = std::function<uint32_t()>;

  IngestRouter(net::Transport& net, IngestConfig cfg, uint64_t seed,
               std::shared_ptr<const MatchEngine> engine, RingProvider ring,
               PProvider safe_p);
  ~IngestRouter();

  // Binds kUpdateServerAddr (acks and sync requests arrive there).
  void start();

  // --- client face -------------------------------------------------------
  // Logs, applies and replicates one op. add_document assigns the ring id
  // and encryption seed and returns the id (callers keep it to delete).
  RingId add_document(const pps::FileInfo& doc);
  // False iff `doc_id` names no live document (unknown or already
  // deleted); nothing is logged then.
  bool delete_document(RingId doc_id);

  // --- state -------------------------------------------------------------
  uint32_t shards() const { return cfg_.shards; }
  const IngestConfig& config() const { return cfg_; }
  // Latest LSN issued for `shard` (0 = none yet).
  uint64_t issued_lsn(uint32_t shard) const;
  // Last applied-LSN `node` acked for `shard` (0 = never acked).
  uint64_t acked_lsn(uint32_t shard, NodeId node) const;
  // Min acked LSN over the shard's *current* replicas — the replication
  // watermark: everything at or below it is applied cluster-wide.
  uint64_t watermark(uint32_t shard) const;
  // The authoritative materialized state (reference for probes).
  const pps::VersionedStore& reference() const { return ref_; }
  const MatchEngine& engine() const { return *engine_; }
  // Ids of currently live (added and not deleted) ingested documents.
  std::vector<RingId> live_docs() const;

  // --- flow-control observability ----------------------------------------
  // Congestion state of the replication stream to one destination node.
  struct FlowStats {
    double cwnd = 0.0;     // AIMD window, in [1, window_max]
    size_t in_flight = 0;  // sent, unacked, not yet abandoned
    size_t queued = 0;     // committed ops waiting for window credit
  };
  FlowStats flow(NodeId node) const;

  // --- observability -----------------------------------------------------
  // Attaches the cluster tracer; `shard` is the trace ring the router
  // writes (it shares the control process's loop — shard 0 under both
  // harnesses). Each committed op gets ingest_trace_id(shard, lsn) and a
  // kUpdateIssued span; each served sync chunk gets a kSyncChunk span on
  // the clocking request's sync_trace_id.
  void set_tracer(core::Tracer* tracer, size_t trace_shard) {
    tracer_ = tracer;
    trace_shard_ = trace_shard;
  }

  // --- counters ----------------------------------------------------------
  uint64_t ops_accepted() const { return ops_accepted_; }
  uint64_t updates_sent() const { return updates_sent_; }
  uint64_t syncs_served() const { return syncs_served_; }
  uint64_t full_segments_sent() const { return full_segments_sent_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t loss_events() const { return loss_events_; }
  // Ops the flow layer gave up on (retry budget spent or log trimmed);
  // anti-entropy heals them.
  uint64_t flow_abandoned() const { return flow_abandoned_; }
  uint64_t sync_chunks_sent() const { return sync_chunks_sent_; }

 private:
  struct Shard {
    uint64_t next_lsn = 1;
    uint64_t log_head = 1;  // LSN of log.front() when non-empty
    std::deque<UpdateMsg> log;
    // Authoritative live state, for full-segment transfers: add ops of
    // live ingested docs (by raw id) + deleted boot-corpus ids.
    std::map<uint64_t, UpdateMsg> live_adds;
    std::set<uint64_t> deleted_base;
  };

  // One in-flight UPDATE to one destination.
  struct OutOp {
    double sent_at = 0.0;
    double rto_s = 0.0;
    uint32_t retries = 0;
  };
  // Per-destination congestion state. `outstanding` is keyed (shard, lsn)
  // so an UPDATE_ACK's watermark clears every covered entry in one sweep.
  struct Peer {
    explicit Peer(core::AimdWindow w) : win(w) {}
    core::AimdWindow win;
    std::map<std::pair<uint32_t, uint64_t>, OutOp> outstanding;
    std::deque<std::pair<uint32_t, uint64_t>> queue;
  };

  void handle(net::Address from, net::ByteView payload);
  void on_ack(const UpdateAckMsg& m);
  void on_sync_req(const SyncReqMsg& m);
  // Assigns the LSN, catalogs, trims the log, applies to the reference
  // store, and replicates to the shard's current replicas.
  void commit(UpdateMsg op);
  void apply_to_reference(const UpdateMsg& op);
  std::vector<NodeId> replicas_of(uint32_t shard) const;
  // --- flow control -------------------------------------------------------
  Peer& peer(NodeId id);
  // Sends from the retained log; false when the LSN was trimmed away.
  bool send_logged(NodeId to, uint32_t shard, uint64_t lsn);
  // Drains the peer's queue into the (possibly re-grown) window; the one
  // place an op is first sent (commit queues each op, then pumps).
  void pump(NodeId id, Peer& p);
  void arm_retransmit();
  void retransmit_scan();

  void trace_event(uint64_t trace, core::TraceStage stage, uint32_t actor,
                   uint32_t part, uint32_t aux = 0);

  net::Transport& net_;
  IngestConfig cfg_;
  core::AimdWindow initial_window_;  // every peer's starting window
  std::shared_ptr<const MatchEngine> engine_;
  RingProvider ring_;
  PProvider safe_p_;
  core::Tracer* tracer_ = nullptr;
  size_t trace_shard_ = 0;
  Rng rng_;
  std::vector<Shard> shards_;
  pps::VersionedStore ref_;
  std::map<std::pair<uint32_t, NodeId>, uint64_t> acked_;
  std::map<NodeId, Peer> peers_;
  uint64_t retransmit_timer_ = 0;
  bool retransmit_armed_ = false;
  uint64_t ops_accepted_ = 0;
  uint64_t updates_sent_ = 0;
  uint64_t syncs_served_ = 0;
  uint64_t full_segments_sent_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t loss_events_ = 0;
  uint64_t flow_abandoned_ = 0;
  uint64_t sync_chunks_sent_ = 0;
};

// ----------------------------------------------------------------- replica

class IngestLog {
 public:
  struct Hooks {
    // The node's current stored object arc (range extended 1/p back) —
    // defines which shards this replica covers.
    std::function<Arc()> stored_arc;
    // Charges one applied op's cost against the node's matching capacity
    // (§7.3.4: updates steal matching time).
    std::function<void()> charge;
    std::function<bool()> alive;
  };

  IngestLog(net::Transport& net, NodeId node, IngestConfig cfg,
            std::shared_ptr<const MatchEngine> engine);
  ~IngestLog();

  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  // Lifecycle, driven by the owning NodeRuntime. The log (like the data
  // it stores) SURVIVES a crash: on_kill only stops the sync timer; a
  // revived node resumes from its applied LSNs and catches up.
  void on_start();
  void on_kill();

  // Message entry points (loop thread).
  void on_update(const UpdateMsg& m);
  void on_sync_data(const SyncDataMsg& m);

  // Attaches the cluster tracer; `shard` is the trace ring this replica
  // writes — its owning node's reactor shard (NodeRuntime::set_tracer
  // forwards here). Applied ops record kUpdateApplied on the op's trace
  // id; sync requests record kSyncReq on sync_trace_id(node, shard).
  void set_tracer(core::Tracer* tracer, size_t trace_shard) {
    tracer_ = tracer;
    trace_shard_ = trace_shard;
  }

  // The versioned view sub-query resolution pins per batch.
  std::shared_ptr<const pps::StoreSnapshot> snapshot() const {
    return store_.snapshot();
  }
  pps::VersionedStore& store() { return store_; }

  // Contiguously applied LSN for `shard` (0 = nothing applied).
  uint64_t applied_lsn(uint32_t shard) const;
  std::map<uint32_t, uint64_t> applied() const;

  uint64_t ops_applied() const { return ops_applied_; }
  uint64_t syncs_requested() const { return syncs_requested_; }
  uint64_t full_segments_applied() const { return full_segments_applied_; }
  // Out-of-order buffer accounting: evictions past pending_cap, and the
  // buffer-size high-water mark (always <= pending_cap — the bounded-
  // buffer invariant the chaos soak asserts).
  uint64_t pending_evictions() const { return pending_evictions_; }
  size_t pending_hwm() const { return pending_hwm_; }
  size_t pending_size(uint32_t shard) const;
  // Chunked full-segment transfer accounting.
  uint64_t full_chunks_received() const { return full_chunks_received_; }

 private:
  struct ShardState {
    uint64_t applied = 0;
    std::map<uint64_t, UpdateMsg> pending;  // out-of-order buffer (capped)
    // Chunked full-segment accumulation. A stream is pinned to the
    // generation (`full_gen` = the segment's issued LSN); chunks append
    // in order and the segment reconciles only once complete.
    bool full_active = false;
    uint64_t full_gen = 0;
    uint64_t full_total = 0;
    std::vector<UpdateMsg> full_buf;
  };

  // `charge` = false applies an op whose capacity cost was already paid
  // at chunk receipt (full-segment streams charge per chunk so the cost
  // is spread across the paced transfer, not burst at reconcile time).
  void apply(const UpdateMsg& m, bool charge = true);
  // Reconciles local shard state with an authoritative full segment
  // (compaction-safe: works even when ingested docs were folded into the
  // replica's base segment).
  void apply_full_segment(uint32_t shard, std::span<const UpdateMsg> ops);
  // Capped out-of-order insert; evicts the largest LSN past pending_cap.
  void buffer_pending(ShardState& st, const UpdateMsg& m);
  // Applies buffered ops that became contiguous; acks the new watermark.
  void drain_and_ack(uint32_t shard);
  // Carries the chunk-resume fields when a full-segment stream is active.
  void request_sync(uint32_t shard);
  // Credit return for a chunked stream: re-requests after
  // sync_credit_delay_s (immediately when the delay is 0).
  void schedule_chunk_request(uint32_t shard);
  // True when a full-segment stream other than `shard`'s is mid-flight.
  // Full transfers are serialized PER REPLICA: the pacing budget bounds
  // the node's total resync capacity, not one shard's share of it.
  bool full_stream_busy(uint32_t shard) const;
  // Starts the next queued full-segment catch-up, if any.
  void kick_full_wait();
  void sync_tick();

  void trace_event(uint64_t trace, core::TraceStage stage, uint32_t part,
                   uint32_t aux = 0);

  net::Transport& net_;
  NodeId node_;
  IngestConfig cfg_;
  std::shared_ptr<const MatchEngine> engine_;
  Hooks hooks_;
  pps::VersionedStore store_;
  std::map<uint32_t, ShardState> shards_;
  core::Tracer* tracer_ = nullptr;
  size_t trace_shard_ = 0;
  uint64_t timer_id_ = 0;
  bool running_ = false;
  uint64_t ops_applied_ = 0;
  uint64_t syncs_requested_ = 0;
  uint64_t full_segments_applied_ = 0;
  uint64_t pending_evictions_ = 0;
  size_t pending_hwm_ = 0;
  uint64_t full_chunks_received_ = 0;
  // Shards whose full-segment catch-up is deferred behind the one
  // active stream (per-replica serialization).
  std::set<uint32_t> full_wait_;
};

// ------------------------------------------------------------- invariants

// One live replica's view, for the convergence/safety reports. `stored`
// is the node's current stored object arc.
struct IngestReplicaView {
  NodeId node = 0;
  const IngestLog* log = nullptr;
  Arc stored;
};

// Safety: properties that must hold at ANY instant, mid-stream included —
// no replica's applied LSN exceeds the router's issued LSN, and no acked
// watermark exceeds what the replica actually applied. Returns
// human-readable violations (empty = clean).
std::vector<std::string> ingest_safety_report(
    const IngestRouter& router, std::span<const IngestReplicaView> replicas);

// Convergence: quiescent-state equality. For every shard, every current
// replica has applied exactly the router's issued LSN, and (when
// `probe_matches`) scanning the shard's arc through the replica's
// snapshot yields the identical (live-scanned, matches) the router's
// reference state yields. Empty = fully converged; used as the
// settle-window invariant by the scenario engine and as the wait
// predicate by harness drain loops.
std::vector<std::string> ingest_convergence_report(
    const IngestRouter& router, std::span<const IngestReplicaView> replicas,
    bool probe_matches);

}  // namespace roar::cluster
