#include "cluster/cluster.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "common/rng.h"

namespace roar::cluster {

// Seed streams are shared by both substrates (common/rng.h subseed), so
// the same `seed` yields the same membership positions and front-end
// decisions on either — the InProc-vs-TCP parity tests depend on it.
Cluster::Cluster(uint64_t seed, size_t trace_shards)
    : tracer_(trace_shards),
      membership_(core::MembershipConfig{},
                  subseed(seed, SeedStream::kMembership)) {}

void Cluster::assemble(ClusterCoreConfig& config,
                       const std::vector<sim::ServerClass>& classes,
                       bool real_matching, ControlPlaneParams control) {
  config_ = &config;
  config.frontend.p = config.p;
  config.frontend.subquery_overhead_s = config.node_proto.subquery_overhead_s;
  if (config.frontends == 0) config.frontends = 1;

  uint32_t n_nodes = 0;
  double agg_rate = 0.0;
  for (const auto& cls : classes) {
    agg_rate += cls.count * cls.speed * config.node_proto.base_rate;
    n_nodes += cls.count;
  }
  if (agg_rate > 0 && n_nodes > 0) {
    double scan_s = static_cast<double>(config.dataset_size) / agg_rate;
    double overhead_s = config.node_proto.subquery_overhead_s * config.p /
                        std::max(1u, n_nodes);
    rated_capacity_qps_ = 1.0 / (scan_s + overhead_s);
  }
  if (config.slo.enabled) {
    // One contract spec feeds everything: the admission controller every
    // frontend runs, the Spang bounds every node enforces, and (with
    // adaptive p) the latency target the p controller holds.
    double per_node_subq =
        rated_capacity_qps_ * config.p / std::max(1u, n_nodes);
    core::ResolvedSlo r = core::resolve_slo(
        config.slo, rated_capacity_qps_, per_node_subq, config.frontends);
    config.frontend.slo_enabled = true;
    config.frontend.admission = r.admission;
    if (config.node_proto.max_backlog_s <= 0) {
      config.node_proto.max_backlog_s = r.node_max_backlog_s;
    }
    if (config.node_proto.exec_queue_cap == 0) {
      config.node_proto.exec_queue_cap = r.node_exec_queue_cap;
    }
    if (control.adaptive) control.adaptive_params.target_p99_s = r.target_p99_s;
  }

  // The control plane, the front-ends and the update server share one
  // endpoint, as they share a process in the paper's deployment.
  net::Transport& endpoint = control_transport();
  control.initial_p = config.p;
  control.relay_fanout = config.relay_fanout;
  control.tree_divisor = config.tree_divisor;
  control_ = std::make_unique<ControlPlane>(endpoint, membership_, control);
  control_->on_reconfigured = [this](uint32_t new_p) {
    ROAR_LOG(kInfo) << "cluster: reconfiguration to p=" << new_p
                    << " complete at t=" << now();
  };
  control_->start();

  for (uint32_t i = 0; i < config.frontends; ++i) {
    frontends_.push_back(std::make_unique<Frontend>(
        endpoint, i, config.frontend, config.dataset_size,
        frontend_seed(config.seed, i)));
    control_->subscribe_frontend(frontends_.back()->address());
    frontends_.back()->set_tracer(&tracer_, 0);
    frontends_.back()->set_latency_histogram(
        &metrics_.histogram("frontend.latency_s"));
    frontends_.back()->start();
  }

  // Real matching: one immutable engine shared by every node (each node
  // scans only the slice a sub-query's window selects, so sharing the
  // corpus changes nothing observable and saves N-1 encryptions).
  if (config.enable_ingest || real_matching) {
    engine_ = std::make_shared<const MatchEngine>(config.engine);
  }
  if (config.enable_ingest) {
    ingest_router_ = std::make_unique<IngestRouter>(
        endpoint, config.ingest, subseed(config.seed, SeedStream::kIngest),
        engine_, [this] { return membership_.ring(0); },
        [this] { return control_->storage_p(); });
    ingest_router_->set_tracer(&tracer_, 0);
    ingest_router_->start();
    for (auto& fe : frontends_) fe->set_ingest(ingest_router_.get());
  }

  register_gauges();
  // Flight dumps render from the caller thread (anomalies originate in
  // frontend timeout paths and harness invariant checks, both
  // caller-driven); trace_events() marshals the shard-ring reads.
  tracer_.set_dump_renderer([this](uint64_t id, const std::string& reason) {
    return core::render_flight_dump(trace_events(), id, reason,
                                    metrics_.to_text());
  });

  NodeId id = 0;
  for (const auto& cls : classes) {
    for (uint32_t i = 0; i < cls.count; ++i, ++id) {
      make_node(id, cls.speed);
      membership_.join(id, cls.speed);
    }
  }
  // Converge ranges to ∝ speed before measurements.
  for (uint32_t i = 0; i < config.initial_balance_steps; ++i) {
    if (membership_.balance_step() == 0.0) break;
  }
  publish_view();
}

void Cluster::make_node(NodeId id, double speed) {
  NodeParams np = config_->node_proto;
  np.id = id;
  np.speed = speed;
  auto node = std::make_unique<NodeRuntime>(node_transport(id), np,
                                            config_->dataset_size);
  // The node records into its own shard's ring (loop thread only — the
  // TSan-bench contract).
  node->set_tracer(&tracer_, node_shard(id));
  node->set_service_histogram(&metrics_.histogram("node.service_s"));
  if (engine_) node->set_match_engine(engine_);
  if (config_->enable_ingest) node->enable_ingest(config_->ingest, engine_);
  setup_node(*node);
  control_->subscribe_node(id);
  node->start();
  nodes_.push_back(std::move(node));
}

bool Cluster::serving() const {
  for (const auto& n : nodes_) {
    if (!n->has_range()) return false;  // atomic: safe across shards
  }
  for (const auto& fe : frontends_) {
    if (!fe->ready()) return false;
  }
  return true;
}

// One registry absorbs every component's scattered counters as lazy
// gauges: nothing is sampled until snapshot(), so registration costs
// nothing on the hot path and nodes added later are picked up for free
// (the callbacks iterate the live component lists).
void Cluster::register_gauges() {
  auto sum = std::plus<double>();
  auto max = [](double a, double b) { return std::max(a, b); };
  auto over_frontends = [this](auto get, auto fold) {
    return [this, get, fold] {
      double acc = 0;
      for (const auto& fe : frontends_) {
        acc = fold(acc, static_cast<double>(std::invoke(get, *fe)));
      }
      return acc;
    };
  };
  // Node counters are plain fields owned by the node's shard thread.
  auto over_nodes = [this](auto get, auto fold) {
    return [this, get, fold] {
      double acc = 0;
      for (NodeId id = 0; id < nodes_.size(); ++id) {
        on_node(id, [&] {
          acc = fold(acc, static_cast<double>(std::invoke(get, *nodes_[id])));
        });
      }
      return acc;
    };
  };
  const ControlPlane* c = control_.get();

  metrics_.gauge_fn("frontend.completed",
                    over_frontends(&Frontend::queries_completed, sum));
  metrics_.gauge_fn("frontend.failures_detected",
                    over_frontends(&Frontend::failures_detected, sum));
  metrics_.gauge_fn("frontend.shed",
                    over_frontends(&Frontend::shed_count, sum));
  metrics_.gauge_fn("frontend.parts_shed",
                    over_frontends(&Frontend::parts_shed, sum));
  metrics_.gauge_fn("frontend.queue_hwm",
                    over_frontends(&Frontend::queue_hwm, max));
  metrics_.gauge_fn("node.subqueries",
                    over_nodes(&NodeRuntime::subqueries_served, sum));
  metrics_.gauge_fn("node.updates_applied",
                    over_nodes(&NodeRuntime::updates_applied, sum));
  metrics_.gauge_fn("node.shed", over_nodes(&NodeRuntime::subs_shed, sum));
  metrics_.gauge_fn("node.exec_queue_hwm",
                    over_nodes(&NodeRuntime::exec_queue_hwm, max));
  metrics_.gauge_fn("node.backlog_hwm_s",
                    over_nodes(&NodeRuntime::backlog_hwm_s, max));
  metrics_.gauge_fn("net.messages_sent", [this] { return messages_sent(); });
  metrics_.gauge_fn("net.messages_dropped",
                    [this] { return messages_dropped(); });
  metrics_.gauge_fn("net.bytes_sent", [this] { return bytes_sent(); });
  metrics_.gauge_fn("control.epoch", [c] { return c->epoch(); });
  metrics_.gauge_fn("control.epoch_lag", [c] { return c->max_epoch_lag(); });
  metrics_.gauge_fn("control.p_changes_committed",
                    [c] { return c->p_changes_committed(); });
  metrics_.gauge_fn("control.deltas_sent", [c] { return c->deltas_sent(); });
  metrics_.gauge_fn("control.interest_filtered_sends",
                    [c] { return c->interest_skips(); });
  metrics_.gauge_fn("control.acks_aggregated",
                    [c] { return c->acks_aggregated(); });
  metrics_.gauge_fn("control.compaction_ratio",
                    [c] { return c->compaction_ratio(); });
  metrics_.gauge_fn("control.delta_log_retain",
                    [c] { return c->delta_log_retain(); });
  metrics_.gauge_fn("control.tree_rebuilds",
                    [c] { return c->tree_rebuilds(); });
  metrics_.gauge_fn("control.deltas_relayed",
                    over_nodes(&NodeRuntime::deltas_relayed, sum));
  metrics_.gauge_fn("control.node_acks_aggregated",
                    over_nodes(&NodeRuntime::acks_aggregated, sum));
  metrics_.gauge_fn("control.interests_registered",
                    over_nodes(&NodeRuntime::interests_sent, sum));
  metrics_.gauge_fn("trace.events",
                    [this] { return tracer_.events_recorded(); });
  metrics_.gauge_fn("trace.anomalies",
                    [this] { return tracer_.anomalies_seen(); });
  if (!ingest_router_) return;
  const IngestRouter* r = ingest_router_.get();
  metrics_.gauge_fn("ingest.ops_accepted", [r] { return r->ops_accepted(); });
  metrics_.gauge_fn("ingest.updates_sent", [r] { return r->updates_sent(); });
  metrics_.gauge_fn("ingest.retransmits", [r] { return r->retransmits(); });
  metrics_.gauge_fn("ingest.loss_events", [r] { return r->loss_events(); });
  metrics_.gauge_fn("ingest.flow_abandoned",
                    [r] { return r->flow_abandoned(); });
  metrics_.gauge_fn("ingest.syncs_served", [r] { return r->syncs_served(); });
  metrics_.gauge_fn("ingest.sync_chunks_sent",
                    [r] { return r->sync_chunks_sent(); });
  metrics_.gauge_fn("ingest.full_segments_sent",
                    [r] { return r->full_segments_sent(); });
  auto ops_applied = [](const NodeRuntime& n) {
    return n.ingest() ? n.ingest()->ops_applied() : 0;
  };
  metrics_.gauge_fn("ingest.ops_applied", over_nodes(ops_applied, sum));
}

std::vector<core::TraceEvent> Cluster::trace_events() const {
  return tracer_.collect(
      [this](size_t shard, const std::function<void()>& fn) {
        on_shard(shard, fn);
      });
}

uint64_t Cluster::transport_total(
    uint64_t (net::Transport::*counter)() const) const {
  uint64_t n = 0;
  each_transport([&](const net::Transport& t) { n += (t.*counter)(); });
  return n;
}

uint64_t Cluster::admission_shed_total() const {
  uint64_t n = 0;
  for (const auto& fe : frontends_) n += fe->shed_count();
  return n;
}

uint64_t Cluster::node_shed_total() const {
  uint64_t n = 0;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    on_node(id, [&] { n += nodes_[id]->subs_shed(); });
  }
  return n;
}

void Cluster::publish_view() {
  // The broadcast inside publish() reaches everyone; genuinely lagging
  // subscribers are covered by the control plane's retransmit tick (and
  // the heal/revive paths' explicit resync), so no immediate resync —
  // right after an epoch bump nobody can have acked yet and a resync
  // here would just duplicate every delta as a full snapshot.
  control_->publish();
}

void Cluster::kill_node(NodeId id) {
  on_node(id, [&] { nodes_.at(id)->kill(); });
  // Membership will learn and clean up; the front-ends must *discover*
  // the failure through timeouts (the realistic path) — a crash publishes
  // no view. We only update the authoritative record here.
  membership_.fail(id);
}

void Cluster::revive_node(NodeId id) {
  NodeRuntime& node = *nodes_.at(id);
  bool alive = false;
  on_node(id, [&] { alive = node.alive(); });
  if (alive) return;
  // Still on its ring with its download finished: the node kept its data
  // across the crash and can serve once the view republishes. Removed by
  // long-term cleanup (data merged into neighbours) or crashed before its
  // warmup completed: it must (re)download before serving, like a fresh
  // join (§4.3, warm_up). Either way node.start() pulls the current view,
  // which re-derives any §4.5 fetch duty the crash destroyed.
  uint32_t member_ring = membership_.members().at(id).ring;
  bool in_place = membership_.ring(member_ring).contains(id) &&
                  !control_->is_warming(id);
  // Long-term cleanup unsubscribed the node; a revival is a rejoin for
  // the view protocol either way (subscribe is idempotent).
  control_->subscribe_node(id);
  on_node(id, [&] { node.start(); });
  membership_.revive(id);
  if (in_place) {
    serve_in_place();
  } else {
    warm_up(id);
  }
  ROAR_LOG(kInfo) << "cluster: node " << id << " revived at t=" << now()
                  << (in_place ? " (in place)" : " (rejoin, reloading)");
}

void Cluster::warm_up(NodeId id) {
  (void)id;
  serve_in_place();
}

void Cluster::serve_in_place() {
  publish_view();
  // The crash never bumped the epoch (front-ends discovered it by
  // timeout), so a revival may be a no-op diff: force a full resync so
  // every mirror resurrects the node's liveness now.
  control_->resync(/*everyone=*/true);
}

void Cluster::change_p(uint32_t p_new) { control_->order_p_change(p_new); }

// The client-side balancer: round-robin from the cursor, skipping
// instances that are down or still syncing their view. With nothing
// ready, returns the cursor's instance (whose submit refuses instantly).
Frontend& Cluster::next_ready_frontend() {
  size_t f = frontends_.size();
  for (size_t k = 0; k < f; ++k) {
    size_t cand = (next_frontend_ + k) % f;
    if (frontends_[cand]->ready()) {
      next_frontend_ = static_cast<uint32_t>((cand + 1) % f);
      return *frontends_[cand];
    }
  }
  Frontend& fe = *frontends_[next_frontend_ % f];
  next_frontend_ = static_cast<uint32_t>((next_frontend_ + 1) % f);
  return fe;
}

uint64_t Cluster::submit_query(Frontend::QueryCallback cb) {
  return next_ready_frontend().submit(std::move(cb));
}

uint64_t Cluster::submit_query(const QueryRequest& req,
                               Frontend::QueryCallback cb) {
  return next_ready_frontend().submit(req, std::move(cb));
}

std::vector<IngestReplicaView> Cluster::ingest_replicas() const {
  std::vector<IngestReplicaView> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const NodeRuntime& n = *nodes_[id];
    on_node(id, [&] {
      if (n.alive() && n.ingest() && !n.range().empty()) {
        out.push_back({n.id(), n.ingest(), n.stored_arc()});
      }
    });
  }
  return out;
}

bool Cluster::ingest_converged() const {
  if (!ingest_router_) return true;
  auto reps = ingest_replicas();
  return ingest_convergence_report(*ingest_router_, reps,
                                   /*probe_matches=*/false)
      .empty();
}

bool Cluster::run_until_ingest_converged(double timeout_s) {
  double deadline = now() + timeout_s;
  // Advance before the first verdict: a just-revived or just-joined node
  // is not a replica until its range push lands, so judging the quiescent
  // state without running the substrate would miss it entirely.
  do {
    step(deadline);
  } while (!ingest_converged() && now() < deadline);
  return ingest_converged();
}

}  // namespace roar::cluster
