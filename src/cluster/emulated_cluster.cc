#include "cluster/emulated_cluster.h"

#include <algorithm>
#include <stdexcept>

#include "common/logging.h"

namespace roar::cluster {

EmulatedSubstrate::EmulatedSubstrate(uint64_t seed)
    : net_(loop_, kLinkLatencyS, subseed(seed, SeedStream::kNetwork)) {}

EmulatedCluster::EmulatedCluster(ClusterConfig config)
    : EmulatedSubstrate(config.seed),
      Cluster(config.seed, /*trace_shards=*/1),
      config_(std::move(config)),
      rng_(subseed(config_.seed, SeedStream::kWorkload)) {
  if (config_.adaptive_p) {
    if (config_.node_proto.stats_interval_s <= 0) {
      config_.node_proto.stats_interval_s = 1.0;
    }
    if (config_.frontend.digest_interval_s <= 0) {
      config_.frontend.digest_interval_s = 1.0;
    }
  }
  if (config_.enable_faults) {
    faults_ = std::make_unique<net::FaultTransport>(
        net_, subseed(config_.seed, SeedStream::kFaults));
    faults_->set_default_faults(config_.default_faults);
  }
  ControlPlaneParams cp;
  cp.adaptive = config_.adaptive_p;
  cp.adaptive_params = config_.adaptive;
  cp.adaptive_interval_s = config_.adaptive_interval_s;
  assemble(config_, config_.classes, /*real_matching=*/false, cp);
  // Deliver the first view epoch (and its acks) so every component is
  // ranged and ready before the constructor returns.
  loop_.run_until(loop_.now() + 10 * kLinkLatencyS);
  measure_start_ = loop_.now();
}

void EmulatedCluster::each_transport(const TransportVisitor& fn) const {
  fn(faults_ ? static_cast<const net::Transport&>(*faults_) : net_);
}

void EmulatedCluster::step(double deadline) {
  loop_.run_until(std::min(loop_.now() + 0.25, deadline));
}

void EmulatedCluster::setup_node(NodeRuntime& node) {
  // Real matching under virtual time: keep the service time modeled so
  // traces stay host-independent.
  if (config_.enable_ingest) node.set_modeled_timing(true);
}

std::vector<NodeId> EmulatedCluster::node_ids() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < node_count(); ++id) {
    if (node(id).alive()) out.push_back(id);
  }
  return out;
}

NodeId EmulatedCluster::add_node(double speed) {
  NodeId id = static_cast<NodeId>(node_count());
  make_node(id, speed);
  membership().join(id, speed);
  warm_up(id);
  return id;
}

// The control plane marks the node warming (published as down) until the
// load is done, then publishes it into service.
void EmulatedCluster::warm_up(NodeId id) {
  const core::Ring& ring = membership().ring(0);
  // Size the download by the SMALLEST p (largest stored arcs) the node
  // may have to serve: the gated storage level it stores at on arrival,
  // or the target of an in-progress decrease whose bigger arcs it will
  // own the moment the change commits.
  uint32_t p_load = std::min(control().storage_p(), control().target_p());
  Arc stored = core::stored_object_arc(ring, id, p_load);
  double bytes = stored.fraction() *
                 static_cast<double>(config_.dataset_size) *
                 config_.node_proto.bytes_per_object;
  double warmup = bytes / config_.node_proto.fetch_bandwidth;
  control().set_warming(id, true);
  publish_view();
  loop_.schedule_after(warmup, [this, id] {
    control().set_warming(id, false);
    publish_view();
  });
  ROAR_LOG(kInfo) << "cluster: node " << id << " joining, warmup "
                  << warmup << "s";
}

void EmulatedCluster::leave_node(NodeId id) {
  NodeRuntime& n = node(id);
  if (!n.alive()) return;
  n.kill();
  membership().leave(id);
  control().unsubscribe(node_address(id));
  publish_view();
}

uint32_t EmulatedCluster::remove_dead_nodes() {
  std::vector<NodeId> dead;
  for (const auto& n : membership().ring(0).nodes()) {
    if (!n.alive) dead.push_back(n.id);
  }
  for (NodeId id : dead) {
    // A removed confirmer can never report its fetch; stop waiting on it
    // so an in-progress p decrease cannot wedge forever (§4.9).
    control().abandon_fetch(id);
    control().set_warming(id, false);
    control().unsubscribe(node_address(id));
    membership().remove_failed(id);
  }
  if (!dead.empty()) publish_view();
  return static_cast<uint32_t>(dead.size());
}

void EmulatedCluster::kill_frontend(uint32_t i) {
  Frontend& fe = frontend(i);
  if (!fe.alive()) return;
  fe.stop();
  control().set_frontend_down(fe.address(), true);
  ROAR_LOG(kInfo) << "cluster: frontend " << i << " crashed at t="
                  << loop_.now();
}

void EmulatedCluster::revive_frontend(uint32_t i) {
  Frontend& fe = frontend(i);
  if (fe.alive()) return;
  control().set_frontend_down(fe.address(), false);
  fe.start();  // pulls the current view; serves once it applies
  ROAR_LOG(kInfo) << "cluster: frontend " << i << " revived at t="
                  << loop_.now();
}

double EmulatedCluster::balance_round() {
  double moved = membership().balance_step();
  if (moved > 0) publish_view();
  return moved;
}

uint32_t EmulatedCluster::run_queries(double rate_per_s, uint32_t count,
                                      double give_up_s) {
  // Shared state, not stack references: queries still in flight at the
  // give-up deadline complete during a later run, after this frame is
  // gone, and must not count toward any other call's tally.
  struct Tally {
    uint32_t completed = 0;
    uint32_t finished = 0;  // complete or failed
  };
  auto tally = std::make_shared<Tally>();
  double t = loop_.now();
  for (uint32_t i = 0; i < count; ++i) {
    t += rng_.next_exponential(rate_per_s);
    loop_.schedule_at(t, [this, tally] {
      submit_query([tally](const QueryOutcome& out) {
        ++tally->finished;
        if (out.complete) ++tally->completed;
      });
    });
  }
  // Step in chunks so virtual time stops shortly after the last completion
  // (keeps elapsed-time metrics meaningful) instead of at the give-up
  // deadline.
  double deadline = t + give_up_s;
  while (tally->finished < count && loop_.now() < deadline) {
    loop_.run_until(std::min(loop_.now() + 0.5, deadline));
  }
  return tally->completed;
}

void EmulatedCluster::inject_updates(double rate_per_s, double duration_s) {
  double t = loop_.now();
  double end = t + duration_s;
  while (t < end) {
    t += rng_.next_exponential(rate_per_s);
    RingId id = rng_.next_ring_id();
    loop_.schedule_at(t, [this, id] {
      const core::Ring& ring = membership().ring(0);
      uint32_t p = control().storage_p();
      for (const auto& n : ring.nodes()) {
        if (!n.alive) continue;
        if (core::stored_object_arc(ring, n.id, p).contains(id)) {
          ObjectUpdateMsg msg;
          msg.object_id = id;
          msg.payload_bytes = 700;
          transport().send(kUpdateServerAddr, node_address(n.id),
                           msg.encode());
        }
      }
    });
  }
}

void EmulatedCluster::ingest_stream(double rate_per_s, uint32_t count,
                                    double delete_frac) {
  if (!ingest()) {
    throw std::logic_error(
        "EmulatedCluster::ingest_stream requires enable_ingest");
  }
  double t = loop_.now();
  for (uint32_t i = 0; i < count; ++i) {
    t += rng_.next_exponential(rate_per_s);
    loop_.schedule_at(t, [this, delete_frac] {
      issue_random_ingest_op(*ingest(), rng_, delete_frac);
    });
  }
}

std::vector<double> EmulatedCluster::node_busy_fractions() const {
  std::vector<double> out;
  double elapsed = loop_.now() - measure_start_;
  for (NodeId id = 0; id < node_count(); ++id) {
    out.push_back(elapsed > 0 ? node(id).busy_seconds() / elapsed : 0.0);
  }
  return out;
}

double EmulatedCluster::energy_joules(double idle_w, double peak_w) const {
  double elapsed = loop_.now() - measure_start_;
  double joules = 0.0;
  for (NodeId id = 0; id < node_count(); ++id) {
    const NodeRuntime& n = node(id);
    if (!n.alive()) continue;
    joules += idle_w * elapsed + (peak_w - idle_w) * n.busy_seconds();
  }
  return joules;
}

}  // namespace roar::cluster
