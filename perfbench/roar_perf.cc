// One run of one ROAR benchmark workload against the real-socket
// TcpCluster with real encrypted matching (MatchEngine).
//
//   roar_perf --workload scan|ingest_mix|fanout_reconfig --seed N
//             --seconds S --trace 0|1
//
// A fourth workload, fanout_reconfig_writes, is fanout_reconfig with 92
// converged writes at p=16 after each round, so every later lowering of p
// to 8 follows writes. It is not a listed benchmark workload: it exits 1
// on the current program, whose lowered nodes finish their §4.5 fetch
// (NodeRuntime::begin_fetch) before their ingest log has synced the
// shards their grown arc newly covers, and so answer those shards from
// the bare corpus until the next anti-entropy round (wrong counts, a few
// percent of the queries). Run it to check a fix of that path.
//
// --trace 0 measures the end-to-end metrics with the tracer off; --trace 1
// measures the per-layer metrics (layer calls timed from outside on the
// inputs the workload produced, the cluster's own counters, the tracer's
// stage breakdown, the ledger and the tracing overhead). Every answer is
// checked; the last stdout line is the JSON result run.py forwards.
//
// Load comes from this (the caller) thread: Poisson arrivals from --seed,
// timed from their due time. The cluster runs 2 reactor shards and inline
// nodes (node_workers = 0), so the process keeps 2 busy threads.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arith.h"
#include "cluster/protocol.h"
#include "cluster/tcp_cluster.h"
#include "common/logging.h"
#include "core/cluster_view.h"
#include "core/query_planner.h"
#include "core/scheduler.h"
#include "core/tracer.h"
#include "net/buf.h"
#include "net/framing.h"
#include "pps/corpus.h"
#include "pps/versioned_store.h"

using namespace roar;
using namespace roar::cluster;
using perfbench::FailTally;
using perfbench::Failure;
using perfbench::PoissonArrivals;
using perfbench::QueryVerdict;

namespace {

constexpr uint32_t kReactorShards = 2;
constexpr uint32_t kNodeWorkers = 0;
constexpr int kSetups = 3;              // setup_s is the median of these
constexpr double kDrainS = 10.0;        // answer deadline after a phase
constexpr double kVisibleDeadlineS = 5.0;
constexpr double kReconfigDeadlineS = 10.0;
constexpr double kDeleteFrac = 0.2;     // writes are adds:deletes 4:1

struct Spec {
  const char* name;
  uint32_t nodes;
  uint32_t p;
  uint32_t p_alt;         // the other level p alternates with
  size_t corpus;
  double open_qps;        // open-loop arrival rate
  uint32_t window;        // closed-loop outstanding queries
  double mix_writes;      // writes/s beside the queries
  bool mix_reconfig;      // p alternates during the open loop
  uint32_t round_writes;  // writes after each round's queries, at p

  bool ingest() const { return mix_writes > 0 || round_writes > 0; }
};

const Spec kSpecs[] = {
    {"scan", 8, 4, 8, 10'000, 300.0, 8, 0.0, false, 0},
    {"ingest_mix", 8, 4, 8, 10'000, 300.0, 8, 200.0, false, 0},
    {"fanout_reconfig", 48, 16, 8, 2'000, 1000.0, 16, 0.0, true, 0},
    {"fanout_reconfig_writes", 48, 16, 8, 2'000, 1000.0, 16, 0.0, true, 92},
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// The cluster (ring positions, node-to-shard map, scheduler streams) is
// the same on every run; --seed varies only the load. A seed-dependent
// ring would move capacity by +-20% between runs through load imbalance.
constexpr uint64_t kClusterSeed = 1;

TcpClusterConfig cluster_config(const Spec& s) {
  TcpClusterConfig cfg;
  cfg.nodes = s.nodes;
  cfg.p = s.p;
  cfg.seed = kClusterSeed;
  cfg.reactor_shards = kReactorShards;
  cfg.node_workers = kNodeWorkers;
  cfg.real_matching = true;
  // scan queries the bare corpus; the others write to it.
  cfg.enable_ingest = s.ingest();
  cfg.engine.corpus_items = s.corpus;
  cfg.dataset_size = s.corpus;
  // The encrypted match costs ~100-150 ns/item on a 4-vCPU Xeon VM with
  // AES-NI; tell the front-end's delay estimator roughly the truth so its
  // timeouts are not hair-trigger.
  cfg.node_proto.base_rate = 2e6;
  cfg.frontend.initial_rate = 2e6;
  cfg.node_proto.subquery_overhead_s = 50e-6;
  cfg.frontend.timeout_margin_s = 0.5;
  return cfg;
}

// Steal and total jiffies of the whole host (/proc/stat): how much CPU
// the hypervisor withheld during the run, printed beside the timings.
struct HostSteal {
  double steal = 0, total = 0;
};

// Share of the host's CPU time stolen between two readings.
double steal_share(const HostSteal& a, const HostSteal& b) {
  return (b.steal - a.steal) / std::max(1.0, b.total - a.total);
}

HostSteal host_steal() {
  HostSteal h;
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (auto x : v) h.total += static_cast<double>(x);
      h.steal = static_cast<double>(v[7]);
    }
    std::fclose(f);
  }
  return h;
}

// --------------------------------------------------------------- phases

struct PhaseConfig {
  double seconds = 0.0;
  double query_qps = 0.0;    // open-loop arrivals (0 = none)
  uint32_t window = 0;       // > 0: closed loop with this many outstanding
  double write_ops = 0.0;    // Poisson writes/s
  uint32_t max_writes = 0;   // > 0: stop after this many writes
  bool reconfig = false;     // alternate p between spec.p and spec.p_alt
  uint32_t max_reconfigs = 0;  // stop alternating after this many (0 = no cap)
  double reconfig_gap_s = 0.25;  // from one change's start to the next
  std::optional<uint64_t> expected;  // exact match count, when known
};

// Heap allocations of the datapath (fresh RX slabs + TX byte buffers) and
// frames/writev syscalls, summed over the reactor shards.
struct NetCounters {
  double allocs = 0, frames = 0, writevs = 0;
};

struct PhaseResult {
  FailTally queries;
  uint64_t completed_ok = 0;       // correct answers
  uint64_t ok_in_window = 0;       // correct answers before the phase end
  double elapsed_s = 0.0;          // arrivals/submissions window
  double cpu_s = 0.0;
  std::vector<double> latency_s;   // open loop, from due time
  std::vector<double> gen_late_s;  // submit time - due time
  uint64_t retries = 0;
  // Writes.
  uint64_t writes = 0;
  uint64_t writes_failed = 0;      // not visible by the deadline
  std::vector<double> visible_s;   // write -> watermark covers its LSN
  // Reconfigurations.
  std::vector<double> raise_s, lower_s;
  uint32_t reconfigs_failed = 0;
  // Cluster counters over the phase.
  double msgs = 0, bytes = 0, subqueries = 0, updates_applied = 0;
  double updates_sent = 0, retransmits = 0, deltas = 0;
  NetCounters net;
};

NetCounters net_counters(TcpCluster& cl) {
  NetCounters n;
  n.allocs = static_cast<double>(net::byte_freelist_stats().fresh);
  for (size_t s = 0; s < cl.driver().shards(); ++s) {
    auto& r = cl.driver().reactor(s);
    n.allocs += static_cast<double>(r.buf_pool().stats().fresh);
    n.frames += static_cast<double>(r.frames_flushed());
    n.writevs += static_cast<double>(r.flush_syscalls());
  }
  return n;
}

// Folds one chunk of a phase into the run's total for that phase.
void merge(PhaseResult& into, const PhaseResult& r) {
  auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  into.queries.add(r.queries);
  into.completed_ok += r.completed_ok;
  into.ok_in_window += r.ok_in_window;
  into.elapsed_s += r.elapsed_s;
  into.cpu_s += r.cpu_s;
  append(into.latency_s, r.latency_s);
  append(into.gen_late_s, r.gen_late_s);
  into.retries += r.retries;
  into.writes += r.writes;
  into.writes_failed += r.writes_failed;
  append(into.visible_s, r.visible_s);
  append(into.raise_s, r.raise_s);
  append(into.lower_s, r.lower_s);
  into.reconfigs_failed += r.reconfigs_failed;
  into.msgs += r.msgs;
  into.bytes += r.bytes;
  into.subqueries += r.subqueries;
  into.updates_applied += r.updates_applied;
  into.updates_sent += r.updates_sent;
  into.retransmits += r.retransmits;
  into.deltas += r.deltas;
  into.net.allocs += r.net.allocs;
  into.net.frames += r.net.frames;
  into.net.writevs += r.net.writevs;
}

class Bench {
 public:
  Bench(const Spec& spec, uint64_t seed) : spec_(spec), seed_(seed) {}

  // Builds the cluster and answers one query correctly; returns the
  // seconds from the start of construction to that first correct answer.
  // Incomplete answers and timeouts are retried; a complete answer with
  // the wrong count is a failed operation (setup_checks()).
  double setup() {
    cluster_.reset();
    double t0 = now_s();
    cluster_ = std::make_unique<TcpCluster>(cluster_config(spec_));
    cluster_->tracer().set_enabled(false);
    expected_ = cluster_->engine()->full_store_matches();
    for (int attempt = 0; attempt < 50; ++attempt) {
      QueryOutcome out = cluster_->run_query(10.0);
      if (out.id == 0 || !out.complete || out.harvest < 1.0) continue;
      QueryVerdict v{true, true, out.harvest, out.shed, out.matches,
                     expected_};
      if (setup_checks_.add(v) == Failure::kNone) return now_s() - t0;
      std::printf("check: setup answer %lu matches, expected %lu\n",
                  static_cast<unsigned long>(out.matches),
                  static_cast<unsigned long>(expected_));
    }
    throw std::runtime_error("setup: no correct answer");
  }
  const FailTally& setup_checks() const { return setup_checks_; }

  TcpCluster& cluster() { return *cluster_; }
  uint64_t expected() const { return expected_; }

  // Exact count over the ingest reference (what a converged cluster
  // must answer).
  uint64_t reference_matches() const {
    const IngestRouter& r = *cluster_->ingest();
    return cluster_->engine()->full_store_matches(*r.reference().snapshot());
  }

  PhaseResult run(const PhaseConfig& pc, uint64_t stream);

  // Waits for ingest convergence, then `n` probe queries must equal the
  // reference snapshot's count. Returns the failures among these n + 1
  // checks.
  uint64_t converge_and_probe(uint32_t n) {
    uint64_t failed = 0;
    if (!cluster_->run_until_ingest_converged(30.0)) {
      std::printf("check: ingest did not converge\n");
      ++failed;
    }
    uint64_t want = reference_matches();
    for (uint32_t i = 0; i < n; ++i) {
      QueryOutcome out = cluster_->run_query(10.0);
      if (out.id == 0 || !out.complete || out.harvest < 1.0 ||
          out.matches != want) {
        ++failed;
      }
    }
    if (failed) std::printf("check: %lu probe failure(s)\n",
                            static_cast<unsigned long>(failed));
    expected_ = want;
    return failed;
  }

  // p back at its starting level, every view applied, no gate pending.
  bool settled(uint32_t p) {
    return cluster_->driver().run_until(
        [&] {
          return cluster_->safe_p() == p && cluster_->target_p() == p &&
                 cluster_->frontend().safe_p() == p &&
                 !cluster_->control().drop_gate_pending();
        },
        kReconfigDeadlineS);
  }

 private:
  struct Inflight {
    double due = 0.0;
    bool answered = false;
  };
  struct PendingWrite {
    uint64_t lsn;
    double at;
  };

  const Spec& spec_;
  uint64_t seed_;
  std::unique_ptr<TcpCluster> cluster_;
  uint64_t expected_ = 0;
  FailTally setup_checks_;
  Rng write_rng_{0};
};

PhaseResult Bench::run(const PhaseConfig& pc, uint64_t stream) {
  PhaseResult res;
  TcpCluster& cl = *cluster_;
  auto& driver = cl.driver();
  auto& clock = driver.clock();
  IngestRouter* router = cl.ingest();
  write_rng_ = Rng(seed_ * 1'000'003 + stream);

  auto snap0 = cl.metrics().snapshot();
  uint64_t upd_sent0 = router ? router->updates_sent() : 0;
  uint64_t retx0 = router ? router->retransmits() : 0;
  uint64_t deltas0 = cl.control().deltas_sent();
  NetCounters net0 = net_counters(cl);

  double t0 = clock.now();
  double end = t0 + pc.seconds;
  double cpu0 = cpu_s();
  PoissonArrivals q_arr(seed_ * 7919 + stream * 2 + 1, pc.query_qps, t0);
  PoissonArrivals w_arr(seed_ * 7919 + stream * 2 + 2, pc.write_ops, t0);

  uint32_t outstanding = 0;
  std::deque<Inflight> inflight;  // stable addresses for the callbacks
  // An answer arriving after this phase returned (already booked as a
  // timeout) must not touch the phase's locals.
  auto closed = std::make_shared<bool>(false);
  auto submit = [&](double due) {
    inflight.push_back(Inflight{due, false});
    Inflight* rec = &inflight.back();
    ++outstanding;
    res.gen_late_s.push_back(clock.now() - due);
    cl.submit_query(QueryRequest{}, [&, rec, closed](const QueryOutcome& out) {
      if (*closed || rec->answered) return;
      rec->answered = true;
      --outstanding;
      double done = clock.now();
      QueryVerdict v{true, out.complete, out.harvest, out.shed, out.matches,
                     pc.expected};
      Failure f = res.queries.add(v);
      res.retries += out.retries;
      if (f == Failure::kNone) {
        ++res.completed_ok;
        if (done <= end) ++res.ok_in_window;
      } else {
        static const char* const kKind[] = {"ok", "incomplete", "shed",
                                            "timeout", "wrong count"};
        std::printf("check: query failed (%s: %lu matches, expected %ld)\n",
                    kKind[static_cast<int>(f)],
                    static_cast<unsigned long>(out.matches),
                    pc.expected ? static_cast<long>(*pc.expected) : -1L);
      }
      if (pc.window == 0) {
        res.latency_s.push_back(perfbench::open_loop_latency(rec->due, done, f));
      }
    });
  };

  // Writes: per-shard FIFO of LSNs awaiting the replication watermark.
  std::map<uint32_t, std::deque<PendingWrite>> pending_w;
  size_t writes_pending = 0;
  auto issue_write = [&] {
    Frontend& fe = cl.frontend();
    RingId id;
    auto live = router->live_docs();
    if (!live.empty() && write_rng_.next_double() < kDeleteFrac) {
      id = live[write_rng_.next_below(live.size())];
      if (!fe.delete_document(id)) return;
    } else {
      id = fe.add_document(
          pps::CorpusGenerator::sample_document(write_rng_.next_u64()));
    }
    uint32_t shard = shard_of(id, router->shards());
    pending_w[shard].push_back({router->issued_lsn(shard), clock.now()});
    ++writes_pending;
    ++res.writes;
  };
  auto check_visible = [&] {
    if (!writes_pending) return;
    double now = clock.now();
    for (auto& [shard, q] : pending_w) {
      uint64_t wm = router->watermark(shard);
      while (!q.empty() && q.front().lsn <= wm) {
        res.visible_s.push_back(now - q.front().at);
        q.pop_front();
        --writes_pending;
      }
    }
  };

  // Reconfiguration: alternate p; the clock runs from change_p until the
  // control plane and the front-end's mirror are at the target and the
  // drop gate is clear.
  uint32_t reconfigs = 0;
  bool reconfiguring = false;
  uint32_t cur_p = cl.target_p(), from_p = cur_p;
  double rc_start = 0.0;
  double next_rc = pc.reconfig ? t0 + pc.reconfig_gap_s / 2 : INFINITY;
  auto check_reconfig = [&] {
    if (!reconfiguring) return;
    if (cl.safe_p() == cur_p && cl.frontend().safe_p() == cur_p &&
        !cl.control().drop_gate_pending()) {
      reconfiguring = false;
      (cur_p > from_p ? res.raise_s : res.lower_s)
          .push_back(clock.now() - rc_start);
    } else if (clock.now() - rc_start > kReconfigDeadlineS) {
      reconfiguring = false;
      ++res.reconfigs_failed;
      std::printf("check: p change to %u did not settle\n", cur_p);
    }
  };

  if (pc.window > 0) {
    // Closed loop: every answer before `end` submits the next query.
    auto refill = [&] {
      while (outstanding < pc.window && clock.now() < end) submit(clock.now());
    };
    refill();
    while (clock.now() < end) {
      for (size_t n = w_arr.take_due(clock.now()).size(); n > 0; --n) {
        issue_write();
      }
      driver.poll(1);
      refill();
      check_visible();
    }
  } else {
    while (true) {
      double now = clock.now();
      if (now >= end) break;
      for (double due : q_arr.take_due(now)) submit(due);
      for (size_t n = w_arr.take_due(now).size(); n > 0; --n) {
        if (pc.max_writes == 0 || res.writes < pc.max_writes) issue_write();
      }
      if (pc.max_writes > 0 && res.writes >= pc.max_writes) end = now;
      if (!reconfiguring && now >= next_rc &&
          (pc.max_reconfigs == 0 || reconfigs < pc.max_reconfigs)) {
        from_p = cur_p;
        cur_p = cur_p == spec_.p ? spec_.p_alt : spec_.p;
        cl.change_p(cur_p);
        reconfiguring = true;
        rc_start = clock.now();
        ++reconfigs;
        next_rc = rc_start + pc.reconfig_gap_s;
      }
      check_visible();
      check_reconfig();
      double wake = std::min({q_arr.next_due(), w_arr.next_due(), end});
      int ms = static_cast<int>(std::ceil((wake - clock.now()) * 1e3));
      driver.poll(std::clamp(ms, 0, 2));
    }
  }
  res.elapsed_s = clock.now() - t0;
  // Leave p where the phase found it (the drain below waits for it).
  if (pc.reconfig && !reconfiguring && cur_p != spec_.p) {
    from_p = cur_p;
    cur_p = spec_.p;
    cl.change_p(cur_p);
    reconfiguring = true;
    rc_start = clock.now();
  }

  // Drain: answers, pending p change, write visibility.
  double drain_end = clock.now() + kDrainS;
  while ((outstanding > 0 || reconfiguring) && clock.now() < drain_end) {
    driver.poll(1);
    check_visible();
    check_reconfig();
  }
  res.cpu_s = cpu_s() - cpu0;
  if (reconfiguring) {
    ++res.reconfigs_failed;
    std::printf("check: p change to %u did not settle\n", cur_p);
  }
  *closed = true;
  for (Inflight& rec : inflight) {
    if (!rec.answered) {
      rec.answered = true;
      QueryVerdict v;  // answered = false: a timeout
      res.queries.add(v);
      if (pc.window == 0) {
        res.latency_s.push_back(
            perfbench::open_loop_latency(rec.due, 0.0, Failure::kTimeout));
      }
    }
  }
  double vis_end = clock.now() + kVisibleDeadlineS;
  while (writes_pending > 0 && clock.now() < vis_end) {
    driver.poll(1);
    check_visible();
  }
  res.writes_failed = writes_pending;

  auto snap1 = cl.metrics().snapshot();
  auto delta = [&](const char* name) {
    return snap1.get(name) - snap0.get(name);
  };
  res.msgs = delta("net.messages_sent");
  res.bytes = delta("net.bytes_sent");
  res.subqueries = delta("node.subqueries");
  res.updates_applied = delta("node.updates_applied");
  if (router) {
    res.updates_sent = static_cast<double>(router->updates_sent() - upd_sent0);
    res.retransmits = static_cast<double>(router->retransmits() - retx0);
  }
  res.deltas = static_cast<double>(cl.control().deltas_sent() - deltas0);
  NetCounters net1 = net_counters(cl);
  res.net = {net1.allocs - net0.allocs, net1.frames - net0.frames,
             net1.writevs - net0.writevs};
  return res;
}

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void count(const FailTally& t) {
    attempted += t.attempted;
    failed += t.failed();
  }
  void count_probes(uint64_t failures, uint64_t probes) {
    attempted += probes;
    failed += failures;
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::printf("check failed: %s\n", what.c_str());
    }
  }
  void print() const {
    for (const Metric& m : metrics) {
      std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lu, \"failed\": %lu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long>(attempted),
                static_cast<unsigned long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
      double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), v,
                  metrics[i].unit.c_str());
    }
    std::printf("}}\n");
  }
};

double pct_ms(const std::vector<double>& v, double q, Report& rep,
              const std::string& what) {
  auto p = perfbench::percentile(v, q);
  rep.check(p.has_value() && std::isfinite(*p),
            what + ": too few samples or failed operations");
  return p ? *p * 1e3 : 0.0;
}

// ----------------------------------------------------- layer micro-timing

// Median over 5 repetitions of the per-op time of `body(reps)`, which
// must perform `reps` operations.
template <typename F>
double ns_per_op(size_t reps, F&& body) {
  std::vector<double> t;
  for (int r = 0; r < 5; ++r) {
    double a = now_s();
    body(reps);
    t.push_back((now_s() - a) * 1e9 / static_cast<double>(reps));
  }
  return perfbench::median(t);
}

uint64_t g_sink = 0;  // keeps timed results observable

struct UniformEstimator : core::FinishEstimator {
  const core::Ring* ring = nullptr;
  double estimate_finish(NodeId node, double share) const override {
    return share / ring->node(node).speed;
  }
};

std::vector<core::ClusterView> view_chain(const core::Ring& ring,
                                          const Spec& s, size_t n) {
  std::vector<core::ClusterView> views;
  for (size_t i = 0; i < n; ++i) {
    core::ClusterView v;
    v.epoch = i + 1;
    bool alt = i % 2 == 1;
    v.target_p = alt ? s.p_alt : s.p;
    v.safe_p = alt ? std::min(s.p, s.p_alt) : s.p;
    v.storage_p = std::min(s.p, s.p_alt);
    for (const core::RingNode& rn : ring.nodes()) {
      v.members.push_back({rn.id, rn.position, rn.speed, rn.alive});
      if (alt) v.pending.push_back(rn.id);
    }
    std::sort(v.members.begin(), v.members.end(),
              [](const auto& a, const auto& b) { return a.id < b.id; });
    views.push_back(std::move(v));
  }
  return views;
}

struct LayerCosts {
  double match_ns_per_item = 0, match_us_per_subquery = 0;
  double encrypt_doc_us = 0, store_add_us = 0, store_remove_us = 0;
  double store_compact_ms = 0, overlay_scan_ns_per_item = 0;
  double plan_us = 0, schedule_us = 0, view_diff_us = 0, view_apply_us = 0;
  double sq_enc = 0, sq_dec = 0, rp_enc = 0, rp_dec = 0;
  double up_enc = 0, up_dec = 0, vd_enc = 0, vd_dec = 0, frame_ns = 0;
};

LayerCosts time_layers(Bench& b, const Spec& s, uint64_t seed) {
  LayerCosts c;
  TcpCluster& cl = b.cluster();
  const MatchEngine& eng = *cl.engine();
  core::Ring ring = cl.frontend().ring();
  Rng rng(seed * 31 + 5);
  core::QueryPlanner planner;

  // The sub-query windows this workload's plans produce.
  std::vector<core::RoarQueryPlan> plans;
  for (int i = 0; i < 64; ++i) {
    plans.push_back(planner.plan(ring, rng.next_ring_id(), s.p, s.p, rng));
  }
  std::vector<MatchEngine::Window> windows;
  for (const auto& plan : plans) {
    for (const auto& part : plan.parts) {
      MatchEngine::Window w;
      w.arc = Arc(part.window_begin.advanced_raw(1),
                  part.window_begin.distance_to(part.responsibility_end));
      windows.push_back(w);
    }
  }
  {
    size_t nwin = std::min<size_t>(windows.size(), 256);
    uint64_t scanned = 0;
    double t0 = now_s();
    for (int r = 0; r < 3; ++r) {
      for (size_t i = 0; i < nwin; ++i) {
        auto res = eng.execute_batch({windows[i]});
        scanned += res[0].scanned;
      }
    }
    double dt = now_s() - t0;
    c.match_ns_per_item = dt * 1e9 / static_cast<double>(std::max<uint64_t>(scanned, 1));
    c.match_us_per_subquery = dt * 1e6 / static_cast<double>(3 * nwin);
  }

  // Ingest: encryption and the versioned store over the boot corpus.
  std::vector<pps::FileInfo> docs;
  for (int i = 0; i < 64; ++i) {
    docs.push_back(pps::CorpusGenerator::sample_document(rng.next_u64()));
  }
  std::vector<pps::EncryptedFileMetadata> enc;
  c.encrypt_doc_us = ns_per_op(docs.size(), [&](size_t n) {
                       enc.clear();
                       for (size_t i = 0; i < n; ++i) {
                         enc.push_back(eng.encrypt_document(
                             docs[i], rng.next_ring_id(), i + 1));
                       }
                     }) / 1e3;
  {
    std::vector<double> add, rem, compact, scan;
    for (int r = 0; r < 5; ++r) {
      pps::VersionedStore vs(eng.base_store());
      std::vector<pps::EncryptedFileMetadata> items;
      for (int k = 0; k < 8; ++k) items.insert(items.end(), enc.begin(), enc.end());
      for (size_t i = 0; i < items.size(); ++i) {
        items[i].id = rng.next_ring_id();
      }
      double t0 = now_s();
      for (auto& it : items) vs.add(std::move(it));
      add.push_back((now_s() - t0) * 1e6 / static_cast<double>(items.size()));
      // Scan the overlay: the whole snapshot minus the same scan of the
      // bare base, per overlay item.
      auto snap = vs.snapshot();
      MatchEngine::Window whole;
      whole.whole = true;
      t0 = now_s();
      auto with = eng.execute(whole, *snap);
      double t_with = now_s() - t0;
      t0 = now_s();
      auto bare = eng.execute(whole);
      double t_bare = now_s() - t0;
      g_sink += with.matches + bare.matches;
      scan.push_back(std::max(0.0, t_with - t_bare) * 1e9 /
                     static_cast<double>(std::max<uint64_t>(
                         with.scanned - std::min(with.scanned, bare.scanned), 1)));
      auto base_items = eng.base_store()->items();
      t0 = now_s();
      for (size_t i = 0; i < 256; ++i) vs.remove(base_items[i * 7 % base_items.size()].id);
      rem.push_back((now_s() - t0) * 1e6 / 256.0);
      t0 = now_s();
      vs.compact();
      compact.push_back((now_s() - t0) * 1e3);
    }
    c.store_add_us = perfbench::median(add);
    c.store_remove_us = perfbench::median(rem);
    c.store_compact_ms = perfbench::median(compact);
    c.overlay_scan_ns_per_item = perfbench::median(scan);
  }

  // Core: planner and Alg. 1 sweep at this n and p; view deltas.
  c.plan_us = ns_per_op(2000, [&](size_t n) {
                for (size_t i = 0; i < n; ++i) {
                  g_sink += planner.plan(ring, rng.next_ring_id(), s.p, s.p, rng)
                                .parts.size();
                }
              }) / 1e3;
  UniformEstimator est;
  est.ring = &ring;
  c.schedule_us = ns_per_op(500, [&](size_t n) {
                    for (size_t i = 0; i < n; ++i) {
                      g_sink += core::SweepScheduler::schedule(
                                    ring, s.p, est, rng.next_ring_id())
                                    .assignment.size();
                    }
                  }) / 1e3;
  auto views = view_chain(ring, s, 1001);
  std::vector<core::ViewDelta> deltas;
  c.view_diff_us = ns_per_op(1000, [&](size_t n) {
                     deltas.clear();
                     for (size_t i = 0; i < n; ++i) {
                       deltas.push_back(core::view_diff(views[i], views[i + 1]));
                     }
                   }) / 1e3;
  {
    std::vector<double> t;
    for (int r = 0; r < 5; ++r) {
      core::ViewSubscription sub;
      sub.apply(core::view_full_delta(views[0]));
      double t0 = now_s();
      for (const auto& d : deltas) g_sink += static_cast<int>(sub.apply(d));
      t.push_back((now_s() - t0) * 1e6 / static_cast<double>(deltas.size()));
    }
    c.view_apply_us = perfbench::median(t);
  }

  // Protocol codecs and framing on messages shaped like the workload's.
  const auto& part = plans[0].parts[0];
  SubQueryMsg sq;
  sq.query_id = 12345;
  sq.part_id = 3;
  sq.trace = core::query_trace_id(0, 12345);
  sq.point = part.point;
  sq.window_begin = part.window_begin;
  sq.window_end = part.responsibility_end;
  sq.pq = s.p;
  sq.share = part.share;
  SubQueryReplyMsg rp;
  rp.query_id = 12345;
  rp.part_id = 3;
  rp.trace = sq.trace;
  rp.scanned = eng.store_size() / s.p;
  rp.matches = b.expected() / s.p;
  rp.service_s = 1e-3;
  UpdateMsg up;
  up.shard = 3;
  up.lsn = 777;
  up.doc_id = rng.next_ring_id();
  up.enc_seed = 99;
  up.path = docs[0].path;
  up.keywords = docs[0].content_keywords;
  up.size_bytes = docs[0].size_bytes;
  up.mtime = docs[0].mtime;
  ViewDeltaMsg vd;
  vd.delta = deltas[0];
  for (uint32_t i = 0; i < std::min<uint32_t>(s.nodes, 8); ++i) {
    vd.relay_targets.push_back(node_address(i));
  }
  vd.relay_fanout = 8;
  auto codec = [&](const auto& msg, double& enc_ns, double& dec_ns) {
    using Msg = std::decay_t<decltype(msg)>;
    net::Bytes wire = msg.encode();
    enc_ns = ns_per_op(20000, [&](size_t n) {
      for (size_t i = 0; i < n; ++i) g_sink += msg.encode().size();
    });
    dec_ns = ns_per_op(20000, [&](size_t n) {
      for (size_t i = 0; i < n; ++i) g_sink += Msg::decode(wire).has_value();
    });
  };
  codec(sq, c.sq_enc, c.sq_dec);
  codec(rp, c.rp_enc, c.rp_dec);
  codec(up, c.up_enc, c.up_dec);
  codec(vd, c.vd_enc, c.vd_dec);
  {
    net::Bytes payload = sq.encode();
    net::FrameDecoder dec;
    c.frame_ns = ns_per_op(20000, [&](size_t n) {
      for (size_t i = 0; i < n; ++i) {
        net::Bytes f = net::frame(payload);
        dec.feed(f);
        g_sink += dec.next()->size();
      }
    });
  }
  return c;
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else throw std::runtime_error("unknown argument " + k);
  }
  return a;
}

// Medians of the tracer's per-stage breakdown over the assembled queries.
std::map<std::string, double> stage_medians_us(TcpCluster& cl) {
  std::map<std::string, std::vector<double>> v;
  for (const core::QueryTrace& q :
       core::SpanAssembler::assemble(cl.trace_events())) {
    if (!q.complete() || q.failed || q.parts.empty()) continue;
    core::QueryTrace::Breakdown b = q.breakdown();
    v["plan"].push_back(b.plan_s);
    v["dispatch"].push_back(b.dispatch_s);
    v["node_queue"].push_back(b.node_queue_s);
    v["node_service"].push_back(b.node_service_s);
    v["network"].push_back(b.network_s);
    v["tail"].push_back(b.tail_s);
  }
  std::map<std::string, double> out;
  for (auto& [k, xs] : v) out[k] = perfbench::median(xs) * 1e6;
  return out;
}

// The run is kRounds rounds of the same chunks, and latency medians,
// capacity and CPU per query are medians over the rounds: the CPU a
// shared 4-vCPU VM gives the run drifts by +-15% over seconds (and steal
// comes in bursts), so a metric measured in one stretch would carry one
// stretch's drift alone.
constexpr int kRounds = 12;
// Each round ends with a stretch of p changes every 50 ms, which gives
// reconfig_raise_ms and reconfig_lower_ms. On scan and ingest_mix it is
// 0.2 s under a third of the query rate, every answer checked exactly; on
// ingest_mix it follows the round's converged writes. fanout_reconfig
// changes p under its full query rate in the open loop already (checked
// exactly, printed as reconfig_lower_loaded_ms); its stretch is 0.6 s
// with no queries, because there a lowering waits behind the sub-queries
// to 48 nodes on the shared reactors, and its time under load moved by
// 20% between runs with the host's steal.
constexpr double kReconfigStretchS = 0.2;
constexpr double kIdleReconfigStretchS = 0.6;
// fanout_reconfig_writes' writes after each round go at ingest_mix's rate;
// kRounds x 92 = 1104 of them, so their p99 has ten samples beyond it.
constexpr double kRoundWriteRate = 200.0;

struct Totals {
  PhaseResult open, closed, reconfig, update;
  std::vector<double> round_p50, round_p90, round_capacity, round_visible_p50;
  std::vector<double> round_cpu;  // per correct open-loop query
  std::vector<double> cpu_untraced, cpu_traced;  // per query, ABAB
};

int run(const Args& a) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (a.workload == s.name) spec = &s;
  }
  if (!spec) throw std::runtime_error("unknown workload " + a.workload);
  const Spec& s = *spec;
  set_log_level(LogLevel::kWarn);
  std::printf("config: {\"workload\": \"%s\", \"nodes\": %u, \"p\": %u, "
              "\"corpus\": %zu, \"reactor_shards\": %u, \"node_workers\": %u, "
              "\"busy_threads\": %u, \"seed\": %lu, \"trace\": %d}\n",
              s.name, s.nodes, s.p, s.corpus, kReactorShards, kNodeWorkers,
              kReactorShards, static_cast<unsigned long>(a.seed), a.trace);

  Report rep;
  Bench b(s, a.seed);
  const double t_setup = now_s();
  const HostSteal steal0 = host_steal();
  std::vector<double> setups;
  for (int i = 0; i < (a.trace ? 1 : kSetups); ++i) setups.push_back(b.setup());
  rep.count(b.setup_checks());
  const bool mix = s.mix_writes > 0;
  const double round_s = a.seconds / kRounds;

  PhaseConfig warm;
  warm.seconds = 0.3;
  warm.window = s.window;
  warm.expected = b.expected();
  rep.count(b.run(warm, 1).queries);

  // Per round: open loop (latency, CPU; writes on ingest_mix, p changes
  // on the fanout workloads), closed loop (capacity), convergence and
  // probes on ingest_mix, a stretch of p changes (without queries on the
  // fanout workloads), and writes, convergence and probes on
  // fanout_reconfig_writes. Counts are checked exactly wherever the index
  // is not being written, so every p change after the first round follows
  // converged writes on the workloads that write.
  Totals t;
  const double t_rounds = now_s();
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t stream = 10 * (r + 1);
    PhaseConfig open;
    open.seconds = 0.65 * round_s;
    open.query_qps = s.open_qps;
    open.write_ops = s.mix_writes;
    open.reconfig = s.mix_reconfig;
    open.reconfig_gap_s = 0.1;
    open.max_reconfigs = 2 * static_cast<uint32_t>(open.seconds / 0.2);
    if (!mix) open.expected = b.expected();
    PhaseResult o = b.run(open, stream + 1);
    if (auto p50 = perfbench::percentile(o.latency_s, 0.5)) {
      t.round_p50.push_back(*p50);
    }
    if (auto p90 = perfbench::percentile(o.latency_s, 0.9)) {
      t.round_p90.push_back(*p90);
    }
    t.round_cpu.push_back(o.cpu_s / std::max<double>(o.completed_ok, 1.0));
    merge(t.open, o);

    // The traced run alternates untraced and traced closed chunks (ABAB)
    // for the tracing overhead.
    const bool traced = a.trace && r % 2 == 1;
    PhaseConfig closed;
    closed.seconds = 0.35 * round_s;
    closed.window = s.window;
    closed.write_ops = s.mix_writes;
    if (!mix) closed.expected = b.expected();
    b.cluster().tracer().set_enabled(traced);
    PhaseResult c = b.run(closed, stream + 2);
    b.cluster().tracer().set_enabled(false);
    (traced ? t.cpu_traced : t.cpu_untraced)
        .push_back(c.cpu_s / std::max<double>(c.completed_ok, 1.0));
    t.round_capacity.push_back(c.ok_in_window / c.elapsed_s);
    merge(t.closed, c);
    if (mix) {
      PhaseResult w = o;
      merge(w, c);
      if (auto p50 = perfbench::percentile(w.visible_s, 0.5)) {
        t.round_visible_p50.push_back(*p50);
      }
      rep.count_probes(b.converge_and_probe(5), 6);
    }
    PhaseConfig rc;
    rc.seconds = s.mix_reconfig ? kIdleReconfigStretchS : kReconfigStretchS;
    rc.query_qps = s.mix_reconfig ? 0.0 : s.open_qps / 3.0;
    rc.reconfig = true;
    rc.reconfig_gap_s = 0.05;
    rc.expected = b.expected();
    merge(t.reconfig, b.run(rc, stream + 3));
    // Last in the round, so the next round's p changes under load follow
    // these writes directly: lowerings in between would let anti-entropy
    // sync the grown arcs first.
    if (s.round_writes > 0) {
      PhaseConfig up;
      up.seconds = 30.0;
      up.write_ops = kRoundWriteRate;
      up.max_writes = s.round_writes;
      PhaseResult w = b.run(up, stream + 4);
      if (auto p50 = perfbench::percentile(w.visible_s, 0.5)) {
        t.round_visible_p50.push_back(*p50);
      }
      merge(t.update, w);
      rep.count_probes(b.converge_and_probe(5), 6);
    }
  }
  const double steal_pct = 100.0 * steal_share(steal0, host_steal());
  std::printf("timing: setup %.2f s (x%zu), rounds %.2f s; host steal "
              "%.2f%%\n",
              t_rounds - t_setup, setups.size(), now_s() - t_rounds,
              steal_pct);
  rep.check(b.settled(s.p), "p settles back at its starting level");

  std::map<std::string, double> stages;
  if (a.trace) {
    // A traced stretch of the open loop for the stage breakdown.
    PhaseConfig tr;
    tr.seconds = 1.5;
    tr.query_qps = s.open_qps;
    tr.write_ops = s.mix_writes;
    if (!mix) tr.expected = b.expected();
    b.cluster().tracer().set_enabled(true);
    rep.count(b.run(tr, 6).queries);
    b.cluster().tracer().set_enabled(false);
    stages = stage_medians_us(b.cluster());
  }

  rep.count(t.open.queries);
  rep.count(t.closed.queries);
  rep.count(t.reconfig.queries);
  const PhaseResult& rc = t.reconfig;
  // The writes: ingest_mix's open and closed loops, fanout_reconfig_writes'
  // write chunks.
  PhaseResult& up = t.update;
  if (mix) {
    up = t.open;
    merge(up, t.closed);
  }
  const size_t changes = rc.raise_s.size() + rc.lower_s.size();
  const size_t open_changes = t.open.raise_s.size() + t.open.lower_s.size();
  rep.attempted += up.writes + changes + rc.reconfigs_failed + open_changes +
                   t.open.reconfigs_failed;
  rep.failed += up.writes_failed + rc.reconfigs_failed +
                t.open.reconfigs_failed;
  rep.check(rc.raise_s.size() >= 2 && rc.lower_s.size() >= 2,
            "at least two raises and two lowers of p");
  if (s.mix_reconfig) {
    rep.check(t.open.raise_s.size() >= 2 && t.open.lower_s.size() >= 2,
              "at least two raises and two lowers of p under the open loop");
  }

  const PhaseResult& o = t.open;
  const PhaseResult& c = t.closed;
  std::printf("phases: open %lu queries (%.0f q/s), closed %lu answers, "
              "%lu writes, %zu raises, %zu lowers\n",
              static_cast<unsigned long>(o.queries.attempted),
              o.queries.attempted / std::max(o.elapsed_s, 1e-9),
              static_cast<unsigned long>(c.ok_in_window),
              static_cast<unsigned long>(up.writes), rc.raise_s.size(),
              rc.lower_s.size());
  std::printf("query_fail_frac %.6f (open) %.6f (closed); "
              "update_fail_frac %.6f\n",
              o.queries.fail_frac(), c.queries.fail_frac(),
              up.writes ? static_cast<double>(up.writes_failed) / up.writes
                        : 0.0);

  const double done = std::max<double>(o.completed_ok, 1.0);
  const double cpu_ms = perfbench::median(t.round_cpu) * 1e3;
  if (!a.trace) {
    rep.check(t.round_p50.size() == kRounds, "query_p50: a p50 in every round");
    rep.add("query_p50_ms", perfbench::median(t.round_p50) * 1e3, "ms");
    rep.add("query_p90_ms", perfbench::median(t.round_p90) * 1e3, "ms");
    rep.add("query_p99_ms", pct_ms(o.latency_s, 0.99, rep, "query_p99"), "ms");
    rep.add("capacity_qps", perfbench::median(t.round_capacity), "1/s");
    rep.add("cpu_ms_per_query", cpu_ms, "ms");
    rep.add("setup_s", perfbench::median(setups), "s");
    if (s.ingest()) {
      rep.check(t.round_visible_p50.size() == kRounds,
                "update_visible_p50: a p50 in every round");
      rep.add("update_visible_p50_ms",
              perfbench::median(t.round_visible_p50) * 1e3, "ms");
      rep.add("update_visible_p99_ms",
              pct_ms(up.visible_s, 0.99, rep, "update_visible_p99"), "ms");
    }
    rep.add("reconfig_raise_ms", perfbench::median(rc.raise_s) * 1e3, "ms");
    rep.add("reconfig_lower_ms", perfbench::median(rc.lower_s) * 1e3, "ms");
    if (s.mix_reconfig) {
      rep.add("reconfig_lower_loaded_ms",
              perfbench::median(t.open.lower_s) * 1e3, "ms");
    }
    rep.print();
    return rep.correct && rep.failed == 0 ? 0 : 1;
  }

  LayerCosts L = time_layers(b, s, a.seed);
  rep.add("pps.match_ns_per_item", L.match_ns_per_item, "ns");
  rep.add("pps.match_us_per_subquery", L.match_us_per_subquery, "us");
  rep.add("pps.encrypt_doc_us", L.encrypt_doc_us, "us");
  rep.add("pps.store_add_us", L.store_add_us, "us");
  rep.add("pps.store_remove_us", L.store_remove_us, "us");
  rep.add("pps.store_compact_ms", L.store_compact_ms, "ms");
  rep.add("pps.overlay_scan_ns_per_item", L.overlay_scan_ns_per_item, "ns");
  rep.add("core.plan_us", L.plan_us, "us");
  rep.add("core.schedule_us", L.schedule_us, "us");
  rep.add("core.view_diff_us", L.view_diff_us, "us");
  rep.add("core.view_apply_us", L.view_apply_us, "us");
  rep.add("protocol.subquery_encode_ns", L.sq_enc, "ns");
  rep.add("protocol.subquery_decode_ns", L.sq_dec, "ns");
  rep.add("protocol.reply_encode_ns", L.rp_enc, "ns");
  rep.add("protocol.reply_decode_ns", L.rp_dec, "ns");
  rep.add("protocol.update_encode_ns", L.up_enc, "ns");
  rep.add("protocol.update_decode_ns", L.up_dec, "ns");
  rep.add("protocol.viewdelta_encode_ns", L.vd_enc, "ns");
  rep.add("protocol.viewdelta_decode_ns", L.vd_dec, "ns");
  rep.add("net.frame_ns", L.frame_ns, "ns");

  const double msgs = o.msgs / done, subq = o.subqueries / done;
  const double retries = static_cast<double>(o.retries) / done;
  const double applied = o.updates_applied / done;
  rep.add("net.msgs_per_query", msgs, "count");
  rep.add("net.bytes_per_query", o.bytes / done, "B");
  rep.add("net.alloc_per_query", o.net.allocs / done, "count");
  rep.add("net.frames_per_writev", o.net.frames / std::max(o.net.writevs, 1.0),
          "count");
  for (const char* st :
       {"plan", "dispatch", "node_queue", "node_service", "network", "tail"}) {
    rep.check(stages.count(st) > 0, "traced queries were assembled");
    rep.add(std::string("stage.") + st + "_us", stages[st], "us");
  }
  rep.add("frontend.retries_per_query", retries, "count");
  rep.add("ingest.updates_sent_per_op",
          up.updates_sent / std::max<double>(up.writes, 1.0), "count");
  rep.add("ingest.retransmits", up.retransmits, "count");
  rep.add("control.deltas_per_reconfig",
          rc.deltas / std::max<double>(changes, 1.0), "count");
  auto late = perfbench::percentile(o.gen_late_s, 0.99);
  rep.add("bench.gen_late_p99_ms", late ? *late * 1e3 : 0.0, "ms");
  rep.add("bench.host_steal_pct", steal_pct, "%");

  // Ledger: replayed layer cost x per-query op count from the counters,
  // against the measured CPU per query of the open loop.
  const double msg_us =
      (L.frame_ns + 0.5 * (L.sq_enc + L.sq_dec + L.rp_enc + L.rp_dec)) / 1e3;
  const double write_us =
      L.encrypt_doc_us + L.store_add_us + (L.up_enc + L.up_dec) / 1e3;
  const double match_ms = subq * L.match_us_per_subquery / 1e3;
  const double plan_ms = (1.0 + retries) * (L.plan_us + L.schedule_us) / 1e3;
  const double msgs_ms = msgs * msg_us / 1e3;
  const double writes_ms = applied * write_us / 1e3;
  const double predicted_ms = match_ms + plan_ms + msgs_ms + writes_ms;
  std::printf("ledger: predicted %.4f of %.4f ms per query (match %.4f, "
              "plan+schedule %.4f, messages %.4f, writes %.4f)\n",
              predicted_ms, cpu_ms, match_ms, plan_ms, msgs_ms, writes_ms);
  rep.add("ledger.unexplained_pct", 100.0 * (1.0 - predicted_ms / cpu_ms), "%");
  const double base = perfbench::median(t.cpu_untraced);
  rep.add("trace.overhead_pct",
          100.0 * (perfbench::median(t.cpu_traced) - base) / base, "%");
  std::printf("layers: checksum %lu\n", static_cast<unsigned long>(g_sink));
  rep.print();
  return rep.correct && rep.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "roar_perf: %s\n", e.what());
    return 2;
  }
}
