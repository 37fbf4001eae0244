// perfbench batch runner — runs ONE benchmark workload in this process and
// prints one JSON line of raw measurements on stdout for perfbench/run.py,
// which gates, aggregates and reports them.
//
//   perfbench_batch --workload <name> --seed <n> --mode run|trace|setup
//
// mode run   : the untraced batch.  Deployment construction + scenario
//              scheduling are timed as set-up, then the simulated duration
//              is run as a fixed sequence of run_until slices, each timed for
//              wall and process CPU (all threads) and followed by one chunk
//              of a fixed calibration kernel, timed too.  run.py takes each
//              slice's fastest repeat and scales by the kernel's speed, so
//              the contention other tenants put on the host drops out.
// mode setup : only the set-up of mode run, timed once in a fresh process, so
//              every sample pays what a user's first construction pays (page
//              faults, allocator growth) and run.py can take the median over
//              many independent processes.
// mode trace : the same batch observed from outside.  Spans are recorded
//              around every call this file makes into the simulator (build,
//              schedule, each run_until slice grouped by scenario phase,
//              collect_registry) and around two replays sized from the run:
//              EventQueue churn at the run's peak pending depth and the
//              protocol codec over the run's message mix.  Spans stay in
//              memory and are printed at exit; run.py derives self times.
//
// Nothing here feeds wall-clock readings back into the simulation.  Both
// modes advance time through the same slice ends, so a traced batch must
// simulate exactly what the untraced one does (sharded runs are not
// slice-invariant: a slice end runs that instant's events before its
// cross-shard mail, so the slices are part of the workload).  The
// workload definitions are spelled out here rather than taken from bench/,
// so an edit to a figure bench cannot change what this benchmark measures.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "net/event_queue.h"
#include "obs/collect.h"
#include "sim/deployment.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "util/codec.h"
#include "util/rng.h"

namespace matrix::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

long current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return resident * 4;  // 4 KiB pages
}

// ---- calibration kernel ------------------------------------------------------

/// A fixed, self-contained event loop (binary-heap agenda over 16 MiB of node
/// state, a session table and a per-event byte buffer) standing in for "this
/// host's speed right now".  It shares no code with the simulator, so no
/// change under src/ moves it; its data outgrows L2 like the simulator's, so
/// it slows with the same cache and memory contention from other tenants.
/// Each chunk runs a fixed number of events; run.py divides by its time.
class Calibration {
 public:
  static constexpr int kChunkEvents = 200;

  Calibration() : nodes_(kNodes), sessions_(1 << 16) {
    for (Node& n : nodes_) {
      n.peer = static_cast<std::uint32_t>(next() % kNodes);
      for (std::uint64_t& v : n.state) v = next();
    }
    agenda_.reserve(kPending);
    for (std::uint32_t i = 0; i < kPending; ++i) {
      agenda_.push_back({next() % 1'000'000,
                         static_cast<std::uint32_t>(next() % kNodes)});
    }
    std::make_heap(agenda_.begin(), agenda_.end(), Later{});
  }

  /// Seconds for one chunk of kChunkEvents events.
  double chunk() {
    const auto t0 = Clock::now();
    for (int i = 0; i < kChunkEvents; ++i) {
      std::pop_heap(agenda_.begin(), agenda_.end(), Later{});
      const Event e = agenda_.back();
      agenda_.pop_back();
      Node& n = nodes_[e.node];
      const Node& peer = nodes_[n.peer];
      ++n.count;
      for (int k = 0; k < 6; ++k) {
        n.state[k] = n.state[k] * 6364136223846793005ULL + peer.state[5 - k];
        sum_ += n.state[k] >> 7;
      }
      sessions_[e.node & 0xffff] += n.count;
      buffer_.clear();
      for (int k = 0; k < 24; ++k) {
        buffer_.push_back(static_cast<std::uint8_t>(n.state[k % 6] >> (2 * k)));
      }
      sum_ += buffer_[sum_ % buffer_.size()];
      agenda_.push_back({e.time + 1 + next() % 2000,
                         static_cast<std::uint32_t>((n.peer + next() % 64) %
                                                    kNodes)});
      std::push_heap(agenda_.begin(), agenda_.end(), Later{});
    }
    return seconds_since(t0);
  }

  std::uint64_t checksum() const { return sum_; }

 private:
  static constexpr std::uint32_t kNodes = 1 << 18;  // 64-byte nodes
  static constexpr std::uint32_t kPending = 100'000;
  struct Event {
    std::uint64_t time;
    std::uint32_t node;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time > b.time;
    }
  };
  struct Node {
    std::uint64_t state[6];
    std::uint32_t peer;
    std::uint32_t count = 0;
  };
  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> sessions_;
  std::vector<Event> agenda_;
  std::vector<std::uint8_t> buffer_;
  std::uint64_t x_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t sum_ = 0;
};

// ---- workloads ---------------------------------------------------------------

struct Phase {
  const char* name;
  SimTime end;  ///< the phase covers [previous end, end)
};

struct Workload {
  const char* name;
  SimTime duration;
  SimTime slice;  ///< every batch advances time in slices of this length
  std::vector<Phase> phases;
  std::size_t offered;  ///< bots the scenario creates
  std::function<DeploymentOptions(std::uint64_t seed)> options;
  std::function<void(Deployment&)> schedule;
};

/// The paper's Fig. 2 deployment: overload at 300 clients, underload below
/// 150, BzFlag traffic, one root and 11 spares.
DeploymentOptions fig2_options(std::uint64_t seed) {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.overload_clients = 300;
  options.config.underload_clients = 150;
  options.config.overload_queue_length = 2000;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = SimTime::from_sec(3.0);
  options.config.load_report_interval = SimTime::from_ms(500);
  options.config.policy.kind = LoadPolicyKind::kClassic;
  options.spec = bzflag_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.initial_servers = 1;
  options.pool_size = 11;
  options.map_objects = 300;
  options.seed = seed;
  return options;
}

/// The Fig. 2 timeline as bench/bench_fig2_hotspot.cpp scripts it: a
/// town-square-sized footprint (spread 120) so map cuts can divide the
/// crowd, which is what lets "up to four servers" absorb each hotspot.
constexpr double kFig2Spread = 120.0;

void schedule_fig2(Deployment& deployment,
                   const HotspotScenarioOptions& options) {
  Scenario script(deployment);
  script.add_background_bots(SimTime::from_ms(100), options.background_bots);
  const auto hotspot = [&](SimTime at, std::size_t bots, Vec2 center,
                           SimTime hold) {
    script.add_hotspot_bots(at, bots, center, kFig2Spread);
    SimTime t = at + hold;
    for (std::size_t left = bots; left > 0;) {
      const std::size_t group = std::min(options.departure_group, left);
      script.remove_bots_at(t, group, center);
      left -= group;
      t += options.departure_interval;
    }
  };
  hotspot(options.first_hotspot_at, options.hotspot_bots,
          options.first_hotspot, options.hold);
  hotspot(options.second_hotspot_at, options.second_hotspot_bots,
          options.second_hotspot_center, options.second_hold);
}

HotspotScenarioOptions fig2_scenario() {
  HotspotScenarioOptions scenario;
  scenario.first_hotspot = {350.0, 350.0};
  scenario.second_hotspot_center = {800.0, 800.0};
  scenario.duration = SimTime::from_sec(280.0);
  return scenario;
}

/// K=2 runs three engine threads (two workers + the blocked main thread) on
/// a 4-core host; perfbench/README.md records why not K=3 or K=4.
constexpr std::size_t kGigaShards = 2;

DeploymentOptions giga_options(std::uint64_t seed) {
  DeploymentOptions options = giga_surge_deployment_options(kGigaShards);
  options.seed = seed;
  return options;
}

/// One root and three spares at 300 clients each (1,200 capacity) facing a
/// 3,000-bot flash crowd, with the admission valve, the surge queue, global
/// admission and the directive policy all on.  The crowd's footprint (σ=250)
/// spreads it over all four partitions; at σ=150, 3 of 10 seeds left one
/// partition congested once the pool ran dry (p99 85–177 sim-ms against
/// ~56), so its p99 split into two modes across seeds.
constexpr std::size_t kSurgePool = 3;
constexpr double kSurgeTokenRate = 8.0;

DeploymentOptions surge_options(std::uint64_t seed) {
  DeploymentOptions options;
  options.config.world = Rect(0, 0, 1000, 1000);
  options.config.overload_clients = 300;
  options.config.underload_clients = 150;
  options.config.sustain_reports_to_split = 2;
  options.config.topology_cooldown = SimTime::from_sec(2.0);
  options.config.load_report_interval = SimTime::from_ms(500);
  options.config.pool_backoff_initial = SimTime::from_sec(1.0);
  options.config.pool_backoff_max = SimTime::from_sec(8.0);
  options.config.policy.kind = LoadPolicyKind::kDirective;

  AdmissionConfig& admission = options.config.admission;
  admission.enabled = true;
  admission.soft_denied_streak = 1;
  admission.hard_denied_streak = 3;
  admission.soft_waiting_count = 25;
  admission.soft_load_fraction = 0.75;
  admission.hard_load_fraction = 0.95;
  admission.token_rate_per_sec = kSurgeTokenRate;
  admission.token_burst = 8.0;
  admission.dwell = SimTime::from_sec(1.0);
  admission.recover_min = SimTime::from_sec(4.0);
  admission.defer_retry = SimTime::from_sec(2.0);
  admission.priority.queue_enabled = true;
  admission.priority.queue_capacity = 512;
  admission.priority.age_step = SimTime::from_sec(20.0);
  admission.priority.update_interval = SimTime::from_ms(500);
  admission.global.enabled = true;
  admission.global.token_rate_total =
      kSurgeTokenRate * static_cast<double>(1 + kSurgePool);
  admission.global.token_rate_floor = 0.25;
  admission.global.dwell = SimTime::from_sec(1.0);
  admission.global.recover_min = SimTime::from_sec(4.0);
  admission.global.directive_interval = SimTime::from_sec(1.0);

  options.spec = bzflag_like();
  options.config.visibility_radius = options.spec.visibility_radius;
  options.initial_servers = 1;
  options.pool_size = kSurgePool;
  options.map_objects = 300;
  options.seed = seed;
  return options;
}

SurgeScenarioOptions surge_scenario() {
  SurgeScenarioOptions scenario;
  scenario.background_bots = 100;
  scenario.flash_bots = 2900;
  scenario.join_batch = 290;
  scenario.join_interval = SimTime::from_sec(2.0);
  scenario.flash_at = SimTime::from_sec(5.0);
  scenario.center = {500.0, 500.0};
  scenario.spread = 250.0;
  scenario.vip_fraction = 0.15;
  scenario.leave_bots = 600;
  scenario.leave_batch = 150;
  scenario.leave_at = SimTime::from_sec(45.0);
  scenario.leave_interval = SimTime::from_sec(5.0);
  scenario.duration = SimTime::from_sec(90.0);
  return scenario;
}

/// Two simulated seconds: the join flood (all answered by t = 1 s) and one
/// second of steady play.  Short batches let a run take several repeats, so
/// its median rides out the bursts of host contention that stall every
/// barrier window of a threaded run.
GigaSurgeScenarioOptions giga_scenario() {
  GigaSurgeScenarioOptions scenario;
  scenario.duration = SimTime::from_sec(2.0);
  return scenario;
}

std::vector<Workload> workloads() {
  const HotspotScenarioOptions fig2 = fig2_scenario();
  const GigaSurgeScenarioOptions giga = giga_scenario();
  const SurgeScenarioOptions surge = surge_scenario();
  // Phase ends follow each scenario's script: fig2's hotspots last from
  // their arrival until the last departure group leaves; giga's joins are
  // all answered within 1 s; surge's waves arrive until t = 23 s.  Slices
  // take a few milliseconds of host time each (tens on giga), so run.py's
  // per-slice minimum over repeats finds the host's quiet moments.
  return {
      {"fig2_hotspot", fig2.duration, SimTime::from_ms(250),
       {{"calm", SimTime::from_sec(10.0)},
        {"hotspot", SimTime::from_sec(115.0)},
        {"calm", SimTime::from_sec(170.0)},
        {"hotspot", SimTime::from_sec(250.0)},
        {"calm", fig2.duration}},
       fig2.background_bots + fig2.hotspot_bots + fig2.second_hotspot_bots,
       fig2_options,
       [fig2](Deployment& d) { schedule_fig2(d, fig2); }},
      {"giga_k2", giga.duration, SimTime::from_ms(10),
       {{"join", SimTime::from_sec(1.0)}, {"steady", giga.duration}},
       giga_surge_offered_clients(giga), giga_options,
       [giga](Deployment& d) { schedule_giga_surge_scenario(d, giga); }},
      {"surge_admission", surge.duration, SimTime::from_ms(100),
       {{"join", SimTime::from_sec(25.0)}, {"steady", surge.duration}},
       surge_offered_clients(surge), surge_options,
       [surge](Deployment& d) { schedule_surge_scenario(d, surge); }},
  };
}

// ---- JSON output -------------------------------------------------------------

class JsonLine {
 public:
  void key(const char* k) {
    if (out_.size() > 1) out_ += ",";
    out_ += "\"";
    out_ += k;
    out_ += "\":";
  }
  void num(const char* k, double v) {
    key(k);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void uint(const char* k, std::uint64_t v) {
    key(k);
    out_ += std::to_string(v);
  }
  void str(const char* k, const std::string& v) {
    key(k);
    out_ += "\"" + v + "\"";
  }
  void boolean(const char* k, bool v) {
    key(k);
    out_ += v ? "true" : "false";
  }
  /// Appends pre-rendered JSON (an array or object) under `k`.
  void raw(const char* k, const std::string& json) {
    key(k);
    out_ += json;
  }
  std::string finish() { return out_ + "}"; }

 private:
  std::string out_ = "{";
};

// ---- outcome summary + fingerprint --------------------------------------------

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

/// Everything the batch simulated, for the correctness gate and the
/// simulated end-to-end metrics.  Deterministic for fixed code and seed.
void write_outcomes(JsonLine& json, Deployment& deployment,
                    const Workload& workload) {
  Network& net = deployment.network();
  const Network::EngineStats engine = net.engine_stats();
  const LatencySummary latency = collect_latency(deployment);
  const AdmissionSummary admission = collect_admission(deployment);

  std::uint64_t admitted = 0, denied = 0, deferred = 0, queued = 0,
                unanswered = 0, actions_sent = 0;
  for (const BotClient* bot : deployment.bots()) {
    const BotClient::Metrics& m = bot->metrics();
    actions_sent += m.actions_sent;
    if (bot->ever_connected()) {
      ++admitted;
    } else if (bot->queue_pending()) {
      ++queued;
    } else if (m.joins_denied > 0) {
      ++denied;
    } else if (bot->defer_pending() || m.joins_deferred > 0) {
      ++deferred;  // waiting to retry, or its retry is in flight
    } else {
      ++unanswered;
    }
  }

  double action_sum = 0.0;
  for (const double x : latency.self_ms.samples()) action_sum += x;
  double switch_sum = 0.0;
  for (const double x : latency.switch_ms.samples()) switch_sum += x;

  json.num("sim_end_s", net.now().sec());
  json.num("duration_s", workload.duration.sec());
  json.uint("events", engine.events_processed);
  json.uint("messages", net.total_messages());
  json.uint("bytes", net.total_bytes());
  json.uint("windows", engine.windows);
  json.num("window_stall_s", static_cast<double>(engine.window_stall_us) * 1e-6);
  json.uint("cross_shard_msgs", engine.cross_shard_messages);
  std::string shard_events = "[";
  for (std::size_t i = 0; i < engine.shard_events.size(); ++i) {
    if (i > 0) shard_events += ",";
    shard_events += std::to_string(engine.shard_events[i]);
  }
  json.raw("shard_events", shard_events + "]");
  json.uint("event_peak_pending", engine.event_peak_pending);
  json.uint("buffers_acquired", engine.buffers_acquired);
  json.uint("buffers_reused", engine.buffers_reused);

  json.uint("action_samples", latency.self_ms.count());
  json.num("action_p50_ms", latency.self_ms.percentile(50.0));
  json.num("action_p99_ms", latency.self_ms.percentile(99.0));
  json.num("action_sum_ms", action_sum);
  json.uint("actions_sent", actions_sent);
  json.uint("switch_samples", latency.switch_ms.count());
  json.num("switch_p50_ms", latency.switch_ms.percentile(50.0));
  json.num("switch_sum_ms", switch_sum);

  json.uint("offered_expected", workload.offered);
  json.uint("offered", deployment.bots().size());
  json.uint("admitted", admitted);
  json.uint("denied", denied);
  json.uint("deferred", deferred);
  json.uint("queued", queued);
  json.uint("unanswered", unanswered);
  json.boolean("timelines_valid",
               admission.timelines_valid && admission.global_timeline_valid);

  // Layer work counts (reported by traced runs; cheap to collect always).
  std::uint64_t splits = 0, reclaims = 0, splits_denied = 0, fanout = 0,
                table_updates = 0, nonproximal = 0;
  for (const MatrixServer* server : deployment.matrix_servers()) {
    const MatrixServer::Stats& s = server->stats();
    splits += s.splits_completed;
    reclaims += s.reclaims_completed;
    splits_denied += s.split_denied_no_server;
    fanout += s.packets_fanned_out;
    table_updates += s.table_updates;
    nonproximal += s.nonproximal_lookups;
  }
  json.uint("core.splits", splits);
  json.uint("core.reclaims", reclaims);
  json.uint("core.splits_denied", splits_denied);
  json.uint("core.fanout_msgs", fanout);
  json.uint("core.table_updates", table_updates);
  json.uint("core.nonproximal_lookups", nonproximal);
  json.uint("core.pool_grants", deployment.pool().grants());
  json.uint("core.pool_denies", deployment.pool().denies());

  std::uint64_t actions = 0, hellos = 0, redirected = 0, migrated = 0,
                updates = 0, load_reports = 0, queue_updates = 0;
  for (const GameServer* server : deployment.game_servers()) {
    const GameServer::Stats& s = server->stats();
    actions += s.actions;
    hellos += s.hellos;
    redirected += s.clients_redirected;
    migrated += s.clients_migrated;
    updates += s.updates_sent;
    load_reports += s.load_reports;
    queue_updates += s.queue_updates_sent;
  }
  json.uint("game.actions", actions);
  json.uint("game.hellos", hellos);
  json.uint("game.redirected", redirected);
  json.uint("game.migrated", migrated);
  json.uint("game.updates_sent", updates);
  json.uint("game.load_reports", load_reports);
  json.uint("game.queue_updates", queue_updates);

  json.uint("control.joins_deferred", admission.joins_deferred);
  json.uint("control.joins_denied", admission.joins_denied);
  json.uint("control.queue_parked", admission.joins_queued);
  json.uint("control.queue_admitted", admission.queue_admitted);
  json.uint("control.queue_overflow", admission.queue_overflow);
  json.uint("control.queue_max_depth", admission.max_queue_depth);
  json.uint("control.directives_applied", admission.directives_applied);
  json.uint("control.transitions", admission.transitions);

  Fnv fp;
  fp.add(engine.events_processed);
  fp.add(net.total_messages());
  fp.add(net.total_bytes());
  fp.add(static_cast<std::uint64_t>(latency.self_ms.count()));
  fp.add(action_sum);
  fp.add(static_cast<std::uint64_t>(latency.switch_ms.count()));
  fp.add(switch_sum);
  fp.add(actions_sent);
  fp.add(admitted);
  fp.add(denied);
  fp.add(deferred);
  fp.add(queued);
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, fp.h);
  json.str("fingerprint", hex);
}

// ---- spans -------------------------------------------------------------------

/// In-memory span log: name, parent, start/end on the steady clock.
class Spans {
 public:
  Spans() : origin_(Clock::now()) {}

  std::size_t open(const std::string& name, std::size_t parent) {
    spans_.push_back({name, parent, now_ns(), 0});
    return spans_.size() - 1;
  }
  void close(std::size_t id) { spans_[id].end_ns = now_ns(); }
  double seconds(std::size_t id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
  }
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",";
      out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + s.name +
             "\",\"parent\":" +
             (s.parent == kRoot ? std::string("null")
                                : std::to_string(s.parent)) +
             ",\"start_ns\":" + std::to_string(s.start_ns) +
             ",\"end_ns\":" + std::to_string(s.end_ns) + "}";
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- replays -----------------------------------------------------------------

/// Hold-model churn on a bare EventQueue at `depth` pending events: one pop
/// plus one push per iteration, horizons uniform over one simulated second.
double scheduler_ops_per_s(std::size_t depth, std::uint64_t iterations) {
  EventQueue queue;
  Rng rng(0x5EED5EEDULL + depth);
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule_at(SimTime::from_us(rng.next_in(0, 1'000'000)),
                      [&fired] { ++fired; });
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    queue.step();
    queue.schedule_at(queue.now() + SimTime::from_us(rng.next_in(0, 1'000'000)),
                      [&fired] { ++fired; });
  }
  const double wall = seconds_since(t0);
  if (fired != iterations) {
    std::fprintf(stderr, "scheduler replay fired %" PRIu64 " of %" PRIu64 "\n",
                 fired, iterations);
    std::exit(3);
  }
  return 2.0 * static_cast<double>(iterations) / wall;
}

struct CodecCost {
  const char* type;
  std::uint64_t iterations = 0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double view_ns = 0.0;
};

/// Times encode_one_into, decode_message and the type's zero-copy view over
/// `iterations` round trips of `body`, and checks that both decoders agree
/// with the source.  `view` parses a frame (nullopt when malformed); `field`
/// reads one field that the body, its decode and its view all carry.
template <typename Body, typename View, typename Field>
CodecCost replay_codec(const char* type, const Body& body,
                       std::uint64_t iterations, View&& view, Field&& field) {
  CodecCost cost;
  cost.type = type;
  cost.iterations = iterations;
  ByteWriter writer;
  std::uint64_t sink = 0;

  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    writer = ByteWriter(writer.take());
    encode_one_into(writer, body);
    sink += writer.size();
  }
  cost.encode_ns = seconds_since(t0) * 1e9 / static_cast<double>(iterations);
  const std::vector<std::uint8_t> frame = writer.take();

  t0 = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const std::optional<Message> decoded = decode_message(frame);
    if (!decoded || !std::holds_alternative<Body>(*decoded) ||
        field(std::get<Body>(*decoded)) != field(body)) {
      std::fprintf(stderr, "codec replay: %s decode disagrees\n", type);
      std::exit(3);
    }
    sink += decoded->index();
  }
  cost.decode_ns = seconds_since(t0) * 1e9 / static_cast<double>(iterations);

  t0 = Clock::now();
  for (std::uint64_t i = 0; i < iterations; ++i) {
    const auto parsed = view(frame);
    if (!parsed || field(*parsed) != field(body)) {
      std::fprintf(stderr, "codec replay: %s view disagrees\n", type);
      std::exit(3);
    }
    sink += 1;
  }
  cost.view_ns = seconds_since(t0) * 1e9 / static_cast<double>(iterations);
  if (sink == 0) std::exit(3);  // keeps the loops observable
  return cost;
}

/// Iterations for one message type: 1/50 of the run's count, clamped so
/// every type is timed over enough round trips and no replay dominates.
std::uint64_t replay_iterations(std::uint64_t run_count) {
  return std::clamp<std::uint64_t>(run_count / 50, 20'000, 400'000);
}

struct MessageMix {
  std::uint64_t actions = 0;
  std::uint64_t updates = 0;
  std::uint64_t tagged = 0;
  std::uint64_t load_reports = 0;
  std::uint64_t queue_updates = 0;
};

std::vector<CodecCost> replay_codecs(const MessageMix& mix,
                                     std::size_t payload_bytes) {
  const std::vector<std::uint8_t> payload(payload_bytes, 0x5A);
  std::vector<CodecCost> costs;

  ClientAction action;
  action.client = ClientId{42};
  action.kind = 1;
  action.position = {120.5, 310.25};
  action.seq = 777;
  action.sent_at = SimTime::from_ms(1234);
  action.payload = PayloadBytes(payload);
  costs.push_back(replay_codec(
      "ClientAction", action, replay_iterations(mix.actions),
      [](std::span<const std::uint8_t> f) { return parse_client_action_frame(f); },
      [](const auto& m) { return m.seq; }));

  ServerUpdate update;
  update.kind = 2;
  update.position = {44.0, 55.0};
  update.ack_seq = 777;
  update.origin_sent_at = SimTime::from_ms(1234);
  update.payload = PayloadBytes(payload);
  costs.push_back(replay_codec(
      "ServerUpdate", update, replay_iterations(mix.updates),
      [](std::span<const std::uint8_t> f) { return parse_server_update_frame(f); },
      [](const auto& m) { return m.ack_seq; }));

  TaggedPacket packet;
  packet.client = ClientId{42};
  packet.entity = EntityId{9};
  packet.origin = {120.5, 310.25};
  packet.kind = 1;
  packet.seq = 778;
  packet.client_sent_at = SimTime::from_ms(1234);
  packet.payload = PayloadBytes(payload);
  costs.push_back(replay_codec(
      "TaggedPacket", packet, replay_iterations(mix.tagged),
      [](std::span<const std::uint8_t> f) { return parse_tagged_packet_frame(f); },
      [](const auto& m) { return m.seq; }));

  LoadReport report;
  report.client_count = 287;
  report.queue_length = 31;
  report.msgs_per_sec = 2870.0;
  report.median_position = {500.0, 480.0};
  report.waiting_count = 12;
  costs.push_back(replay_codec(
      "LoadReport", report, replay_iterations(mix.load_reports),
      [](std::span<const std::uint8_t> f) { return parse_load_report_frame(f); },
      [](const auto& m) { return m.client_count; }));

  QueueUpdate queue_update;
  queue_update.client = ClientId{42};
  queue_update.position = 17;
  queue_update.depth = 640;
  queue_update.eta = SimTime::from_sec(12.0);
  costs.push_back(replay_codec(
      "QueueUpdate", queue_update, replay_iterations(mix.queue_updates),
      [](std::span<const std::uint8_t> f) { return parse_queue_update_frame(f); },
      [](const auto& m) { return m.depth; }));
  return costs;
}

// ---- modes -------------------------------------------------------------------

/// Appends `values` as a JSON array of full-precision numbers under `k`.
void num_array(JsonLine& json, const char* k, const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i > 0 ? "," : "", values[i]);
    out += buf;
  }
  json.raw(k, out + "]");
}

int run_mode(const Workload& workload, std::uint64_t seed) {
  JsonLine json;
  json.str("workload", workload.name);
  json.uint("seed", seed);
  json.str("mode", "run");
  // The kernel's pages stay resident for the whole process, so its share of
  // the high-water RSS is exactly what constructing it added.
  const long rss_empty_kb = current_rss_kb();
  Calibration calibration;
  const long calibration_kb = current_rss_kb() - rss_empty_kb;
  const long rss_before_kb = peak_rss_kb();
  const auto t0 = Clock::now();
  Deployment deployment(workload.options(seed));
  workload.schedule(deployment);
  const double setup_s = seconds_since(t0);

  // The same slice ends as trace_mode: phase by phase, clipped at each end.
  std::vector<double> slice_wall, slice_cpu, slice_calibration;
  SimTime t{};
  for (const Phase& phase : workload.phases) {
    while (t < phase.end) {
      t = std::min(t + workload.slice, phase.end);
      const double cpu0 = process_cpu_s();
      const auto w0 = Clock::now();
      deployment.run_until(t);
      slice_wall.push_back(seconds_since(w0));
      slice_cpu.push_back(process_cpu_s() - cpu0);
      slice_calibration.push_back(calibration.chunk());
    }
  }
  double wall_s = 0.0, cpu_s = 0.0;
  for (std::size_t i = 0; i < slice_wall.size(); ++i) {
    wall_s += slice_wall[i];
    cpu_s += slice_cpu[i];
  }
  json.uint("peak_rss_kb", static_cast<std::uint64_t>(peak_rss_kb()));
  json.uint("calibration_kb", static_cast<std::uint64_t>(calibration_kb));
  write_outcomes(json, deployment, workload);
  json.uint("rss_before_kb", static_cast<std::uint64_t>(rss_before_kb));
  json.num("setup_s", setup_s);
  json.num("wall_s", wall_s);
  json.num("cpu_s", cpu_s);
  num_array(json, "slice_wall_s", slice_wall);
  num_array(json, "slice_cpu_s", slice_cpu);
  num_array(json, "slice_calibration_s", slice_calibration);
  json.uint("calibration_checksum", calibration.checksum());
  std::printf("%s\n", json.finish().c_str());
  return 0;
}

int setup_mode(const Workload& workload, std::uint64_t seed) {
  JsonLine json;
  json.str("workload", workload.name);
  json.uint("seed", seed);
  json.str("mode", "setup");
  const auto t0 = Clock::now();
  Deployment deployment(workload.options(seed));
  workload.schedule(deployment);
  json.num("setup_s", seconds_since(t0));
  json.uint("offered", deployment.bots().size());
  std::printf("%s\n", json.finish().c_str());
  return 0;
}

int trace_mode(const Workload& workload, std::uint64_t seed) {
  JsonLine json;
  json.str("workload", workload.name);
  json.uint("seed", seed);
  json.str("mode", "trace");
  Spans spans;
  const std::size_t root = spans.open("bench", Spans::kRoot);
  const long rss_before_kb = peak_rss_kb();

  std::size_t span = spans.open("sim.deploy_build", root);
  Deployment deployment(workload.options(seed));
  spans.close(span);
  json.num("sim.deploy_build_s", spans.seconds(span));
  span = spans.open("sim.scenario_schedule", root);
  workload.schedule(deployment);
  spans.close(span);
  json.num("sim.scenario_schedule_s", spans.seconds(span));

  // Run in slices grouped by phase; sample queues and clients between them.
  Network& net = deployment.network();
  std::size_t max_recv_queue = 0;
  std::size_t peak_clients = 0;
  std::string phases = "[";
  const double cpu0 = process_cpu_s();
  const std::size_t run_span = spans.open("net.run", root);
  SimTime t{};
  for (std::size_t p = 0; p < workload.phases.size(); ++p) {
    const Phase& phase = workload.phases[p];
    const std::uint64_t events0 = net.engine_stats().events_processed;
    const std::size_t phase_span =
        spans.open(std::string("net.phase.") + phase.name, run_span);
    while (t < phase.end) {
      t = std::min(t + workload.slice, phase.end);
      const std::size_t slice = spans.open("net.run_until_slice", phase_span);
      deployment.run_until(t);
      spans.close(slice);
      const std::size_t sample = spans.open("game.sample", phase_span);
      for (const GameServer* server : deployment.game_servers()) {
        max_recv_queue =
            std::max(max_recv_queue, net.queue_length(server->node_id()));
      }
      peak_clients = std::max(peak_clients, deployment.total_clients());
      spans.close(sample);
    }
    spans.close(phase_span);
    const std::uint64_t events = net.engine_stats().events_processed - events0;
    if (p > 0) phases += ",";
    phases += std::string("{\"name\":\"") + phase.name +
              "\",\"wall_s\":" + std::to_string(spans.seconds(phase_span)) +
              ",\"events\":" + std::to_string(events) + "}";
  }
  spans.close(run_span);
  json.num("wall_s", spans.seconds(run_span));
  json.num("cpu_s", process_cpu_s() - cpu0);
  json.uint("peak_rss_kb", static_cast<std::uint64_t>(peak_rss_kb()));
  json.uint("rss_before_kb", static_cast<std::uint64_t>(rss_before_kb));
  json.raw("phases", phases + "]");
  json.uint("game.max_recv_queue", max_recv_queue);
  json.uint("sim.peak_clients", peak_clients);
  span = spans.open("sim.collect_outcomes", root);
  write_outcomes(json, deployment, workload);
  spans.close(span);

  span = spans.open("obs.collect_registry", root);
  const obs::Registry registry = obs::collect_registry(deployment);
  spans.close(span);
  json.num("obs.collect_registry_s", spans.seconds(span));
  json.num("registry.net.messages", registry.value("net.messages"));
  json.num("registry.engine.events_processed",
           registry.value("engine.events_processed"));

  // Replays sized from this run.
  const Network::EngineStats engine = net.engine_stats();
  span = spans.open("net.sched_replay", root);
  const std::size_t depth = std::max<std::size_t>(engine.event_peak_pending, 1);
  json.num("net.sched.ops_per_s", scheduler_ops_per_s(depth, 2'000'000));
  spans.close(span);

  MessageMix mix;
  for (const GameServer* server : deployment.game_servers()) {
    mix.actions += server->stats().actions;
    mix.updates += server->stats().updates_sent;
    mix.load_reports += server->stats().load_reports;
    mix.queue_updates += server->stats().queue_updates_sent;
  }
  for (const MatrixServer* server : deployment.matrix_servers()) {
    mix.tagged += server->stats().packets_from_game +
                  server->stats().packets_fanned_out;
  }
  span = spans.open("core.codec_replay", root);
  const std::vector<CodecCost> costs =
      replay_codecs(mix, deployment.options().spec.move_payload);
  spans.close(span);
  std::string codec = "[";
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const CodecCost& c = costs[i];
    if (i > 0) codec += ",";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"type\":\"%s\",\"iterations\":%" PRIu64
                  ",\"encode_ns\":%.6g,\"decode_ns\":%.6g,\"view_ns\":%.6g}",
                  c.type, c.iterations, c.encode_ns, c.decode_ns, c.view_ns);
    codec += buf;
  }
  json.raw("codec", codec + "]");

  spans.close(root);
  json.raw("spans", spans.json());
  std::printf("%s\n", json.finish().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_batch --workload <name> --seed <n> "
               "--mode run|trace|setup\n");
  return 2;
}

}  // namespace
}  // namespace matrix::perfbench

int main(int argc, char** argv) {
  using namespace matrix::perfbench;
  std::string name;
  std::string mode = "run";
  std::uint64_t seed = 2005;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--mode") {
      mode = value;
    } else {
      return usage();
    }
  }
  for (const Workload& workload : workloads()) {
    if (name != workload.name) continue;
    if (mode == "run") return run_mode(workload, seed);
    if (mode == "setup") return setup_mode(workload, seed);
    if (mode == "trace") return trace_mode(workload, seed);
    return usage();
  }
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  return usage();
}
