// Engine hot-path throughput: events/sec and messages/sec on macro workloads.
//
// The simulation engine is the instrument every other bench measures with —
// its constant factors bound the scenarios the reproduction can afford.  The
// hot-path overhaul (allocation-free event scheduling, pooled message
// buffers, dense-id routing) is judged here on two macro workloads:
//
//   fig2_macro : the paper's Fig. 2 hotspot timeline (300 s, ~700 peak
//                clients, ~9.4M messages) — the message-heavy macro workload
//                every figure regenerates from.  The pre-overhaul engine ran
//                this at ~0.50M events/s; the acceptance bar is ≥3×.
//   mega_surge : MegaSurgeScenario — ≥10k concurrent clients across a 36-root
//                grid, the scale the old engine could not reach in a usable
//                wall-time budget.
//   giga_shards_K : GigaSurgeScenario (≥100k offered clients, 64 roots) on
//                the sharded conservative engine at K ∈ {1, 2, 4} — the
//                shard-scaling curve.  K=1 is the serial engine; speedup at
//                K>1 requires free cores (a single-core runner reports the
//                synchronization overhead honestly instead).
//
// Alongside throughput it reports the engine counters (events processed,
// peak event-heap depth, payload-buffer reuse rate) so a perf regression can
// be localized from the JSON artifact alone.  CI gates on events/sec via
// scripts/check_bench_regression.py against bench/baselines/engine_baseline.json.
#include <algorithm>
#include <chrono>

#include "bench_common.h"
#include "net/event_queue.h"
#include "util/rng.h"

namespace matrix::bench {
namespace {

using namespace time_literals;

// ---- scheduler microbench ---------------------------------------------------
// Steady-state schedule+pop churn on a raw EventQueue at a fixed pending
// depth — the classic calendar-queue "hold model" — at every depth the macro
// workloads visit (fig2 idles near 1k pending; giga peaks past 100k).
double scheduler_churn_ops_per_sec(std::size_t depth, std::uint64_t ops) {
  EventQueue queue;
  Rng rng(0xB16B00B5ULL + depth);
  // Uniform horizons out to 10 sim-seconds: events land across the whole
  // ring, forcing bucket folds and periodic reseeds rather than a hot front.
  for (std::size_t i = 0; i < depth; ++i) {
    queue.schedule_at(SimTime::from_us(rng.next_in(0, 10'000'000)), [] {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    queue.step();
    queue.schedule_at(queue.now() + SimTime::from_us(rng.next_in(0, 10'000'000)),
                      [] {});
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  // One pop + one push per iteration.
  return 2.0 * static_cast<double>(ops) / wall;
}

void run_scheduler_microbench(JsonReport& json) {
  std::printf("\n[scheduler churn: pop+push ops/sec by pending depth]\n");
  std::printf("  %-12s %14s\n", "depth", "ops/sec");
  for (const std::size_t depth :
       {std::size_t{1'000}, std::size_t{100'000}, std::size_t{1'000'000}}) {
    const double ops_per_sec = scheduler_churn_ops_per_sec(depth, 1'000'000);
    std::printf("  %-12zu %14.0f\n", depth, ops_per_sec);
    char run[32];
    std::snprintf(run, sizeof run, "sched_depth_%zuk", depth / 1'000);
    json.add(run, "ops_per_sec", ops_per_sec, "ops/s");
  }
}

/// The giga crowd with every hotspot confined to the TOP HALF of the world.
/// The deployment's shard plan hands each shard a contiguous slab of the
/// row-major root grid — i.e. a horizontal band of the world — so a top-half
/// crowd loads the first bands' shards while the bottom bands see only
/// background bots.  This is the workload the static grid-locality plan
/// cannot fix — the rebalancer's A/B demonstration runs on it.
void schedule_skewed_giga_scenario(Deployment& deployment,
                                   const GigaSurgeScenarioOptions& options) {
  Scenario scenario(deployment);
  scenario.add_background_bots(SimTime::from_ms(100), options.background_bots);
  const Rect& world = deployment.options().config.world;
  const double cell_w =
      (world.x1() - world.x0()) / static_cast<double>(options.hotspots_x);
  const double cell_h = (world.y1() - world.y0()) / 2.0 /
                        static_cast<double>(options.hotspots_y);
  for (std::size_t ix = 0; ix < options.hotspots_x; ++ix) {
    for (std::size_t iy = 0; iy < options.hotspots_y; ++iy) {
      const Vec2 center{world.x0() + (static_cast<double>(ix) + 0.5) * cell_w,
                        world.y0() + (static_cast<double>(iy) + 0.5) * cell_h};
      SimTime t = options.flash_at;
      for (std::size_t joined = 0; joined < options.bots_per_hotspot;) {
        const std::size_t batch =
            std::min(options.join_batch > 0 ? options.join_batch
                                            : options.bots_per_hotspot,
                     options.bots_per_hotspot - joined);
        scenario.add_hotspot_bots(t, batch, center, options.spread);
        joined += batch;
        t += options.join_interval;
      }
    }
  }
}

/// Busiest-shard events over the per-shard mean — 1.0 is a perfectly level
/// engine; the gap above 1.0 is wall-time the busiest core spends while the
/// others wait at the barrier.
double balance_ratio(const Network::EngineStats& engine) {
  if (engine.shard_events.size() < 2) return 1.0;
  std::uint64_t busiest = 0;
  std::uint64_t total = 0;
  for (const std::uint64_t events : engine.shard_events) {
    busiest = std::max(busiest, events);
    total += events;
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(engine.shard_events.size());
  return mean > 0.0 ? static_cast<double>(busiest) / mean : 1.0;
}

DeploymentOptions fig2_options() {
  DeploymentOptions options = paper_options();
  options.seed = 2005;
  return options;
}

DeploymentOptions mega_options() {
  // Shared with tests/mega_surge_test.cpp — see mega_surge_deployment_options.
  return mega_surge_deployment_options();
}

struct RunResult {
  double wall_sec = 0.0;
  double sim_sec = 0.0;
  std::uint64_t messages = 0;
  std::size_t peak_clients = 0;
  Network::EngineStats engine;
};

template <typename Schedule>
RunResult run_workload(DeploymentOptions options, SimTime duration,
                       Schedule&& schedule) {
  Deployment deployment(std::move(options));
  schedule(deployment);
  const auto t0 = std::chrono::steady_clock::now();
  deployment.run_until(duration);
  const auto t1 = std::chrono::steady_clock::now();
  RunResult result;
  result.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  result.sim_sec = duration.sec();
  result.messages = deployment.network().total_messages();
  result.peak_clients = deployment.total_clients();
  result.engine = deployment.network().engine_stats();
  return result;
}

void report(JsonReport& json, const char* run, const RunResult& r) {
  const double events_per_sec =
      static_cast<double>(r.engine.events_processed) / r.wall_sec;
  const double messages_per_sec =
      static_cast<double>(r.messages) / r.wall_sec;
  const double reuse = r.engine.buffers_acquired > 0
                           ? static_cast<double>(r.engine.buffers_reused) /
                                 static_cast<double>(r.engine.buffers_acquired)
                           : 0.0;
  std::printf("\n[%s]\n", run);
  std::printf("  %-26s %12.3f\n", "wall seconds", r.wall_sec);
  std::printf("  %-26s %12.1f\n", "sim seconds", r.sim_sec);
  std::printf("  %-26s %12llu\n", "events processed",
              static_cast<unsigned long long>(r.engine.events_processed));
  std::printf("  %-26s %12llu\n", "messages",
              static_cast<unsigned long long>(r.messages));
  std::printf("  %-26s %12.0f\n", "events/sec", events_per_sec);
  std::printf("  %-26s %12.0f\n", "messages/sec", messages_per_sec);
  std::printf("  %-26s %12zu\n", "peak event-heap depth",
              r.engine.event_peak_pending);
  std::printf("  %-26s %11.1f%%\n", "payload-buffer reuse",
              100.0 * reuse);
  std::printf("  %-26s %12zu\n", "final clients", r.peak_clients);

  json.add(run, "events_per_sec", events_per_sec, "events/s");
  json.add(run, "messages_per_sec", messages_per_sec, "msgs/s");
  json.add(run, "events_processed",
           static_cast<double>(r.engine.events_processed), "events");
  json.add(run, "messages", static_cast<double>(r.messages), "msgs");
  json.add(run, "peak_event_heap", static_cast<double>(r.engine.event_peak_pending),
           "events");
  json.add(run, "buffer_reuse_fraction", reuse, "");
  json.add(run, "wall_seconds", r.wall_sec, "s");
}

}  // namespace
}  // namespace matrix::bench

int main(int argc, char** argv) {
  using namespace matrix;
  using namespace matrix::bench;
  using namespace matrix::time_literals;

  header("bench_engine_throughput",
         "engine hot-path throughput on macro workloads");
  JsonReport json("engine_throughput");

  run_scheduler_microbench(json);

  {
    HotspotScenarioOptions scenario;  // the paper's Fig. 2 timeline
    auto r = run_workload(fig2_options(), scenario.duration,
                          [&](Deployment& d) {
                            schedule_hotspot_scenario(d, scenario);
                          });
    report(json, "fig2_macro", r);
  }
  {
    MegaSurgeScenarioOptions scenario;  // ≥10k concurrent clients
    auto r = run_workload(mega_options(), scenario.duration,
                          [&](Deployment& d) {
                            schedule_mega_surge_scenario(d, scenario);
                          });
    report(json, "mega_surge", r);
    std::printf("  offered clients            %12zu (>= 10k scale)\n",
                mega_surge_offered_clients(scenario));
  }
  {
    // Shard-scaling curve on the 100k-client workload (trimmed to a 3 s sim
    // so three engine configurations fit one bench run).  Wall-clock speedup
    // needs as many free cores as shards; the per-shard hash chains pin the
    // K>1 runs as deterministic regardless (tests/shard_engine_test.cpp).
    GigaSurgeScenarioOptions scenario;
    scenario.duration = 3_sec;
    std::printf("\n[giga shard scaling: %zu offered clients]\n",
                giga_surge_offered_clients(scenario));
    double base_events_per_sec = 0.0;
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                     std::size_t{4}}) {
      auto r = run_workload(giga_surge_deployment_options(shards),
                            scenario.duration, [&](Deployment& d) {
                              schedule_giga_surge_scenario(d, scenario);
                            });
      char run[32];
      std::snprintf(run, sizeof run, "giga_shards_%zu", shards);
      report(json, run, r);
      const double events_per_sec =
          static_cast<double>(r.engine.events_processed) / r.wall_sec;
      if (shards == 1) {
        base_events_per_sec = events_per_sec;
      } else if (base_events_per_sec > 0.0) {
        const double speedup = events_per_sec / base_events_per_sec;
        std::printf("  %-26s %12.2fx vs serial\n", "shard speedup", speedup);
        json.add(run, "speedup_vs_serial", speedup, "x");
      }
      std::printf("  %-26s %12llu\n", "cross-shard messages",
                  static_cast<unsigned long long>(
                      r.engine.cross_shard_messages));
      std::printf("  %-26s %12llu\n", "barrier windows",
                  static_cast<unsigned long long>(r.engine.windows));
      json.add(run, "cross_shard_messages",
               static_cast<double>(r.engine.cross_shard_messages), "msgs");
      json.add(run, "windows", static_cast<double>(r.engine.windows),
               "windows");
      if (shards > 1) {
        const double balance = balance_ratio(r.engine);
        std::printf("  %-26s %12.3fx busiest/mean\n", "shard balance",
                    balance);
        json.add(run, "balance_ratio", balance, "x");
      }
    }
    // Rebalancer A/B on the SKEWED giga crowd (all hotspots in the top
    // half of the world — the imbalance the static grid plan cannot fix;
    // the uniform curve above already sits near 1.0 busiest/mean).  The
    // rebalance-on run's busiest/mean ratio must sit below the off run's —
    // that gap is wall-time the busiest core spends grinding while the
    // other workers wait at the barrier.
    for (const bool rebalance : {false, true}) {
      DeploymentOptions options = giga_surge_deployment_options(4);
      if (rebalance) {
        options.config.engine.rebalance_threshold = 1.10;
        options.config.engine.rebalance_interval_events = 200'000;
      }
      auto r = run_workload(std::move(options), scenario.duration,
                            [&](Deployment& d) {
                              schedule_skewed_giga_scenario(d, scenario);
                            });
      const char* run = rebalance ? "giga_skew_4_rebalance" : "giga_skew_4";
      report(json, run, r);
      const double balance = balance_ratio(r.engine);
      std::printf("  %-26s %12.3fx busiest/mean\n", "shard balance", balance);
      json.add(run, "balance_ratio", balance, "x");
      if (rebalance) {
        std::printf("  %-26s %12llu\n", "rebalances",
                    static_cast<unsigned long long>(r.engine.rebalances));
        json.add(run, "rebalances",
                 static_cast<double>(r.engine.rebalances), "moves");
      }
    }
  }

  return json.write(json_report_path(argc, argv)) ? 0 : 1;
}
