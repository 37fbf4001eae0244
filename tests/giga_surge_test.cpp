// GigaSurgeScenario at 100k-client scale — the SHARDED engine's scale proof.
//
// The serial engine's ceiling was the 10k crowd of tests/mega_surge_test.cpp;
// the conservative parallel engine (net/network.h) exists to carry an order
// of magnitude more.  This test drives a >100,000-client offered population
// through a 64-root deployment partitioned over 4 shards and checks the
// deployment absorbed the crowd, traffic crossed shard boundaries, and the
// barrier loop actually ran windows (i.e. the parallel path was exercised,
// not a degenerate serial fallback).
#include <gtest/gtest.h>

#include "sim/deployment.h"
#include "sim/scenario.h"

namespace matrix {
namespace {

TEST(GigaSurgeTest, HundredThousandClientsAcrossFourShards) {
  GigaSurgeScenarioOptions scenario;
  ASSERT_GE(giga_surge_offered_clients(scenario), 100'000u);

  Deployment deployment(giga_surge_deployment_options(/*shards=*/4));
  ASSERT_EQ(deployment.network().shard_count(), 4u);
  schedule_giga_surge_scenario(deployment, scenario);
  deployment.run_until(scenario.duration);

  // The crowd is connected and playing, spread across the whole grid.
  EXPECT_GE(deployment.total_clients(), 95'000u);
  std::size_t servers_with_clients = 0;
  for (const GameServer* server : deployment.game_servers()) {
    if (server->client_count() > 0) ++servers_with_clients;
  }
  EXPECT_GE(servers_with_clients, 56u);

  // Sustained deployment-wide traffic, not a stalled run.
  const Network& net = deployment.network();
  EXPECT_GT(net.total_messages(), 2'000'000u);

  const Network::EngineStats engine = net.engine_stats();
  EXPECT_GT(engine.events_processed, 4'000'000u);
  // event_peak_pending is the busiest SHARD's queue depth, not the total:
  // every bot keeps an action timer, but the crowd's timers are split over
  // four queues.  Measured peak: 55,796 on the busiest shard; the bound
  // below asserts at least 25k.
  EXPECT_GE(engine.event_peak_pending, 25'000u);
  // The parallel machinery engaged: windows barriered, mail crossed shards.
  EXPECT_GT(engine.windows, 1'000u);
  EXPECT_GT(engine.cross_shard_messages, 0u);
}

}  // namespace
}  // namespace matrix
