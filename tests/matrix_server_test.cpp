// Tests for the MatrixServer state machine: routing, range verification,
// split/reclaim lifecycle, hysteresis, pool interaction, non-proximal
// lookups — all driven through fake game servers (test_helpers.h).
#include <gtest/gtest.h>

#include "test_helpers.h"

namespace matrix {
namespace {

using namespace time_literals;

Config fast_config() {
  Config config;
  config.world = Rect(0, 0, 1000, 1000);
  config.visibility_radius = 50.0;
  config.overload_clients = 300;
  config.underload_clients = 150;
  config.sustain_reports_to_split = 2;
  config.topology_cooldown = 500_ms;
  config.load_report_interval = 100_ms;
  config.peer_load_interval = 100_ms;
  return config;
}

class MatrixServerTest : public ::testing::Test {
 protected:
  MatrixServerTest() : harness_(4, fast_config()) {}

  MatrixServer& server(std::size_t i) { return *harness_.matrix_servers[i]; }
  CaptureNode& game(std::size_t i) { return *harness_.games[i]; }

  /// Activates server 0 over the whole world; parks the rest.
  void boot_single_root() {
    for (std::size_t i = 1; i < harness_.matrix_servers.size(); ++i) {
      harness_.park(i);
    }
    server(0).activate_root(Rect(0, 0, 1000, 1000), {50.0});
    harness_.run_for(50_ms);
  }

  /// Drives server `index` to overload until a split completes (grant +
  /// adopt + shed handshake).
  void force_split(std::size_t parent, std::size_t expected_child) {
    harness_.report_load(parent, 400);
    harness_.run_for(10_ms);
    harness_.report_load(parent, 400);
    harness_.run_for(50_ms);  // grant + adopt + MapRange round trips
    harness_.ack_shed(parent);
    harness_.run_for(50_ms);
    ASSERT_TRUE(server(expected_child).active());
  }

  ControlHarness harness_;
};

// ---------------------------------------------------------------------------
// Activation and registration
// ---------------------------------------------------------------------------

TEST_F(MatrixServerTest, RootActivationRegistersAndInformsGame) {
  boot_single_root();
  EXPECT_TRUE(server(0).active());
  EXPECT_EQ(server(0).range(), Rect(0, 0, 1000, 1000));
  EXPECT_EQ(harness_.coordinator.partition_map().size(), 1u);
  const MapRange* range = game(0).last<MapRange>();
  ASSERT_NE(range, nullptr);
  EXPECT_EQ(range->new_range, Rect(0, 0, 1000, 1000));
  EXPECT_TRUE(range->shed_range.empty());
}

TEST_F(MatrixServerTest, InactiveServerIgnoresTraffic) {
  // Server 1 was never activated: packets to it go nowhere.
  boot_single_root();
  TaggedPacket packet;
  packet.origin = {10, 10};
  packet.peer_forwarded = true;
  game(1).inject(server(1).node_id(), packet);
  harness_.run_for(20_ms);
  EXPECT_EQ(server(1).stats().peer_packets_received, 0u);
}

// ---------------------------------------------------------------------------
// Split lifecycle (paper §3.2.3)
// ---------------------------------------------------------------------------

TEST_F(MatrixServerTest, SustainedOverloadTriggersSplit) {
  boot_single_root();
  force_split(0, 1);

  // Split-to-left: child gets the left half.
  EXPECT_EQ(server(1).range(), Rect(0, 0, 500, 1000));
  EXPECT_EQ(server(0).range(), Rect(500, 0, 1000, 1000));
  EXPECT_EQ(server(0).child_count(), 1u);
  EXPECT_EQ(server(1).parent(), ServerId(1));
  EXPECT_EQ(server(0).stats().splits_completed, 1u);
  EXPECT_EQ(harness_.pool.grants(), 1u);

  // MC saw both ranges; map still tiles the world.
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));

  // Parent's game server was ordered to shed the left half to the child.
  bool shed_seen = false;
  for (const auto& msg : game(0).messages) {
    if (const auto* range = std::get_if<MapRange>(&msg)) {
      if (!range->shed_range.empty()) {
        EXPECT_EQ(range->shed_range, Rect(0, 0, 500, 1000));
        EXPECT_EQ(range->shed_to_game, game(1).node_id());
        shed_seen = true;
      }
    }
  }
  EXPECT_TRUE(shed_seen);
}

TEST_F(MatrixServerTest, SingleOverloadReportIsNotEnough) {
  boot_single_root();
  harness_.report_load(0, 400);
  harness_.run_for(100_ms);
  EXPECT_EQ(server(0).stats().splits_initiated, 0u);
  // A normal report resets the sustain counter.
  harness_.report_load(0, 100);
  harness_.report_load(0, 400);
  harness_.run_for(100_ms);
  EXPECT_EQ(server(0).stats().splits_initiated, 0u);
}

TEST_F(MatrixServerTest, CooldownBlocksBackToBackSplits) {
  boot_single_root();
  force_split(0, 1);
  const auto splits = server(0).stats().splits_initiated;
  // Immediately overloaded again — but inside the cooldown window.
  harness_.report_load(0, 400);
  harness_.report_load(0, 400);
  harness_.run_for(10_ms);
  EXPECT_EQ(server(0).stats().splits_initiated, splits);
  // After the cooldown, the same load splits again.
  harness_.run_for(600_ms);
  harness_.report_load(0, 400);
  harness_.run_for(10_ms);
  harness_.report_load(0, 400);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().splits_initiated, splits + 1);
}

TEST_F(MatrixServerTest, PoolDenialBacksOff) {
  // No servers parked: pool denies, server records it and does not wedge.
  server(0).activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness_.run_for(50_ms);
  harness_.report_load(0, 400);
  harness_.report_load(0, 400);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().split_denied_no_server, 1u);
  EXPECT_EQ(server(0).child_count(), 0u);
  EXPECT_EQ(harness_.pool.denies(), 1u);
  EXPECT_TRUE(server(0).active());
}

TEST_F(MatrixServerTest, RecursiveSplitsBuildATree) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);  // cooldown
  force_split(0, 2);
  // Server 0 kept splitting.  Its post-first-split half [500,1000)×[0,1000)
  // is taller than wide, so the second cut is horizontal: the bottom piece
  // goes to the new child.
  EXPECT_EQ(server(0).range(), Rect(500, 500, 1000, 1000));
  EXPECT_EQ(server(2).range(), Rect(500, 0, 1000, 500));
  EXPECT_EQ(server(0).child_count(), 2u);
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));
}

TEST_F(MatrixServerTest, MinExtentRefusesToSplit) {
  // World 1000×1000 with min extent 400: the longer dimension halves to
  // 500 (≥400, allowed) twice, but a 500×500 partition would halve to 250
  // (<400) — the third split must be refused.
  Config config = fast_config();
  config.min_partition_extent = 400.0;
  ControlHarness harness(3, config);
  harness.park(1);
  harness.park(2);
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);

  for (int split = 0; split < 2; ++split) {
    harness.report_load(0, 400);
    harness.report_load(0, 400);
    harness.run_for(50_ms);
    harness.ack_shed(0);
    harness.run_for(600_ms);
  }
  EXPECT_EQ(harness.matrix_servers[0]->stats().splits_completed, 2u);
  EXPECT_EQ(harness.matrix_servers[0]->range(), Rect(500, 500, 1000, 1000));

  harness.report_load(0, 400);
  harness.report_load(0, 400);
  harness.run_for(50_ms);
  EXPECT_EQ(harness.matrix_servers[0]->stats().splits_initiated, 2u);
}

TEST_F(MatrixServerTest, SplitDisabledInStaticMode) {
  Config config = fast_config();
  config.allow_split = false;
  ControlHarness harness(2, config);
  harness.park(1);
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);
  harness.report_load(0, 2000);
  harness.report_load(0, 2000);
  harness.report_load(0, 2000);
  harness.run_for(100_ms);
  EXPECT_EQ(harness.matrix_servers[0]->stats().splits_initiated, 0u);
}

TEST_F(MatrixServerTest, QueueTriggerAlsoSplits) {
  Config config = fast_config();
  config.overload_queue_length = 50;
  ControlHarness harness(2, config);
  harness.park(1);
  harness.matrix_servers[0]->activate_root(Rect(0, 0, 1000, 1000), {50.0});
  harness.run_for(50_ms);
  // Low client count but a huge reported queue ("system performance
  // measurements", §3.2.3).
  harness.report_load(0, 10, 80);
  harness.report_load(0, 10, 80);
  harness.run_for(50_ms);
  EXPECT_EQ(harness.matrix_servers[0]->stats().splits_initiated, 1u);
}

// ---------------------------------------------------------------------------
// Reclamation (paper §3.2.3)
// ---------------------------------------------------------------------------

TEST_F(MatrixServerTest, UnderloadReclaimsChild) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);  // cooldown

  // Child heartbeats low load; parent reports underload.
  harness_.report_load(1, 40);  // child's game reports...
  harness_.run_for(200_ms);     // ...heartbeat relays to parent
  harness_.report_load(0, 60);
  harness_.run_for(50_ms);
  // Child was told to reclaim; its game sheds everything.
  harness_.ack_shed(1);
  harness_.run_for(100_ms);

  EXPECT_EQ(server(0).stats().reclaims_completed, 1u);
  EXPECT_EQ(server(0).range(), Rect(0, 0, 1000, 1000));
  EXPECT_EQ(server(0).child_count(), 0u);
  EXPECT_FALSE(server(1).active());
  EXPECT_EQ(harness_.pool.releases(), 1u);
  EXPECT_EQ(harness_.coordinator.partition_map().size(), 1u);
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));
}

TEST_F(MatrixServerTest, ReclaimRequiresUnderloadedChild) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);
  harness_.report_load(1, 250);  // child busy (>= underload threshold)
  harness_.run_for(200_ms);
  harness_.report_load(0, 60);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().reclaims_initiated, 0u);
}

TEST_F(MatrixServerTest, ReclaimRequiresCombinedHeadroom) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);
  // Child underloaded (149) but parent at 149 too: 298 > 0.8 × 300 = 240.
  harness_.report_load(1, 149);
  harness_.run_for(200_ms);
  harness_.report_load(0, 149);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().reclaims_initiated, 0u);
}

TEST_F(MatrixServerTest, ReclaimedServerCanBeReused) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);
  harness_.report_load(1, 10);
  harness_.run_for(200_ms);
  harness_.report_load(0, 10);
  harness_.run_for(50_ms);
  harness_.ack_shed(1);
  harness_.run_for(600_ms);

  // Overload again: the pool should hand server 1 (or another spare) back.
  const auto grants_before = harness_.pool.grants();
  harness_.report_load(0, 400);
  harness_.report_load(0, 400);
  harness_.run_for(50_ms);
  harness_.ack_shed(0);
  harness_.run_for(50_ms);
  EXPECT_EQ(harness_.pool.grants(), grants_before + 1);
  EXPECT_EQ(server(0).child_count(), 1u);
}

TEST_F(MatrixServerTest, LifoReclaimMergesExactly) {
  boot_single_root();
  force_split(0, 1);  // S1 gets left half [0,500)
  harness_.run_for(600_ms);
  force_split(0, 2);  // S2 gets [500,750)
  harness_.run_for(600_ms);

  // Both children idle, parent idle: reclaims must go S2 then S1.
  harness_.report_load(1, 10);
  harness_.report_load(2, 10);
  harness_.run_for(200_ms);
  harness_.report_load(0, 10);
  harness_.run_for(50_ms);
  harness_.ack_shed(2);  // most recent child first
  harness_.run_for(600_ms);
  EXPECT_EQ(server(0).range(), Rect(500, 0, 1000, 1000));

  harness_.report_load(1, 10);
  harness_.run_for(200_ms);
  harness_.report_load(0, 10);
  harness_.run_for(50_ms);
  harness_.ack_shed(1);
  harness_.run_for(100_ms);
  EXPECT_EQ(server(0).range(), Rect(0, 0, 1000, 1000));
  EXPECT_EQ(server(0).stats().reclaims_completed, 2u);
}

TEST_F(MatrixServerTest, ChildDeclinesReclaimWhileSplitting) {
  // The race the churn tests exposed: parent asks to reclaim a child whose
  // own split is in flight.  The child must decline (shedding mid-split
  // would hand back a non-complementary rectangle), and the parent must
  // clear its pending state and stay functional.
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);

  // Drive the CHILD into a split of its own, but do not ack its shed yet —
  // the child is now split_pending_.
  harness_.report_load(1, 400);
  harness_.run_for(10_ms);
  harness_.report_load(1, 400);
  harness_.run_for(50_ms);
  ASSERT_TRUE(server(2).active());  // child's child adopted

  // Parent now decides to reclaim the (apparently idle) child.
  harness_.report_load(1, 10);  // stale low heartbeat value
  harness_.run_for(200_ms);
  harness_.report_load(0, 10);
  harness_.run_for(100_ms);

  // The reclaim was declined, not executed: child still active with its
  // (halved) range, parent not stuck pending (can split again later).
  EXPECT_TRUE(server(1).active());
  EXPECT_EQ(server(0).stats().reclaims_completed, 0u);
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));

  // Finish the child's split; the system reaches a clean 3-server state.
  harness_.ack_shed(1);
  harness_.run_for(200_ms);
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));
}

TEST_F(MatrixServerTest, StaleReclaimTokenIsDeclined) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);
  // Forge a reclaim request with a bogus token directly to the child.
  game(0).inject(server(1).node_id(), ReclaimRequest{9999});
  harness_.run_for(100_ms);
  EXPECT_TRUE(server(1).active());  // not reclaimed
  EXPECT_EQ(server(1).range(), Rect(0, 0, 500, 1000));
}

TEST_F(MatrixServerTest, McAnnounceSwitchesCoordinator) {
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(100_ms);

  // Stand up a second coordinator and announce it.
  Coordinator standby(fast_config());
  const NodeId standby_node = harness_.network.attach(&standby);
  for (auto& server : harness_.matrix_servers) {
    McAnnounce announce;
    announce.mc_node = standby_node;
    announce.generation = 2;
    harness_.network.send(standby_node, server->node_id(),
                          encode_message(Message{announce}));
  }
  harness_.run_for(100_ms);

  // The standby rebuilt the two-server map from re-registrations.
  EXPECT_EQ(standby.partition_map().size(), 2u);
  EXPECT_TRUE(standby.partition_map().tiles(Rect(0, 0, 1000, 1000)));

  // A stale (lower-generation) announce is ignored afterwards.
  Coordinator impostor(fast_config());
  const NodeId impostor_node = harness_.network.attach(&impostor);
  McAnnounce stale;
  stale.mc_node = impostor_node;
  stale.generation = 1;
  harness_.network.send(impostor_node, server(0).node_id(),
                        encode_message(Message{stale}));
  harness_.run_for(100_ms);
  EXPECT_EQ(impostor.partition_map().size(), 0u);
}

TEST_F(MatrixServerTest, GrantArrivingDuringReclaimIsReturned) {
  // A pool grant that lands after the server started being reclaimed must
  // be released, not used for a split.
  boot_single_root();
  force_split(0, 1);
  harness_.run_for(600_ms);

  // Child requests a split (grant will be in flight)...
  harness_.report_load(1, 400);
  harness_.report_load(1, 400);
  // ...and in the same instant the parent reclaims it.  The reclaim
  // request races the pool grant.
  harness_.report_load(1, 10);
  harness_.run_for(5_ms);
  const auto releases_before = harness_.pool.releases();
  harness_.run_for(500_ms);
  // Either ordering is legal; the invariant is no leaked grant: every
  // grant is adopted (active child) or released back.
  std::size_t active = 0;
  for (const auto& server : harness_.matrix_servers) {
    if (server->active()) ++active;
  }
  EXPECT_EQ(active + harness_.pool.idle_count(),
            harness_.matrix_servers.size());
  (void)releases_before;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

class RoutingTest : public MatrixServerTest {
 protected:
  void SetUp() override {
    boot_single_root();
    force_split(0, 1);
    harness_.run_for(100_ms);  // let the new overlap tables land
  }

  TaggedPacket packet_at(Vec2 origin) {
    TaggedPacket packet;
    packet.client = ClientId(7);
    packet.entity = EntityId(7);
    packet.origin = origin;
    packet.payload.assign(24, 0);
    return packet;
  }
};

TEST_F(RoutingTest, InteriorPacketNotForwarded) {
  // Deep inside server 0's half: empty consistency set.
  game(0).inject(server(0).node_id(), packet_at({900, 500}));
  harness_.run_for(20_ms);
  EXPECT_EQ(server(0).stats().packets_from_game, 1u);
  EXPECT_EQ(server(0).stats().packets_fanned_out, 0u);
  EXPECT_EQ(server(1).stats().peer_packets_received, 0u);
}

TEST_F(RoutingTest, BoundaryPacketForwardedAndDelivered) {
  // Server 0 owns [500,1000); origin at 510 is within R=50 of server 1.
  game(0).inject(server(0).node_id(), packet_at({510, 500}));
  harness_.run_for(20_ms);
  EXPECT_EQ(server(0).stats().packets_fanned_out, 1u);
  EXPECT_EQ(server(1).stats().peer_packets_received, 1u);
  EXPECT_EQ(server(1).stats().peer_packets_delivered, 1u);
  // The peer's game server received the range-verified packet.
  const TaggedPacket* delivered = game(1).last<TaggedPacket>();
  ASSERT_NE(delivered, nullptr);
  EXPECT_TRUE(delivered->peer_forwarded);
  EXPECT_EQ(delivered->origin, (Vec2{510, 500}));
}

TEST_F(RoutingTest, PeerRejectsIrrelevantPacket) {
  // Forge a peer-forwarded packet whose origin is nowhere near server 1.
  TaggedPacket forged = packet_at({990, 990});
  forged.peer_forwarded = true;
  game(0).inject(server(1).node_id(), forged);
  harness_.run_for(20_ms);
  EXPECT_EQ(server(1).stats().peer_packets_received, 1u);
  EXPECT_EQ(server(1).stats().peer_packets_rejected, 1u);
  EXPECT_EQ(server(1).stats().peer_packets_delivered, 0u);
}

TEST_F(RoutingTest, LookupAgreesWithConsistencyScan) {
  // The O(1) table and the O(N) scan must agree across the partition.
  const auto& map = harness_.coordinator.partition_map();
  Rng rng(5);
  for (int probe = 0; probe < 300; ++probe) {
    const Vec2 p{rng.next_double_in(500.0, 999.9),
                 rng.next_double_in(0.0, 999.9)};
    const auto truth = consistency_set_scan(map, p, 50.0, Metric::kChebyshev);
    const OverlapRegionWire* region = server(0).lookup(p);
    const std::size_t table_size =
        region != nullptr ? region->peers.size() : 0;
    EXPECT_EQ(table_size, truth.size()) << "at " << p;
  }
}

TEST_F(RoutingTest, NonProximalTargetUsesCoordinator) {
  // Origin interior to server 0, target deep in server 1's half.
  TaggedPacket packet = packet_at({900, 500});
  packet.target = Vec2{100, 500};
  const auto lookups_before = harness_.coordinator.lookups_served();
  game(0).inject(server(0).node_id(), packet);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().nonproximal_lookups, 1u);
  EXPECT_EQ(harness_.coordinator.lookups_served(), lookups_before + 1);
  // Packet reached server 1's game server via the MC-resolved forward.
  const TaggedPacket* delivered = game(1).last<TaggedPacket>();
  ASSERT_NE(delivered, nullptr);
  ASSERT_TRUE(delivered->target.has_value());
  EXPECT_EQ(*delivered->target, (Vec2{100, 500}));
}

TEST_F(RoutingTest, ProximalTargetDoesNotLookup) {
  // Target within R of origin: the origin fan-out already covers it.
  TaggedPacket packet = packet_at({510, 500});
  packet.target = Vec2{505, 495};
  game(0).inject(server(0).node_id(), packet);
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().nonproximal_lookups, 0u);
}

TEST_F(RoutingTest, OriginOutsideRangeForwardedToOwner) {
  // A stray: server 0's game tags a packet at a point server 1 now owns
  // (client mid-handoff).  It must end up at server 1's game server.
  game(0).inject(server(0).node_id(), packet_at({100, 100}));
  harness_.run_for(50_ms);
  EXPECT_EQ(server(0).stats().origin_outside_range, 1u);
  const TaggedPacket* delivered = game(1).last<TaggedPacket>();
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(delivered->origin, (Vec2{100, 100}));
}

TEST_F(RoutingTest, OwnerQueryAnsweredViaMc) {
  OwnerQuery query;
  query.point = {100, 100};
  query.client = ClientId(3);
  query.seq = 11;
  game(0).inject(server(0).node_id(), query);
  harness_.run_for(50_ms);
  const OwnerReply* reply = game(0).last<OwnerReply>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->seq, 11u);
  EXPECT_TRUE(reply->found);
  EXPECT_EQ(reply->game_node, game(1).node_id());
}

}  // namespace
}  // namespace matrix
