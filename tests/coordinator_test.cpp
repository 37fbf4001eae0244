// Tests for the Matrix Coordinator: registration, overlap-table pushes,
// versioning, unregistration, point lookups, multi-radius support.
#include <gtest/gtest.h>

#include "test_helpers.h"

namespace matrix {
namespace {

using namespace time_literals;

Config test_config() {
  Config config;
  config.world = Rect(0, 0, 1000, 1000);
  config.visibility_radius = 50.0;
  return config;
}

class CoordinatorTest : public ::testing::Test {
 protected:
  CoordinatorTest() : harness_(3, test_config()) {}

  void register_server(std::size_t index, const Rect& range,
                       std::vector<double> radii = {50.0}) {
    ServerRegister reg;
    reg.server = ServerId(index + 1);
    reg.matrix_node = harness_.matrix_servers[index]->node_id();
    reg.game_node = harness_.games[index]->node_id();
    reg.range = range;
    reg.radii = std::move(radii);
    harness_.games[index]->inject(harness_.mc_node, reg);
    harness_.run_for(50_ms);
  }

  ControlHarness harness_;
};

TEST_F(CoordinatorTest, RegistrationPopulatesMap) {
  register_server(0, Rect(0, 0, 500, 1000));
  register_server(1, Rect(500, 0, 1000, 1000));
  EXPECT_EQ(harness_.coordinator.partition_map().size(), 2u);
  EXPECT_TRUE(harness_.coordinator.partition_map().tiles(
      Rect(0, 0, 1000, 1000)));
}

TEST_F(CoordinatorTest, ReRegistrationIsUpsert) {
  register_server(0, Rect(0, 0, 1000, 1000));
  register_server(0, Rect(0, 0, 500, 1000));
  EXPECT_EQ(harness_.coordinator.partition_map().size(), 1u);
  EXPECT_EQ(harness_.coordinator.partition_map().find(ServerId(1))->range,
            Rect(0, 0, 500, 1000));
}

TEST_F(CoordinatorTest, TablesPushedToEveryServerOnChange) {
  register_server(0, Rect(0, 0, 500, 1000));
  register_server(1, Rect(500, 0, 1000, 1000));
  // Each registration triggers a recompute that pushes a table per server
  // per radius class.  After two registrations both matrix nodes have
  // received at least one table.
  EXPECT_GE(harness_.coordinator.recompute_count(), 2u);
  EXPECT_GE(harness_.coordinator.tables_pushed(), 3u);  // 1 + 2
  EXPECT_GT(harness_.coordinator.table_bytes_pushed(), 0u);
}

TEST_F(CoordinatorTest, VersionIncreasesMonotonically) {
  register_server(0, Rect(0, 0, 500, 1000));
  const auto v1 = harness_.coordinator.version();
  register_server(1, Rect(500, 0, 1000, 1000));
  EXPECT_GT(harness_.coordinator.version(), v1);
}

TEST_F(CoordinatorTest, UnregisterRemovesAndRecomputes) {
  register_server(0, Rect(0, 0, 500, 1000));
  register_server(1, Rect(500, 0, 1000, 1000));
  const auto recomputes = harness_.coordinator.recompute_count();
  harness_.games[1]->inject(harness_.mc_node, ServerUnregister{ServerId(2)});
  harness_.run_for(50_ms);
  EXPECT_EQ(harness_.coordinator.partition_map().size(), 1u);
  EXPECT_GT(harness_.coordinator.recompute_count(), recomputes);
}

TEST_F(CoordinatorTest, PointLookupFindsOwner) {
  register_server(0, Rect(0, 0, 500, 1000));
  register_server(1, Rect(500, 0, 1000, 1000));
  harness_.games[0]->inject(harness_.mc_node, PointLookup{{750, 200}, 31});
  harness_.run_for(50_ms);
  const PointOwner* owner = harness_.games[0]->last<PointOwner>();
  ASSERT_NE(owner, nullptr);
  EXPECT_EQ(owner->lookup_seq, 31u);
  EXPECT_TRUE(owner->found);
  EXPECT_EQ(owner->server, ServerId(2));
  EXPECT_EQ(owner->game_node, harness_.games[1]->node_id());
  EXPECT_EQ(harness_.coordinator.lookups_served(), 1u);
}

TEST_F(CoordinatorTest, PointLookupOutsideWorldNotFound) {
  register_server(0, Rect(0, 0, 1000, 1000));
  harness_.games[0]->inject(harness_.mc_node, PointLookup{{-50, -50}, 9});
  harness_.run_for(50_ms);
  const PointOwner* owner = harness_.games[0]->last<PointOwner>();
  ASSERT_NE(owner, nullptr);
  EXPECT_FALSE(owner->found);
}

TEST_F(CoordinatorTest, MultipleRadiiYieldMultipleTables) {
  register_server(0, Rect(0, 0, 500, 1000), {50.0, 150.0});
  register_server(1, Rect(500, 0, 1000, 1000), {50.0, 150.0});
  EXPECT_EQ(harness_.coordinator.radii(),
            (std::vector<double>{50.0, 150.0}));
  const auto tables = harness_.coordinator.compute_all_tables();
  // 2 servers × 2 radius classes.
  EXPECT_EQ(tables.size(), 4u);
  // Larger radius ⇒ wider overlap regions.
  double area_small = 0.0, area_large = 0.0;
  for (const auto& table : tables) {
    for (const auto& region : table.regions) {
      (table.radius_class == 0 ? area_small : area_large) +=
          region.rect.area();
    }
  }
  EXPECT_GT(area_large, area_small);
}

TEST_F(CoordinatorTest, TableContentsMatchDirectComputation) {
  register_server(0, Rect(0, 0, 500, 1000));
  register_server(1, Rect(500, 0, 1000, 1000));
  const auto tables = harness_.coordinator.compute_all_tables();
  for (const auto& table : tables) {
    const auto direct = build_overlap_regions(
        harness_.coordinator.partition_map(), table.server, table.radius,
        Metric::kChebyshev);
    ASSERT_EQ(table.regions.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(table.regions[i].rect, direct[i].rect);
      EXPECT_EQ(table.regions[i].peers, direct[i].peers);
    }
  }
}

TEST_F(CoordinatorTest, MalformedMessageIsCountedNotFatal) {
  register_server(0, Rect(0, 0, 1000, 1000));
  harness_.network.send(harness_.games[0]->node_id(), harness_.mc_node,
                        {0xFF, 0x13, 0x37});
  harness_.run_for(50_ms);
  EXPECT_EQ(harness_.coordinator.malformed_count(), 1u);
  // Still serves lookups afterwards.
  harness_.games[0]->inject(harness_.mc_node, PointLookup{{5, 5}, 1});
  harness_.run_for(50_ms);
  EXPECT_NE(harness_.games[0]->last<PointOwner>(), nullptr);
}

}  // namespace
}  // namespace matrix
