// Tests for the partition map and the overlap-region machinery — the
// geometric core of the paper (Eq. 1, Fig. 1a).  The key properties:
//
//   * overlap tables agree with the ground-truth consistency-set scan
//     (exactly under Chebyshev, conservatively under Euclidean);
//   * interior points have empty consistency sets (near-decomposability);
//   * the RegionIndex O(1) lookup answers exactly like a linear region scan.
#include <gtest/gtest.h>

#include <set>

#include "core/overlap.h"
#include "core/partition.h"
#include "util/rng.h"

namespace matrix {
namespace {

PartitionMap make_map(const std::vector<Rect>& rects) {
  PartitionMap map;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    map.upsert({ServerId(i + 1), NodeId(100 + i), NodeId(200 + i), rects[i]});
  }
  return map;
}

// ---------------------------------------------------------------------------
// PartitionMap
// ---------------------------------------------------------------------------

TEST(PartitionMapTest, UpsertFindRemove) {
  PartitionMap map;
  map.upsert({ServerId(1), NodeId(10), NodeId(20), Rect(0, 0, 5, 5)});
  ASSERT_NE(map.find(ServerId(1)), nullptr);
  EXPECT_EQ(map.find(ServerId(1))->range, Rect(0, 0, 5, 5));
  // Upsert replaces.
  map.upsert({ServerId(1), NodeId(10), NodeId(20), Rect(0, 0, 2, 5)});
  EXPECT_EQ(map.find(ServerId(1))->range, Rect(0, 0, 2, 5));
  EXPECT_EQ(map.size(), 1u);
  map.remove(ServerId(1));
  EXPECT_EQ(map.find(ServerId(1)), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(PartitionMapTest, OwnerOfResolvesBoundariesUniquely) {
  const auto map = make_map({Rect(0, 0, 5, 10), Rect(5, 0, 10, 10)});
  EXPECT_EQ(map.owner_of({2, 2})->server, ServerId(1));
  EXPECT_EQ(map.owner_of({5.0, 5.0})->server, ServerId(2));  // shared edge
  EXPECT_EQ(map.owner_of({20, 20}), nullptr);
}

TEST(PartitionMapTest, TilesDetectsGapsAndOverlaps) {
  const Rect world(0, 0, 10, 10);
  EXPECT_TRUE(make_map({Rect(0, 0, 5, 10), Rect(5, 0, 10, 10)}).tiles(world));
  // Gap.
  EXPECT_FALSE(make_map({Rect(0, 0, 4, 10), Rect(5, 0, 10, 10)}).tiles(world));
  // Overlap.
  EXPECT_FALSE(make_map({Rect(0, 0, 6, 10), Rect(5, 0, 10, 10)}).tiles(world));
  // Out of bounds.
  EXPECT_FALSE(make_map({Rect(0, 0, 5, 10), Rect(5, 0, 11, 10)}).tiles(world));
}

TEST(PartitionMapTest, ConsistencySetScanMatchesEq1) {
  // Two halves, R = 10: points within 10 of the boundary see the other side.
  const auto map = make_map({Rect(0, 0, 50, 100), Rect(50, 0, 100, 100)});
  auto set = consistency_set_scan(map, {45, 50}, 10.0, Metric::kChebyshev);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set[0]->server, ServerId(2));
  // Interior point: empty set.
  EXPECT_TRUE(
      consistency_set_scan(map, {25, 50}, 10.0, Metric::kChebyshev).empty());
  // Infinite-ish radius: everyone (paper: "if R is infinite, all updates
  // must be globally propagated").
  EXPECT_EQ(consistency_set_scan(map, {25, 50}, 1000.0, Metric::kChebyshev)
                .size(),
            1u);
}

// ---------------------------------------------------------------------------
// build_overlap_regions
// ---------------------------------------------------------------------------

TEST(OverlapTest, TwoPartitionsProduceBoundaryStrip) {
  const auto map = make_map({Rect(0, 0, 50, 100), Rect(50, 0, 100, 100)});
  const auto regions =
      build_overlap_regions(map, ServerId(1), 10.0, Metric::kChebyshev);
  ASSERT_EQ(regions.size(), 1u);
  // Points of P1 within 10 of P2 = x ∈ [40, 50).
  EXPECT_EQ(regions[0].rect, Rect(40, 0, 50, 100));
  EXPECT_EQ(regions[0].peers,
            (std::vector<OverlapPeer>{{ServerId(2), NodeId(101)}}));
}

TEST(OverlapTest, OwnerExcludedFromItsOwnRegions) {
  const auto map = make_map({Rect(0, 0, 50, 100), Rect(50, 0, 100, 100)});
  for (const auto& region :
       build_overlap_regions(map, ServerId(2), 10.0, Metric::kChebyshev)) {
    for (const OverlapPeer& peer : region.peers) {
      EXPECT_NE(peer.server, ServerId(2));
    }
  }
}

TEST(OverlapTest, CornerPointSeesThreePeers) {
  // 2×2 grid; the inner corner of each partition must list the other 3
  // (paper Fig. 1a shows exactly this three-server overlap).
  const auto map = make_map({Rect(0, 0, 50, 50), Rect(50, 0, 100, 50),
                             Rect(0, 50, 50, 100), Rect(50, 50, 100, 100)});
  const auto regions =
      build_overlap_regions(map, ServerId(1), 8.0, Metric::kChebyshev);
  const OverlapRegionWire* corner = nullptr;
  for (const auto& region : regions) {
    if (region.rect.contains({49.0, 49.0})) corner = &region;
  }
  ASSERT_NE(corner, nullptr);
  EXPECT_EQ(corner->peers.size(), 3u);
}

TEST(OverlapTest, ZeroRadiusYieldsNoRegions) {
  // With R=0, inflated rects only touch at shared edges (open-interior
  // intersection is empty) → no overlap regions at all.
  const auto map = make_map({Rect(0, 0, 50, 100), Rect(50, 0, 100, 100)});
  EXPECT_TRUE(
      build_overlap_regions(map, ServerId(1), 0.0, Metric::kChebyshev)
          .empty());
}

TEST(OverlapTest, HugeRadiusCoversWholePartition) {
  const auto map = make_map({Rect(0, 0, 50, 100), Rect(50, 0, 100, 100)});
  const auto regions =
      build_overlap_regions(map, ServerId(1), 500.0, Metric::kChebyshev);
  double area = 0.0;
  for (const auto& region : regions) area += region.rect.area();
  EXPECT_DOUBLE_EQ(area, 50.0 * 100.0);
  EXPECT_DOUBLE_EQ(
      overlap_area_fraction(regions, map.find(ServerId(1))->range), 1.0);
}

TEST(OverlapTest, AreaFractionGrowsWithRadius) {
  const auto map = make_map({Rect(0, 0, 50, 100), Rect(50, 0, 100, 100)});
  const Rect p1 = map.find(ServerId(1))->range;
  double prev = 0.0;
  for (double radius : {5.0, 10.0, 20.0, 40.0}) {
    const auto regions =
        build_overlap_regions(map, ServerId(1), radius, Metric::kChebyshev);
    const double frac = overlap_area_fraction(regions, p1);
    EXPECT_GT(frac, prev);
    prev = frac;
  }
  // R=5 on a 50-wide partition → 10% periphery: near-decomposability.
  const auto small =
      build_overlap_regions(map, ServerId(1), 5.0, Metric::kChebyshev);
  EXPECT_NEAR(overlap_area_fraction(small, p1), 0.1, 1e-9);
}

TEST(OverlapTest, MissingOwnerYieldsNothing) {
  const auto map = make_map({Rect(0, 0, 50, 100)});
  EXPECT_TRUE(build_overlap_regions(map, ServerId(9), 10.0, Metric::kChebyshev)
                  .empty());
}

TEST(OverlapTest, SinglePartitionHasNoRegions) {
  const auto map = make_map({Rect(0, 0, 100, 100)});
  EXPECT_TRUE(build_overlap_regions(map, ServerId(1), 10.0, Metric::kChebyshev)
                  .empty());
}

// Property test: for random partition layouts (produced by recursive
// splits, like Matrix itself makes) and random probe points, the overlap
// table's answer equals Eq. 1's ground truth under Chebyshev, and is a
// superset under Euclidean.
class OverlapPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapPropertyTest, TableMatchesGroundTruth) {
  Rng rng(GetParam());
  const Rect world(0, 0, 1000, 1000);
  std::vector<Rect> rects{world};
  const int splits = static_cast<int>(2 + rng.next_below(6));
  for (int i = 0; i < splits; ++i) {
    const std::size_t victim = rng.next_below(rects.size());
    const auto [a, b] = rects[victim].split_half();
    rects[victim] = a;
    rects.push_back(b);
  }
  const auto map = make_map(rects);
  ASSERT_TRUE(map.tiles(world));

  const double radius = rng.next_double_in(10.0, 120.0);

  for (const auto& entry : map.entries()) {
    const auto regions =
        build_overlap_regions(map, entry.server, radius, Metric::kChebyshev);
    const RegionIndex index(entry.range, regions);
    for (int probe = 0; probe < 100; ++probe) {
      const Vec2 p{rng.next_double_in(entry.range.x0(), entry.range.x1()),
                   rng.next_double_in(entry.range.y0(), entry.range.y1())};
      if (!entry.range.contains(p)) continue;
      std::set<std::uint64_t> expected;
      for (const auto* peer :
           consistency_set_scan(map, p, radius, Metric::kChebyshev)) {
        expected.insert(peer->server.value());
      }
      std::set<std::uint64_t> got;
      if (const OverlapRegionWire* region = index.find(p)) {
        for (const OverlapPeer& peer : region->peers) {
          got.insert(peer.server.value());
        }
      }
      EXPECT_EQ(got, expected)
          << "at " << p << " radius " << radius << " in " << entry.range;
    }
  }
}

TEST_P(OverlapPropertyTest, EuclideanTableIsConservative) {
  Rng rng(GetParam() ^ 0xABCD);
  const Rect world(0, 0, 800, 800);
  std::vector<Rect> rects{world};
  for (int i = 0; i < 5; ++i) {
    const std::size_t victim = rng.next_below(rects.size());
    const auto [a, b] = rects[victim].split_half();
    rects[victim] = a;
    rects.push_back(b);
  }
  const auto map = make_map(rects);
  const double radius = rng.next_double_in(20.0, 100.0);

  for (const auto& entry : map.entries()) {
    const auto regions =
        build_overlap_regions(map, entry.server, radius, Metric::kEuclidean);
    const RegionIndex index(entry.range, regions);
    for (int probe = 0; probe < 60; ++probe) {
      const Vec2 p{rng.next_double_in(entry.range.x0(), entry.range.x1()),
                   rng.next_double_in(entry.range.y0(), entry.range.y1())};
      if (!entry.range.contains(p)) continue;
      std::set<std::uint64_t> truth;
      for (const auto* peer :
           consistency_set_scan(map, p, radius, Metric::kEuclidean)) {
        truth.insert(peer->server.value());
      }
      std::set<std::uint64_t> table;
      if (const OverlapRegionWire* region = index.find(p)) {
        for (const OverlapPeer& peer : region->peers) {
          table.insert(peer.server.value());
        }
      }
      // Conservative: table ⊇ truth (no consistency violations; possibly
      // some wasted bandwidth — docs/ARCHITECTURE.md, "Reproduction substitutions").
      for (std::uint64_t s : truth) {
        EXPECT_TRUE(table.count(s))
            << "Euclidean table missed server " << s << " at " << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// RegionIndex
// ---------------------------------------------------------------------------

TEST(RegionIndexTest, EmptyIndexFindsNothing) {
  const RegionIndex index(Rect(0, 0, 10, 10), {});
  EXPECT_EQ(index.find({5, 5}), nullptr);
  EXPECT_TRUE(index.empty());
}

TEST(RegionIndexTest, PointOutsidePartitionIsNull) {
  OverlapRegionWire region;
  region.rect = Rect(0, 0, 10, 10);
  region.peers = {{ServerId(2), NodeId(3)}};
  const RegionIndex index(Rect(0, 0, 10, 10), {region});
  EXPECT_NE(index.find({5, 5}), nullptr);
  EXPECT_EQ(index.find({15, 5}), nullptr);
}

TEST(RegionIndexTest, MatchesLinearScanOnRandomRegions) {
  Rng rng(77);
  const Rect partition(0, 0, 200, 200);
  // Build disjoint regions via an arrangement of random stamps — mirrors
  // real overlap tables.
  const auto map = make_map({Rect(0, 0, 200, 200), Rect(200, 0, 400, 200),
                             Rect(0, 200, 200, 400), Rect(200, 200, 400, 400)});
  const auto regions =
      build_overlap_regions(map, ServerId(1), 35.0, Metric::kChebyshev);
  const RegionIndex index(partition, regions);
  for (int probe = 0; probe < 2000; ++probe) {
    const Vec2 p{rng.next_double_in(0, 200), rng.next_double_in(0, 200)};
    const OverlapRegionWire* linear = nullptr;
    for (const auto& region : regions) {
      if (region.rect.contains(p)) {
        linear = &region;
        break;
      }
    }
    const OverlapRegionWire* indexed = index.find(p);
    ASSERT_EQ(indexed != nullptr, linear != nullptr) << "at " << p;
    if (linear != nullptr) {
      EXPECT_EQ(indexed->rect, linear->rect) << "at " << p;
      EXPECT_EQ(indexed->peers, linear->peers) << "at " << p;
    }
  }
}

}  // namespace
}  // namespace matrix
