// QuadtreeIndex must agree exactly with RegionIndex (and with a linear
// scan) on every point — it is an interchangeable index over the same
// overlap regions.  Also covers the CSV report writers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/overlap.h"
#include "core/quadtree_index.h"
#include "sim/report.h"
#include "util/rng.h"

namespace matrix {
namespace {

PartitionMap grid_map(std::size_t side) {
  PartitionMap map;
  const double w = 1000.0 / static_cast<double>(side);
  std::size_t id = 1;
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      map.upsert({ServerId(id), NodeId(100 + id), NodeId(200 + id),
                  Rect(static_cast<double>(x) * w, static_cast<double>(y) * w,
                       static_cast<double>(x + 1) * w,
                       static_cast<double>(y + 1) * w)});
      ++id;
    }
  }
  return map;
}

TEST(QuadtreeIndexTest, EmptyIndex) {
  const QuadtreeIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.find({1, 1}), nullptr);
}

TEST(QuadtreeIndexTest, SingleRegion) {
  OverlapRegionWire region;
  region.rect = Rect(0, 0, 50, 100);
  region.peers = {{ServerId(2), NodeId(3)}};
  const QuadtreeIndex index(Rect(0, 0, 100, 100), {region});
  EXPECT_NE(index.find({25, 50}), nullptr);
  EXPECT_EQ(index.find({75, 50}), nullptr);   // inside partition, no region
  EXPECT_EQ(index.find({150, 50}), nullptr);  // outside partition
}

class QuadtreeAgreementTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuadtreeAgreementTest, AgreesWithGridIndexEverywhere) {
  const auto map = grid_map(GetParam());
  const PartitionEntry& home = map.entries().front();
  const auto regions =
      build_overlap_regions(map, home.server, 40.0, Metric::kChebyshev);
  const RegionIndex grid(home.range, regions);
  const QuadtreeIndex tree(home.range, regions);

  Rng rng(GetParam() * 31 + 7);
  for (int probe = 0; probe < 3000; ++probe) {
    const Vec2 p{rng.next_double_in(home.range.x0(), home.range.x1()),
                 rng.next_double_in(home.range.y0(), home.range.y1())};
    const OverlapRegionWire* a = grid.find(p);
    const OverlapRegionWire* b = tree.find(p);
    ASSERT_EQ(a != nullptr, b != nullptr) << "at " << p;
    if (a != nullptr) {
      EXPECT_EQ(a->rect, b->rect) << "at " << p;
      EXPECT_EQ(a->peers, b->peers) << "at " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GridSides, QuadtreeAgreementTest,
                         ::testing::Values(2, 3, 4, 8));

TEST(QuadtreeIndexTest, DepthBoundRespected) {
  // Many overlapping thin regions force subdivision; node count must stay
  // bounded by the depth limit.
  std::vector<OverlapRegionWire> regions;
  for (int i = 0; i < 64; ++i) {
    OverlapRegionWire region;
    region.rect = Rect(0, i * 1.5, 100, i * 1.5 + 1.4);
    const auto peer = static_cast<std::uint64_t>(i + 2);
    region.peers = {{ServerId(peer), NodeId(peer)}};
    regions.push_back(region);
  }
  const QuadtreeIndex tree(Rect(0, 0, 100, 100), regions, 2, 5);
  // Depth 5 quadtree over 4 children: ≤ 1 + 4 + ... + 4^5 nodes.
  EXPECT_LE(tree.node_count(), 1365u);
  // Still answers correctly.
  EXPECT_NE(tree.find({50, 0.5}), nullptr);
}

// ---------------------------------------------------------------------------
// Report writers
// ---------------------------------------------------------------------------

TEST(ReportTest, TimeSeriesCsvRoundTrips) {
  TimeSeries a("alpha"), b("beta");
  a.record(0.0, 1.0);
  a.record(2.0, 3.0);
  b.record(1.0, 5.0);
  const std::string path = "/tmp/matrix_report_test.csv";
  ASSERT_TRUE(write_timeseries_csv(path, {&a, &b}, 3.0, 1.0));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "t,alpha,beta");
  std::getline(in, line);
  EXPECT_EQ(line, "0,1,0");  // beta has no value yet -> 0
  std::getline(in, line);
  EXPECT_EQ(line, "1,1,5");
  std::getline(in, line);
  EXPECT_EQ(line, "2,3,5");
  std::remove(path.c_str());
}

TEST(ReportTest, PercentilesCsvHasAllRows) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  const std::string path = "/tmp/matrix_percentiles_test.csv";
  ASSERT_TRUE(write_percentiles_csv(path, h));
  std::ifstream in(path);
  std::string line;
  int rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 12);  // header + 11 percentiles
  std::remove(path.c_str());
}

TEST(ReportTest, UnwritablePathReturnsFalse) {
  TimeSeries s("x");
  EXPECT_FALSE(write_timeseries_csv("/nonexistent-dir/x.csv", {&s}, 1.0));
}

}  // namespace
}  // namespace matrix
