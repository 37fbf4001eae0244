#include "core/overlap.h"

#include <algorithm>
#include <cmath>

#include "geometry/sweep.h"

namespace matrix {

namespace {

/// Clamped bucket index of coordinate `v` on a grid starting at `origin`
/// with `n` cells of width `cell`.
std::size_t bucket_coord(double v, double origin, double cell, std::size_t n) {
  const double raw = (v - origin) / cell;
  if (raw <= 0.0) return 0;
  const auto idx = static_cast<std::size_t>(raw);
  return std::min(idx, n - 1);
}

}  // namespace

std::vector<OverlapRegionWire> build_overlap_regions(
    const PartitionMap& map, ServerId owner, double radius, Metric metric) {
  std::vector<OverlapRegionWire> out;
  const PartitionEntry* self = map.find(owner);
  if (self == nullptr) return out;

  // Inflating Pj by R gives the locus of points within Chebyshev distance R
  // of Pj; for the Euclidean metric the same box is the conservative AABB of
  // the true rounded region (docs/ARCHITECTURE.md, "Reproduction substitutions").  Either way a point σ lies in
  // the inflated box iff server j belongs to C(σ) (conservatively for L2).
  (void)metric;  // both metrics use the AABB construction; see header docs
  std::vector<StampRect> stamps;
  std::vector<const PartitionEntry*> peers;
  for (const auto& entry : map.entries()) {
    if (entry.server == owner) continue;
    const Rect inflated = entry.range.inflated(radius);
    if (!inflated.intersects(self->range)) continue;
    stamps.push_back({inflated, static_cast<std::uint32_t>(peers.size())});
    peers.push_back(&entry);
  }
  if (peers.empty()) return out;

  for (const auto& cell : decompose_arrangement(self->range, stamps)) {
    if (cell.payloads.empty()) continue;  // interior: nothing to ship
    OverlapRegionWire region;
    region.rect = cell.rect;
    region.peers.reserve(cell.payloads.size());
    for (std::uint32_t payload : cell.payloads) {
      region.peers.push_back(
          {peers[payload]->server, peers[payload]->matrix_node});
    }
    out.push_back(std::move(region));
  }
  return out;
}

double overlap_area_fraction(const std::vector<OverlapRegionWire>& regions,
                             const Rect& partition) {
  if (partition.area() <= 0.0) return 0.0;
  double covered = 0.0;
  for (const auto& region : regions) covered += region.rect.area();
  return covered / partition.area();
}

RegionIndex::RegionIndex(const Rect& partition,
                         std::vector<OverlapRegionWire> regions)
    : partition_(partition), regions_(std::move(regions)) {
  const auto target =
      static_cast<std::size_t>(2.0 * std::sqrt(static_cast<double>(
                                         std::max<std::size_t>(regions_.size(), 1))));
  grid_w_ = std::clamp<std::size_t>(target, 1, 256);
  grid_h_ = grid_w_;
  cell_w_ = partition_.width() / static_cast<double>(grid_w_);
  cell_h_ = partition_.height() / static_cast<double>(grid_h_);
  if (cell_w_ <= 0.0) cell_w_ = 1.0;
  if (cell_h_ <= 0.0) cell_h_ = 1.0;
  buckets_.assign(grid_w_ * grid_h_, {});
  for (std::uint32_t i = 0; i < regions_.size(); ++i) {
    const Rect& r = regions_[i].rect;
    const auto bx0 = bucket_coord(r.x0(), partition_.x0(), cell_w_, grid_w_);
    const auto bx1 = bucket_coord(r.x1(), partition_.x0(), cell_w_, grid_w_);
    const auto by0 = bucket_coord(r.y0(), partition_.y0(), cell_h_, grid_h_);
    const auto by1 = bucket_coord(r.y1(), partition_.y0(), cell_h_, grid_h_);
    for (std::size_t by = by0; by <= by1; ++by) {
      for (std::size_t bx = bx0; bx <= bx1; ++bx) {
        buckets_[by * grid_w_ + bx].push_back(i);
      }
    }
  }
}

const OverlapRegionWire* RegionIndex::find(Vec2 p) const {
  if (regions_.empty() || !partition_.contains(p)) return nullptr;
  const auto bx = bucket_coord(p.x, partition_.x0(), cell_w_, grid_w_);
  const auto by = bucket_coord(p.y, partition_.y0(), cell_h_, grid_h_);
  for (std::uint32_t idx : buckets_[by * grid_w_ + bx]) {
    if (regions_[idx].rect.contains(p)) return &regions_[idx];
  }
  return nullptr;
}

}  // namespace matrix
