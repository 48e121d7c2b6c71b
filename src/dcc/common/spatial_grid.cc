#include "dcc/common/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dcc/common/types.h"

namespace dcc {

namespace {

// Squared distance from x to the interval [lo, hi], per axis.
inline double AxisGapSq(double x, double lo, double hi) {
  const double g = x < lo ? lo - x : (x > hi ? x - hi : 0.0);
  return g * g;
}

// Max |x - q| over q in [lo, hi].
inline double AxisFarSq(double x, double lo, double hi) {
  const double g = std::max(std::abs(x - lo), std::abs(x - hi));
  return g * g;
}

}  // namespace

SpatialGrid::SpatialGrid(std::span<const Vec2> pts, double cell)
    : cell_(cell), inv_cell_(1.0 / cell) {
  DCC_REQUIRE(cell > 0.0, "SpatialGrid: cell must be > 0");
  InitTiles(pts, BoundingBox(pts));
}

SpatialGrid::SpatialGrid(std::span<const Vec2> pts, double cell,
                         const Box& coverage)
    : cell_(cell), inv_cell_(1.0 / cell) {
  DCC_REQUIRE(cell > 0.0, "SpatialGrid: cell must be > 0");
  DCC_REQUIRE(coverage.hi.x >= coverage.lo.x && coverage.hi.y >= coverage.lo.y,
              "SpatialGrid: inverted coverage box");
  InitTiles(pts, coverage);
}

void SpatialGrid::InitTiles(std::span<const Vec2> pts, const Box& coverage) {
  lo_x_ = coverage.lo.x;
  lo_y_ = coverage.lo.y;
  // Guard against a cell far smaller than the point extent (e.g. a typo'd
  // engine option): the per-tile arrays would dwarf the point set.
  const std::int64_t max_tiles = std::min<std::int64_t>(
      std::max<std::int64_t>(1024, 64 * static_cast<std::int64_t>(pts.size())),
      std::numeric_limits<int>::max());
  const auto axis_tiles = [&](double extent) {
    const double raw = std::floor(extent / cell_);
    DCC_REQUIRE(raw < static_cast<double>(max_tiles),
                "SpatialGrid: cell too small for the point extent");
    return std::max<std::int64_t>(1, static_cast<std::int64_t>(raw) + 1);
  };
  const std::int64_t nx = axis_tiles(coverage.hi.x - lo_x_);
  const std::int64_t ny = axis_tiles(coverage.hi.y - lo_y_);
  DCC_REQUIRE(ny <= max_tiles / nx,
              "SpatialGrid: cell too small for the point extent");
  nx_ = static_cast<int>(nx);
  ny_ = static_cast<int>(ny);

  const std::size_t n = pts.size();
  tile_of_point_.resize(n);
  slot_of_point_.resize(n);
  buckets_.resize(static_cast<std::size_t>(tile_count()));
  // Counting pass so every bucket is allocated exactly once.
  std::vector<std::size_t> count(buckets_.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    CheckCovered(pts[i]);
    const int t = TileAt(pts[i]);
    tile_of_point_[i] = t;
    ++count[static_cast<std::size_t>(t)];
  }
  for (std::size_t t = 0; t < buckets_.size(); ++t) {
    if (count[t] == 0) continue;
    buckets_[t].reserve(count[t]);
    occupied_.push_back(static_cast<int>(t));
  }
  for (std::size_t i = 0; i < n; ++i) {
    auto& bucket = buckets_[static_cast<std::size_t>(tile_of_point_[i])];
    slot_of_point_[i] = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back(i);
  }
  live_count_ = n;
}

const std::vector<int>& SpatialGrid::occupied() const {
  if (occupied_dirty_) {
    std::sort(occupied_.begin(), occupied_.end());
    occupied_.erase(std::unique(occupied_.begin(), occupied_.end()),
                    occupied_.end());
    std::erase_if(occupied_, [&](int t) {
      return buckets_[static_cast<std::size_t>(t)].empty();
    });
    occupied_dirty_ = false;
  }
  return occupied_;
}

void SpatialGrid::Insert(std::size_t i, Vec2 p) {
  DCC_REQUIRE(i >= tile_of_point_.size() || tile_of_point_[i] == kErased,
              "SpatialGrid::Insert: slot already live");
  CheckCovered(p);
  if (i >= tile_of_point_.size()) {
    tile_of_point_.resize(i + 1, kErased);
    slot_of_point_.resize(i + 1, 0);
  }
  PushToTile(i, TileAt(p));
  ++live_count_;
}

double SpatialGrid::DistLoSq(Vec2 p, int tile) const {
  const int gx = tile % nx_, gy = tile / nx_;
  const double bx = lo_x_ + gx * cell_, by = lo_y_ + gy * cell_;
  return AxisGapSq(p.x, bx, bx + cell_) + AxisGapSq(p.y, by, by + cell_);
}

double SpatialGrid::DistHiSq(Vec2 p, int tile) const {
  const int gx = tile % nx_, gy = tile / nx_;
  const double bx = lo_x_ + gx * cell_, by = lo_y_ + gy * cell_;
  return AxisFarSq(p.x, bx, bx + cell_) + AxisFarSq(p.y, by, by + cell_);
}

double SpatialGrid::TileDistLoSq(int a, int b) const {
  const int ax = a % nx_, ay = a / nx_;
  const int bx = b % nx_, by = b / nx_;
  const double gx = cell_ * std::max(0, std::abs(ax - bx) - 1);
  const double gy = cell_ * std::max(0, std::abs(ay - by) - 1);
  return gx * gx + gy * gy;
}

double SpatialGrid::TileDistHiSq(int a, int b) const {
  const int ax = a % nx_, ay = a / nx_;
  const int bx = b % nx_, by = b / nx_;
  const double gx = cell_ * (std::abs(ax - bx) + 1);
  const double gy = cell_ * (std::abs(ay - by) + 1);
  return gx * gx + gy * gy;
}

double SpatialGrid::TileRangeDistLoSq(int a, int bx0, int by0, int bx1,
                                      int by1) const {
  const int ax = a % nx_, ay = a / nx_;
  const int dx = ax < bx0 ? bx0 - ax : (ax > bx1 ? ax - bx1 : 0);
  const int dy = ay < by0 ? by0 - ay : (ay > by1 ? ay - by1 : 0);
  const double gx = cell_ * std::max(0, dx - 1);
  const double gy = cell_ * std::max(0, dy - 1);
  return gx * gx + gy * gy;
}

double SpatialGrid::TileRangeDistHiSq(int a, int bx0, int by0, int bx1,
                                      int by1) const {
  const int ax = a % nx_, ay = a / nx_;
  const double gx = cell_ * (std::max(std::abs(ax - bx0), std::abs(ax - bx1)) + 1);
  const double gy = cell_ * (std::max(std::abs(ay - by0), std::abs(ay - by1)) + 1);
  return gx * gx + gy * gy;
}

}  // namespace dcc
