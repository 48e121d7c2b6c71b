// Uniform spatial grid over a point set, with per-tile bucket storage and
// incremental maintenance.
//
// Unlike PointGrid (geometry.h), which hashes sparse cells for one-off
// radius queries, SpatialGrid is built over the simulator's node positions
// and optimized for the SINR engine's per-round tile sweeps:
//  * members of a tile are a contiguous span (one bucket per tile);
//  * O(1) point -> tile lookup (precomputed per point);
//  * conservative distance bounds between a point (or tile) and a tile's
//    bounding box, used to bound per-tile interference contributions;
//  * O(1) incremental Move / Insert / Erase (dynamic networks: node
//    mobility and churn mutate tile membership in place instead of
//    rebuilding the index — see bench_mobility_churn for the cost gap).
//
// Tiles are indexed row-major in [0, tile_count()). The grid covers either
// the bounding box of the construction points or an explicit coverage box
// (dynamic networks pass their world box so moved points stay covered);
// every live point maps to exactly one tile, and the soundness of the
// distance bounds requires each point to lie inside its tile's box — hence
// Move/Insert reject positions outside the coverage area.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dcc/common/geometry.h"
#include "dcc/common/types.h"

namespace dcc {

class SpatialGrid {
 public:
  // `cell` > 0 is the tile side length; the grid covers the points'
  // bounding box.
  SpatialGrid(std::span<const Vec2> pts, double cell);

  // Same, with an explicit coverage box (must contain every point). Use for
  // dynamic point sets whose future positions exceed the initial bounding
  // box.
  SpatialGrid(std::span<const Vec2> pts, double cell, const Box& coverage);

  double cell() const { return cell_; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int tile_count() const { return nx_ * ny_; }
  // Live points (erased slots excluded).
  std::size_t point_count() const { return live_count_; }
  // One past the largest point index ever seen (live or erased).
  std::size_t index_bound() const { return tile_of_point_.size(); }

  // Tile of live point i. Calling this for an erased slot is invalid (the
  // stored tile is kErased, outside [0, tile_count())).
  int TileOfPoint(std::size_t i) const { return tile_of_point_[i]; }

  // True iff slot i currently holds a live point.
  bool Contains(std::size_t i) const {
    return i < tile_of_point_.size() && tile_of_point_[i] != kErased;
  }

  // Tile containing an arbitrary position (clamped into the grid).
  // Header-inlined along with Move/Insert/Erase: mobility re-tiles every
  // node every epoch, so per-call overhead is the difference between
  // incremental maintenance beating a bulk rebuild or losing to it
  // (bench_mobility_churn).
  // The reciprocal multiply instead of dividing by cell_ can only shift a
  // boundary point into the neighboring tile; both closed tile boxes
  // contain such a point, so the distance bounds stay sound either way.
  int TileAt(Vec2 p) const {
    int gx = static_cast<int>(std::floor((p.x - lo_x_) * inv_cell_));
    int gy = static_cast<int>(std::floor((p.y - lo_y_) * inv_cell_));
    gx = gx < 0 ? 0 : (gx >= nx_ ? nx_ - 1 : gx);
    gy = gy < 0 ? 0 : (gy >= ny_ ? ny_ - 1 : gy);
    return gy * nx_ + gx;
  }

  // Point indices inside a tile (contiguous; order unspecified after
  // incremental updates).
  std::span<const std::size_t> Members(int tile) const {
    return buckets_[static_cast<std::size_t>(tile)];
  }

  // Tiles holding at least one point, ascending.
  const std::vector<int>& occupied() const;

  // --- Incremental maintenance (dynamic networks). ---

  // Relocates live point i to position p (which must be inside the coverage
  // area); O(1), a bucket no-op when the tile is unchanged.
  void Move(std::size_t i, Vec2 p) {
    DCC_REQUIRE(Contains(i), "SpatialGrid::Move: point not in the grid");
    CheckCovered(p);
    const int t = TileAt(p);
    if (t == tile_of_point_[i]) return;
    PopFromTile(i);
    PushToTile(i, t);
  }

  // Adds point i at position p. The slot must not be live: i is either
  // brand-new (extends index_bound; intermediate slots start erased) or a
  // previously erased slot rejoining (churn).
  void Insert(std::size_t i, Vec2 p);

  // Removes live point i, leaving an erased slot that Insert can revive.
  void Erase(std::size_t i) {
    DCC_REQUIRE(Contains(i), "SpatialGrid::Erase: point not in the grid");
    PopFromTile(i);
    tile_of_point_[i] = kErased;
    --live_count_;
  }

  // Distance bounds from a position to a tile's closed bounding box:
  // DistLo <= |p - q| <= DistHi for every q in the tile box (and hence for
  // every member point). The squared variants skip the sqrt for hot loops.
  double DistLoSq(Vec2 p, int tile) const;
  double DistHiSq(Vec2 p, int tile) const;
  double DistLo(Vec2 p, int tile) const { return std::sqrt(DistLoSq(p, tile)); }
  double DistHi(Vec2 p, int tile) const { return std::sqrt(DistHiSq(p, tile)); }

  // Distance bounds between two tiles' bounding boxes: for every p in tile
  // a's box and q in tile b's box, TileDistLo <= |p - q| <= TileDistHi.
  double TileDistLoSq(int a, int b) const;
  double TileDistHiSq(int a, int b) const;

  // Distance bounds between tile a's box and the union box of the tile
  // range [bx0, bx1] x [by0, by1] (tile coordinates, inclusive) — the
  // coarse cells of the far-field pyramid (sinr/farfield.h). For a
  // degenerate range (bx0 == bx1, by0 == by1) these perform the exact same
  // arithmetic as TileDistLoSq/TileDistHiSq, and for any tile b inside the
  // range, TileRangeDistLoSq <= TileDistLoSq(a, b) and
  // TileRangeDistHiSq >= TileDistHiSq(a, b) — the monotonicity the
  // pyramid's conservativeness rests on.
  double TileRangeDistLoSq(int a, int bx0, int by0, int bx1, int by1) const;
  double TileRangeDistHiSq(int a, int bx0, int by0, int bx1, int by1) const;
  double TileDistLo(int a, int b) const { return std::sqrt(TileDistLoSq(a, b)); }
  double TileDistHi(int a, int b) const { return std::sqrt(TileDistHiSq(a, b)); }

 private:
  static constexpr int kErased = -1;

  void InitTiles(std::span<const Vec2> pts, const Box& coverage);

  // A point outside the tiled area would be clamped into a boundary tile
  // whose box does not contain it, breaking the distance bounds.
  void CheckCovered(Vec2 p) const {
    DCC_REQUIRE(p.x >= lo_x_ && p.x <= lo_x_ + nx_ * cell_ && p.y >= lo_y_ &&
                    p.y <= lo_y_ + ny_ * cell_,
                "SpatialGrid: position outside the coverage area");
  }

  void PushToTile(std::size_t i, int t) {
    auto& bucket = buckets_[static_cast<std::size_t>(t)];
    if (bucket.empty()) {
      occupied_.push_back(t);
      occupied_dirty_ = true;
    }
    tile_of_point_[i] = t;
    slot_of_point_[i] = static_cast<std::uint32_t>(bucket.size());
    bucket.push_back(i);
  }

  void PopFromTile(std::size_t i) {
    auto& bucket = buckets_[static_cast<std::size_t>(tile_of_point_[i])];
    const std::uint32_t slot = slot_of_point_[i];
    // Swap-pop: the displaced last member inherits the vacated slot.
    const std::size_t moved = bucket.back();
    bucket[slot] = moved;
    slot_of_point_[moved] = slot;
    bucket.pop_back();
    if (bucket.empty()) occupied_dirty_ = true;
  }

  double lo_x_ = 0.0, lo_y_ = 0.0;  // grid origin (coverage-box corner)
  double cell_ = 1.0;
  double inv_cell_ = 1.0;
  int nx_ = 1, ny_ = 1;
  std::size_t live_count_ = 0;
  std::vector<int> tile_of_point_;        // kErased for dead slots
  std::vector<std::uint32_t> slot_of_point_;  // position inside the bucket
  std::vector<std::vector<std::size_t>> buckets_;  // per-tile members
  // Occupancy is maintained lazily: mutations append candidates and set the
  // dirty flag; occupied() compacts (drop empties, sort, dedup) on demand.
  mutable std::vector<int> occupied_;
  mutable bool occupied_dirty_ = false;
};

}  // namespace dcc
