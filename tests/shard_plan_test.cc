// Cut invariants of the domain decomposition (parallel/shard_plan.h):
// contiguous, disjoint, covering, and (under kBalanced) a pure
// deterministic function of the weight histogram. The engine's merge
// relies on every listener tile landing in exactly one shard.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "dcc/common/rng.h"
#include "dcc/parallel/shard_plan.h"

namespace dcc::parallel {
namespace {

std::vector<std::uint32_t> RandomWeights(int n_tiles, std::uint64_t seed,
                                         std::uint32_t max_w) {
  Xoshiro256ss rng(seed);
  std::vector<std::uint32_t> w(static_cast<std::size_t>(n_tiles));
  for (auto& x : w) x = static_cast<std::uint32_t>(rng.NextBelow(max_w + 1));
  return w;
}

// The three structural invariants every plan must satisfy: bounds start at
// 0, end at n_tiles, and never decrease — which is exactly "every tile in
// one shard, shards contiguous and disjoint, union covers [0, n_tiles)".
void CheckStructure(const ShardPlan& plan, int n_tiles, int shards) {
  const auto bounds = plan.bounds();
  ASSERT_EQ(bounds.size(), static_cast<std::size_t>(shards) + 1);
  EXPECT_EQ(plan.shard_count(), shards);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), n_tiles);
  for (int k = 0; k < shards; ++k) {
    EXPECT_LE(plan.begin(k), plan.end(k)) << "shard " << k;
    EXPECT_EQ(plan.begin(k), bounds[static_cast<std::size_t>(k)]);
    EXPECT_EQ(plan.end(k), bounds[static_cast<std::size_t>(k) + 1]);
  }
  // ShardOfTile agrees with the ranges: tile t lands in the shard whose
  // [begin, end) contains it.
  for (int t = 0; t < n_tiles; ++t) {
    const int k = plan.ShardOfTile(t);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, shards);
    EXPECT_GE(t, plan.begin(k)) << "tile " << t;
    EXPECT_LT(t, plan.end(k)) << "tile " << t;
  }
}

TEST(ShardPlan, EvenCutsAreStructurallySound) {
  ShardPlan plan;
  for (const int n_tiles : {0, 1, 7, 64, 129}) {
    for (const int shards : {1, 2, 3, 8, 150}) {
      plan.Reset(n_tiles, shards, ShardPolicy::kEven, {});
      CheckStructure(plan, n_tiles, shards);
      // Even policy: shard sizes differ by at most one tile.
      int lo = n_tiles, hi = 0;
      for (int k = 0; k < shards; ++k) {
        const int len = plan.end(k) - plan.begin(k);
        lo = std::min(lo, len);
        hi = std::max(hi, len);
      }
      EXPECT_LE(hi - lo, 1) << n_tiles << " tiles / " << shards << " shards";
    }
  }
}

TEST(ShardPlan, BalancedCutsAreStructurallySound) {
  ShardPlan plan;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    for (const int n_tiles : {1, 13, 64, 257}) {
      for (const int shards : {1, 2, 5, 16, 300}) {
        const auto w = RandomWeights(n_tiles, seed * 1000 + n_tiles, 50);
        plan.Reset(n_tiles, shards, ShardPolicy::kBalanced, w);
        CheckStructure(plan, n_tiles, shards);
      }
    }
  }
}

// The defining property of a balanced cut: bounds()[k] is the smallest
// tile index (not before the previous cut) whose prefix weight reaches
// k/K of the total mass. Integer arithmetic makes this exactly checkable.
TEST(ShardPlan, BalancedCutsSitAtWeightThresholds) {
  ShardPlan plan;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const int n_tiles = 200;
    const int shards = 7;
    const auto w = RandomWeights(n_tiles, seed, 40);
    std::vector<std::uint64_t> prefix(static_cast<std::size_t>(n_tiles) + 1, 0);
    for (int t = 0; t < n_tiles; ++t) {
      prefix[static_cast<std::size_t>(t) + 1] =
          prefix[static_cast<std::size_t>(t)] + w[static_cast<std::size_t>(t)];
    }
    const std::uint64_t total = prefix.back();

    plan.Reset(n_tiles, shards, ShardPolicy::kBalanced, w);
    const auto bounds = plan.bounds();
    for (int k = 1; k < shards; ++k) {
      const std::uint64_t target =
          total * static_cast<std::uint64_t>(k) / static_cast<std::uint64_t>(shards);
      const int cut = bounds[static_cast<std::size_t>(k)];
      if (cut < n_tiles) {
        EXPECT_GE(prefix[static_cast<std::size_t>(cut)], target)
            << "cut " << k << " under-weighted";
      }
      // Minimality: if this cut advanced past the previous one, the tile
      // just before it had not yet reached the threshold.
      if (cut > bounds[static_cast<std::size_t>(k) - 1]) {
        EXPECT_LT(prefix[static_cast<std::size_t>(cut) - 1], target)
            << "cut " << k << " not minimal";
      }
    }
  }
}

// Weak monotonicity in histogram mass: piling extra weight onto tile 0
// can only pull every cut earlier (or leave it), never push it later —
// the prefix sums gain the full extra mass while each threshold gains
// only k/K of it.
TEST(ShardPlan, BalancedCutsMonotoneInLeadingMass) {
  ShardPlan before, after;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    const int n_tiles = 150;
    const int shards = 6;
    auto w = RandomWeights(n_tiles, seed, 30);
    before.Reset(n_tiles, shards, ShardPolicy::kBalanced, w);
    w[0] += 500;
    after.Reset(n_tiles, shards, ShardPolicy::kBalanced, w);
    for (int k = 0; k <= shards; ++k) {
      EXPECT_LE(after.bounds()[static_cast<std::size_t>(k)],
                before.bounds()[static_cast<std::size_t>(k)])
          << "cut " << k << " moved later after adding mass at tile 0";
    }
  }
}

TEST(ShardPlan, ZeroWeightsDegenerateCleanly) {
  ShardPlan plan;
  const std::vector<std::uint32_t> w(64, 0);
  plan.Reset(64, 4, ShardPolicy::kBalanced, w);
  CheckStructure(plan, 64, 4);
}

TEST(ShardPlan, MoreShardsThanTilesLeavesEmptyShards) {
  ShardPlan plan;
  const auto w = RandomWeights(3, 99, 10);
  plan.Reset(3, 8, ShardPolicy::kBalanced, w);
  CheckStructure(plan, 3, 8);
  int non_empty = 0;
  for (int k = 0; k < 8; ++k) {
    if (plan.end(k) > plan.begin(k)) ++non_empty;
  }
  EXPECT_LE(non_empty, 3);
}

}  // namespace
}  // namespace dcc::parallel
