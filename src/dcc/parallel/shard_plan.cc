#include "dcc/parallel/shard_plan.h"

#include <algorithm>

#include "dcc/common/types.h"

namespace dcc::parallel {

void ShardPlan::Reset(int n_tiles, int shards,
                      std::span<const std::uint32_t> weights) {
  DCC_REQUIRE(n_tiles >= 0, "ShardPlan: negative tile count");
  DCC_REQUIRE(shards >= 1, "ShardPlan: at least one shard required");
  if (n_tiles == 0) {
    bounds_.assign(static_cast<std::size_t>(shards) + 1, 0);
    return;
  }
  DCC_REQUIRE(weights.size() == static_cast<std::size_t>(n_tiles),
              "ShardPlan: weights must cover every tile");
  bounds_.clear();
  bounds_.reserve(static_cast<std::size_t>(shards) + 1);
  bounds_.push_back(0);

  std::uint64_t total = 0;
  for (const std::uint32_t w : weights) total += w;

  // Cut after the tile whose cumulative weight first reaches k/K of the
  // total. Integer thresholds keep the plan exactly reproducible.
  std::uint64_t cum = 0;
  int tile = 0;
  for (int k = 1; k < shards; ++k) {
    const std::uint64_t target = (total * static_cast<std::uint64_t>(k)) /
                                 static_cast<std::uint64_t>(shards);
    while (tile < n_tiles && cum < target) {
      cum += weights[static_cast<std::size_t>(tile)];
      ++tile;
    }
    bounds_.push_back(tile);
  }
  bounds_.push_back(n_tiles);
}

int ShardPlan::ShardOfTile(int tile) const {
  DCC_CHECK(tile >= 0 && tile < bounds_.back());
  // The owning shard is the last bound <= tile.
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), tile);
  return static_cast<int>(it - bounds_.begin()) - 1;
}

}  // namespace dcc::parallel
