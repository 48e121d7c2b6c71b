#include "dcc/sinr/network.h"

#include <algorithm>
#include <queue>

namespace dcc::sinr {

Network::Network(std::vector<Vec2> positions, std::vector<NodeId> ids,
                 Params params, Shadowing shadowing)
    : Network(std::move(positions), std::move(ids), params,
              MakeDefaultModel(params, shadowing)) {}

Network::Network(std::vector<Vec2> positions, std::vector<NodeId> ids,
                 Params params,
                 std::shared_ptr<const PropagationModel> model)
    : pos_(std::move(positions)),
      ids_(std::move(ids)),
      params_(params),
      model_(std::move(model)) {
  DCC_REQUIRE(model_ != nullptr, "Network: propagation model must be non-null");
  params_.Validate();
  DCC_REQUIRE(pos_.size() == ids_.size(),
              "Network: positions and ids must have equal length");
  index_of_.reserve(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    DCC_REQUIRE(ids_[i] >= 1 && ids_[i] <= params_.id_space,
                "Network: node id out of [1, id_space]");
    const bool inserted = index_of_.emplace(ids_[i], i).second;
    DCC_REQUIRE(inserted, "Network: duplicate node id");
  }
  const std::size_t n = pos_.size();
  if (n > 0 && n <= kGainMatrixLimit) {
    gain_.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double g = ComputeGain(i, j);
        gain_[i * n + j] = g;
        gain_[j * n + i] = g;
      }
    }
  }
}

Network Network::WithSequentialIds(std::vector<Vec2> positions,
                                   Params params) {
  std::vector<NodeId> ids(positions.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<NodeId>(i + 1);
  return Network(std::move(positions), std::move(ids), params);
}

void Network::SetPositions(std::span<const Vec2> pts) {
  DCC_REQUIRE(pts.size() == pos_.size(),
              "SetPositions: size mismatch (node count is fixed)");
  std::copy(pts.begin(), pts.end(), pos_.begin());
  comm_graph_.clear();
  const std::size_t n = pos_.size();
  if (!gain_.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double g = ComputeGain(i, j);
        gain_[i * n + j] = g;
        gain_[j * n + i] = g;
      }
    }
  }
}

void Network::SetPosition(std::size_t i, Vec2 p) {
  DCC_REQUIRE(i < pos_.size(), "SetPosition: bad node index");
  pos_[i] = p;
  comm_graph_.clear();
  const std::size_t n = pos_.size();
  if (!gain_.empty()) {
    for (std::size_t j = 0; j < n; ++j) {
      const double g = ComputeGain(i, j);
      gain_[i * n + j] = g;
      gain_[j * n + i] = g;
    }
  }
}

std::size_t Network::IndexOf(NodeId id) const {
  const auto it = index_of_.find(id);
  DCC_REQUIRE(it != index_of_.end(), "Network::IndexOf: unknown id");
  return it->second;
}

double Network::ComputeGain(std::size_t i, std::size_t j) const {
  if (i == j) return 0.0;
  return model_->Gain(pos_[i], pos_[j], ids_[i], ids_[j]);
}

const std::vector<std::vector<std::size_t>>& Network::CommGraph() const {
  if (comm_graph_.empty() && !pos_.empty()) {
    const double r = params_.CommRadius();
    comm_graph_.resize(pos_.size());
    const PointGrid grid(pos_, std::max(r, 1e-9));
    for (std::size_t i = 0; i < pos_.size(); ++i) {
      grid.ForNear(pos_[i], r, [&](std::size_t j) {
        if (j != i) comm_graph_[i].push_back(j);
      });
      std::sort(comm_graph_[i].begin(), comm_graph_[i].end());
    }
  }
  return comm_graph_;
}

int Network::MaxDegree() const {
  int deg = 0;
  for (const auto& adj : CommGraph()) {
    deg = std::max(deg, static_cast<int>(adj.size()));
  }
  return deg;
}

int Network::Density() const { return UnitBallDensity(pos_, 1.0); }

std::vector<int> Network::HopDistances(std::size_t src) const {
  DCC_REQUIRE(src < pos_.size(), "HopDistances: bad source index");
  const auto& g = CommGraph();
  std::vector<int> dist(pos_.size(), -1);
  std::queue<std::size_t> q;
  dist[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const std::size_t v = q.front();
    q.pop();
    for (std::size_t w : g[v]) {
      if (dist[w] < 0) {
        dist[w] = dist[v] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

int Network::Diameter() const {
  if (pos_.empty()) return -1;
  // Exact diameter via all-sources BFS is O(n * m); fine at our scales.
  int best = 0;
  for (std::size_t s = 0; s < pos_.size(); ++s) {
    const auto dist = HopDistances(s);
    for (int d : dist) best = std::max(best, d);
  }
  return best;
}

bool Network::Connected() const {
  if (pos_.empty()) return true;
  const auto dist = HopDistances(0);
  return std::none_of(dist.begin(), dist.end(), [](int d) { return d < 0; });
}

}  // namespace dcc::sinr
