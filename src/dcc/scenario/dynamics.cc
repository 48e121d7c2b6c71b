#include "dcc/scenario/dynamics.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "dcc/cluster/clustering.h"
#include "dcc/cluster/validate.h"
#include "dcc/common/rng.h"
#include "dcc/mobility/churn.h"
#include "dcc/mobility/models.h"
#include "dcc/workload/generators.h"

namespace dcc::scenario {

namespace {

// Salts separating the mobility and churn streams from every other use of
// the run seed (topology = seed, ids = seed+1, nonce = seed+2, faults have
// their own salt in scenario.cc).
constexpr std::uint64_t kMobilitySalt = 0x4D4F42494Cull;  // "MOBIL"
constexpr std::uint64_t kChurnSalt = 0x434855524Eull;     // "CHURN"

MobilityRegistry& BuildMobilityModels() {
  static MobilityRegistry reg("mobility model");
  reg.Register(
      "waypoint",
      [](const ParamMap& p, const Box& world, std::uint64_t seed) {
        mobility::RandomWaypoint::Config cfg;
        cfg.world = world;
        cfg.vmax = p.GetDouble("speed", 1.0);
        cfg.vmin = p.GetDouble("vmin", std::min(0.1, cfg.vmax));
        cfg.pause = p.GetDouble("pause", 0.0);
        return std::unique_ptr<mobility::MobilityModel>(
            new mobility::RandomWaypoint(cfg, seed));
      },
      "speed=1,vmin=0.1,pause=0 — random waypoint: walk to a uniform "
      "target, pause, re-target");
  reg.Register(
      "walk",
      [](const ParamMap& p, const Box& world, std::uint64_t seed) {
        mobility::GaussMarkov::Config cfg;
        cfg.world = world;
        cfg.mean_speed = p.GetDouble("speed", 0.5);
        cfg.sigma = p.GetDouble("sigma", 0.5 * cfg.mean_speed);
        cfg.memory = p.GetDouble("memory", 0.75);
        return std::unique_ptr<mobility::MobilityModel>(
            new mobility::GaussMarkov(cfg, seed));
      },
      "speed=0.5,sigma=0.25,memory=0.75 — Gauss-Markov random walk "
      "(memory=0: memoryless), reflecting walls");
  reg.Register(
      "group",
      [](const ParamMap& p, const Box& world, std::uint64_t seed) {
        mobility::ReferencePointGroup::Config cfg;
        cfg.world = world;
        cfg.group_size = static_cast<int>(p.GetInt("group", 8));
        cfg.vmax = p.GetDouble("speed", 1.0);
        cfg.vmin = p.GetDouble("vmin", std::min(0.1, cfg.vmax));
        cfg.pause = p.GetDouble("pause", 0.0);
        cfg.radius = p.GetDouble("radius", 1.0);
        return std::unique_ptr<mobility::MobilityModel>(
            new mobility::ReferencePointGroup(cfg, seed));
      },
      "group=8,speed=1,vmin=0.1,pause=0,radius=1 — reference-point group "
      "mobility (RPGM): waypoint groups, members jitter in a disc");
  return reg;
}

}  // namespace

MobilityRegistry& MobilityModels() {
  static MobilityRegistry& reg = BuildMobilityModels();
  return reg;
}

bool IsDynamic(const ScenarioSpec& spec) { return !spec.dynamics.empty(); }

RunReport RunDynamicScenario(const ScenarioSpec& spec, std::uint64_t seed) {
  RunReport rep;
  rep.topology = spec.topology;
  rep.algo = spec.algo;
  rep.seed = seed;
  try {
    spec.sinr.Validate();
    DCC_REQUIRE(spec.algo == "clustering",
                "dynamics: only algo 'clustering' is supported (stability "
                "metrics are defined on clusterings); got '" + spec.algo +
                    "'");
    DCC_REQUIRE(spec.faults == 0,
                "dynamics: fault injection is not supported in dynamic runs");
    spec.algo_params.CheckAllConsumed("algorithm 'clustering' (dynamics)");

    // Local copies: consumption marks are per-run state and the same spec
    // may be running on several sweep threads.
    ParamMap topo_params = spec.topology_params;
    ParamMap dyn = spec.dynamics;

    const TopologyFn& topo = Topologies().Get(spec.topology);
    auto pts = topo(topo_params, spec.sinr, seed);
    topo_params.CheckAllConsumed("topology '" + spec.topology + "'");

    const std::string model_name = dyn.GetString("model", "waypoint");
    const auto epochs = static_cast<int>(dyn.GetInt("epochs", 8));
    const double epoch_len = dyn.GetDouble("epoch_len", 1.0);
    const double churn_rate = dyn.GetDouble("churn", 0.0);
    const double join_rate = dyn.GetDouble("join", churn_rate);
    const double side = dyn.GetDouble("side", 0.0);
    DCC_REQUIRE(epochs >= 1, "dynamics: epochs must be >= 1");
    DCC_REQUIRE(epoch_len > 0.0, "dynamics: epoch_len must be > 0");
    DCC_REQUIRE(side >= 0.0, "dynamics: side must be >= 0");

    const Box world = side > 0.0 ? Box{{0.0, 0.0}, {side, side}}
                                 : BoundingBox(pts);
    for (const Vec2 p : pts) {
      DCC_REQUIRE(p.x >= world.lo.x && p.x <= world.hi.x &&
                      p.y >= world.lo.y && p.y <= world.hi.y,
                  "dynamics: generated topology exceeds the world box "
                  "(side too small for the topology parameters)");
    }

    const MobilityFactory& factory = MobilityModels().Get(model_name);
    auto model = factory(dyn, world, HashCombine(seed, kMobilitySalt));
    dyn.CheckAllConsumed("dynamics (model '" + model_name + "')");

    sinr::Network net =
        workload::MakeNetwork(std::move(pts), spec.sinr,
                              spec.id_seed.value_or(seed + 1), spec.shadowing);
    sinr::Engine::Options engine_opts = spec.engine;
    engine_opts.coverage = world;
    sim::Exec ex(net, engine_opts);

    mobility::ChurnProcess churn(churn_rate, join_rate,
                                 HashCombine(seed, kChurnSalt));
    mobility::ChurnProcess::Delta delta;

    const std::size_t n = net.size();
    std::vector<Vec2> pos = net.positions();
    std::vector<char> active(n, 1);
    std::vector<char> prev_active(n, 0);
    std::vector<ClusterId> prev_cluster(n, kNoCluster);
    std::vector<std::size_t> members;
    members.reserve(n);

    model->Init(pos);
    // Off nodes must not listen (and, erased from the spatial index, must
    // not reach the engine at all).
    ex.SetActivityMask(active);
    const auto prof = cluster::Profile::Practical(spec.sinr.id_space);
    const std::uint64_t nonce = spec.nonce.value_or(seed + 2);

    rep.dynamic.model = model_name;
    rep.dynamic.epoch_len = epoch_len;
    rep.ok = true;
    double survival_sum = 0.0;
    int survival_epochs = 0;
    std::int64_t joined_total = 0, left_total = 0;

    for (int e = 0; e < epochs; ++e) {
      if (e > 0) {
        model->Step(epoch_len, pos, active);
        churn.Step(epoch_len, active, delta);
        for (const std::size_t i : delta.joined) pos[i] = model->Respawn(i);
        net.SetPositions(pos);
        ex.engine().SyncIndex();
        for (const std::size_t i : delta.left) ex.engine().IndexErase(i);
        for (const std::size_t i : delta.joined) ex.engine().IndexInsert(i);
      }

      members.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (active[i]) members.push_back(i);
      }
      const int gamma = cluster::SubsetDensity(net, members);
      const Round rounds_before = ex.rounds();
      const auto res = cluster::BuildClustering(ex, prof, members, gamma,
                                                HashCombine(nonce, e));
      const auto chk = cluster::CheckClustering(net, members, res.cluster_of);
      const bool epoch_ok =
          chk.ValidRClustering(1.0, spec.sinr.eps) && res.unassigned == 0;
      rep.ok = rep.ok && epoch_ok;

      stats::Recorder em;
      em.Set("epoch", e);
      em.Set("ok", epoch_ok ? 1 : 0);
      em.Set("members", static_cast<double>(members.size()));
      em.Set("gamma", gamma);
      em.Set("rounds", static_cast<double>(ex.rounds() - rounds_before));
      em.Set("levels", res.levels);
      em.Set("unassigned", static_cast<double>(res.unassigned));
      em.Set("clusters", chk.num_clusters);
      em.Set("max_radius", chk.max_radius);
      em.Set("min_center_sep", chk.min_center_sep);
      if (e > 0) {
        em.Set("joined", static_cast<double>(delta.joined.size()));
        em.Set("left", static_cast<double>(delta.left.size()));
        joined_total += static_cast<std::int64_t>(delta.joined.size());
        left_total += static_cast<std::int64_t>(delta.left.size());
        // Label survival: of the nodes clustered in both epochs, the
        // fraction that kept their cluster label across the epoch.
        std::size_t eligible = 0, survived = 0;
        for (const std::size_t i : members) {
          if (!prev_active[i] || prev_cluster[i] == kNoCluster) continue;
          ++eligible;
          if (res.cluster_of[i] == prev_cluster[i]) ++survived;
        }
        const double survival =
            eligible == 0 ? 1.0
                          : static_cast<double>(survived) /
                                static_cast<double>(eligible);
        em.Set("survival", survival);
        survival_sum += survival;
        ++survival_epochs;
      }
      rep.dynamic.epochs.push_back(std::move(em));

      prev_active = active;
      prev_cluster = res.cluster_of;
      prev_cluster.resize(n, kNoCluster);
    }

    rep.metrics.Set("n", static_cast<double>(n));
    rep.metrics.Set("members", static_cast<double>(members.size()));
    rep.metrics.Set("epochs", epochs);
    rep.metrics.Set("rounds_total", static_cast<double>(ex.rounds()));
    if (survival_epochs > 0) {
      rep.metrics.Set("survival_mean",
                      survival_sum / static_cast<double>(survival_epochs));
    }
    if (churn_rate > 0.0 || join_rate > 0.0) {
      rep.metrics.Set("joined_total", static_cast<double>(joined_total));
      rep.metrics.Set("left_total", static_cast<double>(left_total));
    }
    // The Exec (and its engine's shard pool and scratch) persisted across
    // every epoch; the section aggregates all of them.
    FillParallelSection(rep, ex.engine());
  } catch (const std::exception& e) {
    rep.ok = false;
    rep.error = e.what();
  }
  return rep;
}

}  // namespace dcc::scenario
