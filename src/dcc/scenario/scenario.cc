#include "dcc/scenario/scenario.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <utility>

#include "dcc/cluster/validate.h"
#include "dcc/common/rng.h"
#include "dcc/obs/trace.h"
#include "dcc/parallel/worker_pool.h"
#include "dcc/scenario/dynamics.h"
#include "dcc/workload/generators.h"

namespace dcc::scenario {

namespace {

// Salt separating the fault-selection stream from every other use of the
// run seed.
constexpr std::uint64_t kFaultSalt = 0xFA171E57ull;

// Deterministically samples `count` distinct jammer indices.
std::vector<std::size_t> PickFaultNodes(std::size_t n, int count,
                                        std::uint64_t seed) {
  DCC_REQUIRE(static_cast<std::size_t>(count) < n,
              "faults: at least one non-faulty node required");
  Xoshiro256ss rng(seed ^ kFaultSalt);
  std::vector<char> picked(n, 0);
  std::vector<std::size_t> jammers;
  jammers.reserve(static_cast<std::size_t>(count));
  while (jammers.size() < static_cast<std::size_t>(count)) {
    const auto idx = static_cast<std::size_t>(rng.NextBelow(n));
    if (!picked[idx]) {
      picked[idx] = 1;
      jammers.push_back(idx);
    }
  }
  std::sort(jammers.begin(), jammers.end());
  return jammers;
}

}  // namespace

sinr::Network BuildScenarioNetwork(const ScenarioSpec& spec,
                                   std::uint64_t seed) {
  spec.sinr.Validate();
  const TopologyFn& topo = Topologies().Get(spec.topology);
  // Local ParamMap copies: consumption marks are per-run state and the
  // same spec may be running on several sweep threads.
  ParamMap topo_params = spec.topology_params;
  auto pts = topo(topo_params, spec.sinr, seed);
  topo_params.CheckAllConsumed("topology '" + spec.topology + "'");
  return workload::MakeNetwork(std::move(pts), spec.sinr,
                               spec.id_seed.value_or(seed + 1),
                               spec.shadowing);
}

RunReport RunScenario(const ScenarioSpec& spec, std::uint64_t seed) {
  if (IsDynamic(spec)) return RunDynamicScenario(spec, seed);
  try {
    const sinr::Network net = BuildScenarioNetwork(spec, seed);
    return RunScenarioOnNetwork(spec, seed, net);
  } catch (const std::exception& e) {
    RunReport rep;
    rep.topology = spec.topology;
    rep.algo = spec.algo;
    rep.seed = seed;
    rep.ok = false;
    rep.error = e.what();
    return rep;
  }
}

RunReport RunScenarioOnNetwork(const ScenarioSpec& spec, std::uint64_t seed,
                               const sinr::Network& net) {
  DCC_TRACE_SPAN("scenario.run");
  RunReport rep;
  rep.topology = spec.topology;
  rep.algo = spec.algo;
  rep.seed = seed;
  try {
    sim::Exec ex(net, spec.engine);

    std::vector<std::size_t> members(net.size());
    std::iota(members.begin(), members.end(), std::size_t{0});
    if (spec.faults > 0) {
      const auto jammers = PickFaultNodes(net.size(), spec.faults, seed);
      sim::Message jam;
      jam.kind = -1;
      ex.SetBackgroundTransmitters(jammers, jam);
      std::vector<std::size_t> rest;
      rest.reserve(members.size() - jammers.size());
      std::set_difference(members.begin(), members.end(), jammers.begin(),
                          jammers.end(), std::back_inserter(rest));
      members = std::move(rest);
    }

    const int gamma = cluster::SubsetDensity(net, members);
    const auto prof = cluster::Profile::Practical(spec.sinr.id_space);
    RunContext ctx{net,
                   ex,
                   prof,
                   std::move(members),
                   gamma,
                   spec.max_rounds,
                   seed,
                   spec.nonce.value_or(seed + 2),
                   spec.algo_params};
    const std::size_t n_members = ctx.members.size();

    const auto alg = Algorithms().Get(spec.algo)();
    RunReport algo_rep = alg->Run(ctx);
    ctx.params.CheckAllConsumed("algorithm '" + spec.algo + "'");

    rep.ok = algo_rep.ok;
    rep.error = std::move(algo_rep.error);
    rep.metrics.Set("n", static_cast<double>(net.size()));
    rep.metrics.Set("members", static_cast<double>(n_members));
    rep.metrics.Set("gamma", ctx.gamma);
    if (spec.faults > 0) rep.metrics.Set("faults", spec.faults);
    for (const auto& [key, value] : algo_rep.metrics.entries()) {
      rep.metrics.Set(key, value);
    }
    rep.metrics.Set("rounds_total", static_cast<double>(ex.rounds()));
    FillParallelSection(rep, ex.engine());
  } catch (const std::exception& e) {
    rep.ok = false;
    rep.error = e.what();
  }
  return rep;
}

std::vector<RunReport> RunSweep(const ScenarioSpec& spec) {
  DCC_REQUIRE(spec.sweep_key.empty() || !spec.sweep_values.empty(),
              "sweep: a swept key needs at least one value");
  // The grid, value-major: all seeds of the first swept value, then the
  // next value... (a pure seed sweep is a grid with one implicit value).
  struct Job {
    const std::string* value;  // null = no topology override
    std::uint64_t seed;
  };
  std::vector<Job> jobs;
  if (spec.sweep_key.empty()) {
    for (const std::uint64_t seed : spec.seeds) jobs.push_back({nullptr, seed});
  } else {
    for (const std::string& value : spec.sweep_values) {
      for (const std::uint64_t seed : spec.seeds) jobs.push_back({&value, seed});
    }
  }

  std::vector<RunReport> out(jobs.size());
  const auto run_job = [&](std::size_t i) {
    if (jobs[i].value) {
      ScenarioSpec pinned = spec;
      pinned.topology_params.Set(spec.sweep_key, *jobs[i].value);
      out[i] = RunScenario(pinned, jobs[i].seed);
    } else {
      out[i] = RunScenario(spec, jobs[i].seed);
    }
  };

  // One sized-once pool for the whole process: sweeps and the engine's
  // sharded rounds draw from the same threads instead of constructing and
  // tearing down a private pool per call. With more jobs than workers the
  // sweep occupies the pool and each run's engine executes serially
  // (nested Run calls go inline); a single-job "sweep" leaves the pool to
  // the engine.
  parallel::WorkerPool::Shared().Run(jobs.size(), run_job, spec.threads);
  return out;
}

}  // namespace dcc::scenario
