#include "dcc/scenario/spec.h"

#include "dcc/common/json.h"
#include "dcc/common/parse.h"
#include "dcc/common/types.h"

namespace dcc::scenario {

namespace {

using dcc::ParseDouble;
using dcc::ParseInt64;
using dcc::ParseUint64;

// Splits "name[:k=v,...]" into the registry key and its ParamMap.
void ParseNamed(const std::string& text, const std::string& what,
                std::string* name, ParamMap* params) {
  const std::size_t colon = text.find(':');
  *name = text.substr(0, colon == std::string::npos ? text.size() : colon);
  if (name->empty()) throw InvalidArgument(what + ": empty name");
  *params = colon == std::string::npos
                ? ParamMap{}
                : ParamMap::Parse(text.substr(colon + 1), what);
}

std::string FormatSeeds(const std::vector<std::uint64_t>& seeds) {
  bool contiguous = seeds.size() > 1;
  for (std::size_t i = 1; contiguous && i < seeds.size(); ++i) {
    contiguous = seeds[i] == seeds[i - 1] + 1;
  }
  if (contiguous) {
    return std::to_string(seeds.front()) + ".." + std::to_string(seeds.back());
  }
  std::string out;
  for (const std::uint64_t s : seeds) {
    if (!out.empty()) out += ',';
    out += std::to_string(s);
  }
  return out;
}

}  // namespace

std::vector<std::uint64_t> ParseSeeds(const std::string& text) {
  const std::size_t dots = text.find("..");
  if (dots != std::string::npos) {
    const std::uint64_t lo = ParseUint64(text.substr(0, dots), "--seeds");
    const std::uint64_t hi = ParseUint64(text.substr(dots + 2), "--seeds");
    if (hi < lo) throw InvalidArgument("--seeds: empty range '" + text + "'");
    // Guards both runaway sweeps and the ++s wraparound at UINT64_MAX.
    constexpr std::uint64_t kMaxRange = 1u << 22;
    if (hi - lo >= kMaxRange) {
      throw InvalidArgument("--seeds: range '" + text + "' exceeds " +
                            std::to_string(kMaxRange) + " seeds");
    }
    std::vector<std::uint64_t> seeds;
    seeds.reserve(hi - lo + 1);
    for (std::uint64_t s = lo; s <= hi; ++s) seeds.push_back(s);
    return seeds;
  }
  std::vector<std::uint64_t> seeds;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    seeds.push_back(ParseUint64(text.substr(pos, comma - pos), "--seeds"));
    pos = comma + 1;
  }
  return seeds;
}

ScenarioSpec ScenarioSpec::FromArgs(const std::vector<std::string>& args) {
  ScenarioSpec spec;
  bool power_set = false;
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw InvalidArgument("scenario flag '" + arg +
                            "' is not of the form --key=value");
    }
    const std::string key = arg.substr(0, eq);
    const std::string val = arg.substr(eq + 1);
    if (key == "--topology") {
      ParseNamed(val, "--topology", &spec.topology, &spec.topology_params);
    } else if (key == "--algo") {
      ParseNamed(val, "--algo", &spec.algo, &spec.algo_params);
    } else if (key == "--seeds") {
      spec.seeds = ParseSeeds(val);
    } else if (key == "--sweep") {
      const std::size_t colon = val.find(':');
      if (colon == std::string::npos || colon == 0 || colon + 1 >= val.size()) {
        throw InvalidArgument("--sweep: expected key:v1,v2,... got '" + val +
                              "'");
      }
      spec.sweep_key = val.substr(0, colon);
      spec.sweep_values.clear();
      std::size_t pos = colon + 1;
      while (pos <= val.size()) {
        std::size_t comma = val.find(',', pos);
        if (comma == std::string::npos) comma = val.size();
        if (comma == pos) throw InvalidArgument("--sweep: empty value");
        spec.sweep_values.push_back(val.substr(pos, comma - pos));
        pos = comma + 1;
      }
    } else if (key == "--dynamics") {
      spec.dynamics = ParamMap::Parse(val, "--dynamics");
      if (spec.dynamics.empty()) {
        throw InvalidArgument("--dynamics: expected k=v,... (e.g. "
                              "model=waypoint,epochs=8)");
      }
    } else if (key == "--id-seed") {
      spec.id_seed = ParseUint64(val, key);
    } else if (key == "--nonce") {
      spec.nonce = ParseUint64(val, key);
    } else if (key == "--alpha") {
      spec.sinr.alpha = ParseDouble(val, key);
    } else if (key == "--beta") {
      spec.sinr.beta = ParseDouble(val, key);
    } else if (key == "--eps") {
      spec.sinr.eps = ParseDouble(val, key);
    } else if (key == "--noise") {
      spec.sinr.noise = ParseDouble(val, key);
    } else if (key == "--power") {
      spec.sinr.power = ParseDouble(val, key);
      power_set = true;
    } else if (key == "--id-space") {
      spec.sinr.id_space = ParseInt64(val, key);
    } else if (key == "--shadowing") {
      const std::size_t colon = val.find(':');
      spec.shadowing.spread =
          ParseDouble(val.substr(0, colon == std::string::npos ? val.size()
                                                               : colon),
                      key);
      spec.shadowing.seed =
          colon == std::string::npos ? 0 : ParseUint64(val.substr(colon + 1), key);
    } else if (key == "--engine") {
      if (val == "auto") {
        spec.engine.mode = sinr::Engine::Mode::kAuto;
      } else if (val == "exact") {
        spec.engine.mode = sinr::Engine::Mode::kExact;
      } else if (val == "grid") {
        spec.engine.mode = sinr::Engine::Mode::kGrid;
      } else {
        throw InvalidArgument("--engine: unknown mode '" + val +
                              "' (expected exact, grid or auto)");
      }
    } else if (key == "--cell") {
      spec.engine.cell = ParseDouble(val, key);
      if (!(spec.engine.cell > 0.0)) {
        throw InvalidArgument("--cell: tile side must be positive");
      }
    } else if (key == "--grid-threshold") {
      spec.engine.grid_threshold =
          static_cast<std::size_t>(ParseUint64(val, key));
    } else if (key == "--rounds") {
      spec.max_rounds = ParseInt64(val, key);
    } else if (key == "--faults") {
      spec.faults = static_cast<int>(ParseInt64(val, key));
      if (spec.faults < 0) throw InvalidArgument("--faults: must be >= 0");
    } else if (key == "--threads") {
      spec.threads = static_cast<int>(ParseInt64(val, key));
      // Same bounds as DCC_ENGINE_THREADS: the value becomes the engine's
      // shard count, and grid-mode scratch scales with shards x tiles — an
      // absurd value must fail validation, not allocation.
      if (spec.threads < 0 || spec.threads > 4096) {
        throw InvalidArgument("--threads: shard count '" + val +
                              "' must be in [0, 4096] (0 = hardware)");
      }
      // One knob, both layers: sweep workers AND engine round shards. The
      // shared WorkerPool arbitrates — nested engine fan-outs publish
      // tickets idle workers steal, so the tail of a sweep donates its
      // freed threads to the runs still going.
      spec.engine.threads = spec.threads;
    } else {
      throw InvalidArgument("unknown scenario flag '" + key + "'");
    }
  }
  if (spec.seeds.empty()) throw InvalidArgument("--seeds: empty seed list");
  // The paper normalizes range to 1 via P = noise * beta; keep the coupling
  // unless the power was pinned explicitly.
  if (!power_set) spec.sinr.power = spec.sinr.noise * spec.sinr.beta;
  return spec;
}

std::vector<std::string> ScenarioSpec::ToArgs() const {
  const sinr::Params def = sinr::Params::Default();
  std::vector<std::string> args;
  std::string topo = "--topology=" + topology;
  if (!topology_params.empty()) topo += ':' + topology_params.ToString();
  args.push_back(topo);
  std::string alg = "--algo=" + algo;
  if (!algo_params.empty()) alg += ':' + algo_params.ToString();
  args.push_back(alg);
  args.push_back("--seeds=" + FormatSeeds(seeds));
  if (!sweep_key.empty()) {
    std::string sw = "--sweep=" + sweep_key + ':';
    for (std::size_t i = 0; i < sweep_values.size(); ++i) {
      if (i) sw += ',';
      sw += sweep_values[i];
    }
    args.push_back(sw);
  }
  if (!dynamics.empty()) args.push_back("--dynamics=" + dynamics.ToString());
  if (id_seed) args.push_back("--id-seed=" + std::to_string(*id_seed));
  if (nonce) args.push_back("--nonce=" + std::to_string(*nonce));
  if (sinr.alpha != def.alpha) {
    args.push_back("--alpha=" + JsonNumber(sinr.alpha));
  }
  if (sinr.beta != def.beta) args.push_back("--beta=" + JsonNumber(sinr.beta));
  if (sinr.eps != def.eps) args.push_back("--eps=" + JsonNumber(sinr.eps));
  if (sinr.noise != def.noise) {
    args.push_back("--noise=" + JsonNumber(sinr.noise));
  }
  if (sinr.power != sinr.noise * sinr.beta) {
    args.push_back("--power=" + JsonNumber(sinr.power));
  }
  if (sinr.id_space != def.id_space) {
    args.push_back("--id-space=" + std::to_string(sinr.id_space));
  }
  if (shadowing.spread != 0.0) {
    std::string sh = "--shadowing=" + JsonNumber(shadowing.spread);
    if (shadowing.seed != 0) sh += ':' + std::to_string(shadowing.seed);
    args.push_back(sh);
  }
  if (engine.mode == sinr::Engine::Mode::kExact) {
    args.push_back("--engine=exact");
  } else if (engine.mode == sinr::Engine::Mode::kGrid) {
    args.push_back("--engine=grid");
  }
  if (engine.cell != 0.0) args.push_back("--cell=" + JsonNumber(engine.cell));
  if (engine.grid_threshold != sinr::Engine::Options{}.grid_threshold) {
    args.push_back("--grid-threshold=" +
                   std::to_string(engine.grid_threshold));
  }
  if (max_rounds != 0) args.push_back("--rounds=" + std::to_string(max_rounds));
  if (faults != 0) args.push_back("--faults=" + std::to_string(faults));
  if (threads != 0) args.push_back("--threads=" + std::to_string(threads));
  return args;
}

std::string ScenarioSpec::ToString() const {
  std::string out;
  for (const std::string& arg : ToArgs()) {
    if (!out.empty()) out += ' ';
    out += arg;
  }
  return out;
}

std::string ScenarioSpec::CanonicalKey() const {
  ScenarioSpec sorted = *this;
  sorted.topology_params = topology_params.Sorted();
  sorted.algo_params = algo_params.Sorted();
  sorted.dynamics = dynamics.Sorted();
  return sorted.ToString();
}

}  // namespace dcc::scenario
