#include "dcc/scenario/scenario.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dcc::scenario {
namespace {

// --- ParamMap ---------------------------------------------------------------

TEST(ParamMapTest, ParsesAndReadsTypedValues) {
  const ParamMap p = ParamMap::Parse("n=128,side=4.5,name=ring", "test");
  EXPECT_EQ(p.GetInt("n", 0), 128);
  EXPECT_DOUBLE_EQ(p.GetDouble("side", 0.0), 4.5);
  EXPECT_EQ(p.GetString("name", ""), "ring");
  EXPECT_EQ(p.GetInt("absent", 7), 7);
  EXPECT_NO_THROW(p.CheckAllConsumed("test"));
}

TEST(ParamMapTest, MalformedItemsThrow) {
  EXPECT_THROW(ParamMap::Parse("n", "test"), InvalidArgument);
  EXPECT_THROW(ParamMap::Parse("=3", "test"), InvalidArgument);
  const ParamMap p = ParamMap::Parse("n=abc", "test");
  EXPECT_THROW(p.GetInt("n", 0), InvalidArgument);
  EXPECT_THROW(p.GetDouble("n", 0.0), InvalidArgument);
}

TEST(ParamMapTest, UnconsumedKeysAreReported) {
  const ParamMap p = ParamMap::Parse("n=1,sdie=4", "test");
  (void)p.GetInt("n", 0);
  try {
    p.CheckAllConsumed("topology 'uniform'");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("sdie"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("uniform"), std::string::npos);
  }
}

TEST(ParamMapTest, RoundTripsThroughString) {
  const ParamMap p = ParamMap::Parse("b=2,a=1", "test");
  EXPECT_EQ(p.ToString(), "b=2,a=1");  // insertion order preserved
  EXPECT_EQ(ParamMap::Parse(p.ToString(), "test"), p);
}

// --- Seeds ------------------------------------------------------------------

TEST(ParseSeedsTest, RangeListAndSingle) {
  EXPECT_EQ(ParseSeeds("7"), (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(ParseSeeds("1..4"), (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(ParseSeeds("1,5,9"), (std::vector<std::uint64_t>{1, 5, 9}));
  EXPECT_THROW(ParseSeeds("8..1"), InvalidArgument);
  EXPECT_THROW(ParseSeeds("x"), InvalidArgument);
  EXPECT_THROW(ParseSeeds(""), InvalidArgument);
  EXPECT_THROW(ParseSeeds("-1"), InvalidArgument);  // no strtoull wraparound
  EXPECT_THROW(ParseSeeds("99999999999999999999"), InvalidArgument);
  // Oversized ranges reject instead of allocating (or wrapping at 2^64-1).
  EXPECT_THROW(ParseSeeds("0..18446744073709551615"), InvalidArgument);
  EXPECT_THROW(ParseSeeds("1..5000000"), InvalidArgument);
}

// --- ScenarioSpec -----------------------------------------------------------

TEST(ScenarioSpecTest, DefaultSpecRoundTrips) {
  const ScenarioSpec spec;
  EXPECT_EQ(ScenarioSpec::FromArgs(spec.ToArgs()), spec);
  EXPECT_EQ(spec.ToString(),
            "--topology=uniform --algo=clustering --seeds=1");
}

TEST(ScenarioSpecTest, FullyCustomizedSpecRoundTrips) {
  ScenarioSpec spec;
  spec.topology = "blob_chain";
  spec.topology_params.Set("blobs", "4");
  spec.topology_params.Set("sigma", "0.25");
  spec.algo = "global_broadcast";
  spec.algo_params.Set("max_phases", "9");
  spec.seeds = {3, 4, 5, 6};
  spec.id_seed = 11;
  spec.nonce = 13;
  spec.sinr = sinr::Params::Default(3.5, 2.0, 0.25);
  spec.sinr.id_space = 1 << 20;
  spec.shadowing.spread = 0.1;
  spec.shadowing.seed = 99;
  spec.engine.mode = sinr::Engine::Mode::kGrid;
  spec.engine.cell = 2.5;
  spec.engine.grid_threshold = 512;
  spec.max_rounds = 5000;
  spec.faults = 2;
  spec.threads = 3;
  const ScenarioSpec parsed = ScenarioSpec::FromArgs(spec.ToArgs());
  EXPECT_EQ(parsed, spec);
  EXPECT_EQ(parsed.seeds, spec.seeds);
  EXPECT_EQ(parsed.topology_params, spec.topology_params);
  EXPECT_DOUBLE_EQ(parsed.sinr.beta, 2.0);
  EXPECT_DOUBLE_EQ(parsed.sinr.power, 2.0);  // power = noise * beta coupling
  EXPECT_EQ(parsed.engine.mode, sinr::Engine::Mode::kGrid);
  EXPECT_EQ(parsed.engine.grid_threshold, 512u);
}

TEST(ScenarioSpecTest, RejectsUnknownOrMalformedFlags) {
  EXPECT_THROW(ScenarioSpec::FromArgs({"--tpology=uniform"}), InvalidArgument);
  EXPECT_THROW(ScenarioSpec::FromArgs({"not-a-flag"}), InvalidArgument);
  EXPECT_THROW(ScenarioSpec::FromArgs({"--engine=fast"}), InvalidArgument);
  EXPECT_THROW(ScenarioSpec::FromArgs({"--cell=-1"}), InvalidArgument);
  EXPECT_THROW(ScenarioSpec::FromArgs({"--seeds="}), InvalidArgument);
  // Removed knobs (engine tuning flags and the rank-per-process mode) fail
  // loudly instead of being silently ignored, whatever their value.
  for (const char* removed : {"pipeline=on", "prologue-cache=8",
                              "farfield=flat", "ranks=0", "ranks=2"}) {
    EXPECT_THROW(ScenarioSpec::FromArgs({std::string("--") + removed}),
                 InvalidArgument)
        << removed;
  }
}

// --- Registries -------------------------------------------------------------

TEST(RegistryTest, UnknownNamesListEverythingRegistered) {
  try {
    Topologies().Get("unifrom");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unifrom"), std::string::npos);
    for (const auto& [name, help] : Topologies().List()) {
      EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
  }
  try {
    Algorithms().Get("clusterng");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("clustering"), std::string::npos);
    EXPECT_NE(msg.find("local_broadcast"), std::string::npos);
  }
}

TEST(RegistryTest, AllWorkloadGeneratorsAreRegistered) {
  for (const char* name :
       {"uniform", "connected_uniform", "blob_chain", "grid", "line", "ring",
        "corridor", "two_scale", "star"}) {
    EXPECT_NO_THROW(Topologies().Get(name)) << name;
  }
}

// --- RunScenario ------------------------------------------------------------

ScenarioSpec TinyClusteringSpec() {
  ScenarioSpec spec;
  spec.topology_params.Set("n", "40");
  spec.topology_params.Set("side", "4");
  spec.sinr.id_space = 1 << 10;
  return spec;
}

TEST(RunScenarioTest, ClusteringRunValidates) {
  const RunReport rep = RunScenario(TinyClusteringSpec(), 1);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.topology, "uniform");
  EXPECT_EQ(rep.algo, "clustering");
  EXPECT_EQ(rep.metrics.Get("n"), 40);
  EXPECT_EQ(rep.metrics.Get("unassigned"), 0);
  EXPECT_GT(rep.metrics.Get("rounds"), 0);
  EXPECT_GE(rep.metrics.Get("rounds_total"), rep.metrics.Get("rounds"));
}

TEST(RunScenarioTest, ErrorsAreCapturedNotThrown) {
  ScenarioSpec spec = TinyClusteringSpec();
  spec.topology = "no_such_topology";
  const RunReport rep = RunScenario(spec, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("no_such_topology"), std::string::npos);
}

TEST(RunScenarioTest, UnknownTopologyParameterFailsTheRun) {
  ScenarioSpec spec = TinyClusteringSpec();
  spec.topology_params.Set("sid", "4");  // typo for "side"
  const RunReport rep = RunScenario(spec, 1);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("sid"), std::string::npos);
}

TEST(RunScenarioTest, FaultInjectionExcludesJammersFromMembers) {
  ScenarioSpec spec = TinyClusteringSpec();
  spec.faults = 3;
  const RunReport rep = RunScenario(spec, 5);
  EXPECT_EQ(rep.metrics.Get("n"), 40);
  EXPECT_EQ(rep.metrics.Get("members"), 37);
  EXPECT_EQ(rep.metrics.Get("faults"), 3);
}

TEST(RunScenarioTest, RunsAreDeterministic) {
  const RunReport a = RunScenario(TinyClusteringSpec(), 3);
  const RunReport b = RunScenario(TinyClusteringSpec(), 3);
  std::ostringstream ja, jb;
  a.PrintJson(ja);
  b.PrintJson(jb);
  EXPECT_EQ(ja.str(), jb.str());
}

// --- RunSweep ---------------------------------------------------------------

// Runs only (the spec line would differ by --threads, which must not
// affect results).
std::string SweepJson(const ScenarioSpec& spec) {
  std::ostringstream os;
  PrintSweepJson(os, "spec", RunSweep(spec));
  return os.str();
}

TEST(RunSweepTest, ParallelSweepEqualsSerialExecution) {
  ScenarioSpec spec = TinyClusteringSpec();
  spec.seeds = {1, 2, 3, 4};
  spec.threads = 1;
  const std::string serial = SweepJson(spec);
  spec.threads = 4;
  const std::string parallel = SweepJson(spec);
  EXPECT_EQ(serial, parallel);
  // And deterministic across repetitions.
  EXPECT_EQ(parallel, SweepJson(spec));
}

TEST(RunSweepTest, SizeGridCrossesValuesWithSeeds) {
  ScenarioSpec spec = TinyClusteringSpec();
  spec.seeds = {1, 2};
  spec.sweep_key = "n";
  spec.sweep_values = {"20", "30"};
  spec.threads = 4;
  const auto runs = RunSweep(spec);
  ASSERT_EQ(runs.size(), 4u);  // value-major: (20,1) (20,2) (30,1) (30,2)
  EXPECT_EQ(runs[0].metrics.Get("n"), 20);
  EXPECT_EQ(runs[1].metrics.Get("n"), 20);
  EXPECT_EQ(runs[2].metrics.Get("n"), 30);
  EXPECT_EQ(runs[3].metrics.Get("n"), 30);
  EXPECT_EQ(runs[0].seed, 1u);
  EXPECT_EQ(runs[1].seed, 2u);
}

TEST(ScenarioSpecTest, SweepFlagRoundTrips) {
  ScenarioSpec spec;
  spec.sweep_key = "n";
  spec.sweep_values = {"64", "128"};
  EXPECT_NE(spec.ToString().find("--sweep=n:64,128"), std::string::npos);
  EXPECT_EQ(ScenarioSpec::FromArgs(spec.ToArgs()), spec);
  EXPECT_THROW(ScenarioSpec::FromArgs({"--sweep=n"}), InvalidArgument);
  EXPECT_THROW(ScenarioSpec::FromArgs({"--sweep=:1,2"}), InvalidArgument);
}

TEST(RunSweepTest, ReportsComeBackInSeedOrder) {
  ScenarioSpec spec = TinyClusteringSpec();
  spec.seeds = {9, 2, 7, 4};
  spec.threads = 4;
  const auto runs = RunSweep(spec);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].seed, 9u);
  EXPECT_EQ(runs[1].seed, 2u);
  EXPECT_EQ(runs[2].seed, 7u);
  EXPECT_EQ(runs[3].seed, 4u);
}

// --- Report JSON ------------------------------------------------------------

TEST(RunReportTest, JsonIsSchemaStable) {
  RunReport rep;
  rep.topology = "uniform";
  rep.algo = "clustering";
  rep.seed = 7;
  rep.ok = true;
  rep.metrics.Set("rounds", 42);
  rep.metrics.Set("max_radius", 0.5);
  std::ostringstream os;
  rep.PrintJson(os);
  EXPECT_EQ(os.str(),
            "{\"schema\": \"dcc.run_report.v1\", \"topology\": \"uniform\", "
            "\"algo\": \"clustering\", \"seed\": 7, \"ok\": true, "
            "\"metrics\": {\"rounds\": 42, \"max_radius\": 0.5}}");
}

}  // namespace
}  // namespace dcc::scenario
