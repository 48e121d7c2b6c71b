// Serial-equivalence oracle harness for the in-process execution knobs:
// every configuration runs the same round schedule through
//   * serial kExact            — the semantic oracle,
//   * serial kGrid             — the bit-identity reference,
//   * kGrid with 4 threads     — the sharded fan-out on the worker pool,
// and asserts the reception streams agree:
//   * serial and threaded kGrid must be BYTE-identical — same order, same
//     (listener, sender), and bit-equal SINR doubles. Every shard resolves
//     its listeners against the full shared transmitter index, so
//     per-listener resolution is the same arithmetic on the same bits, and
//     the ordinal-ordered merge restores the serial emission order
//     (docs/ARCHITECTURE.md, parallel layer).
//   * against kExact the grid streams match as a set on (listener, sender)
//     with SINR agreement to >= 9 significant digits (the two strategies
//     sum interference in different associations; see the engine header).
//     kExact vs kGrid is NOT bit-identical by design, so the oracle check
//     is set-identity + tolerance, never byte equality.
//
// Configurations cover mobility (per-round jitter), churn (index
// erase/insert mid-schedule), shadowing (the non-pure propagation model,
// which resolves fallbacks with the scalar kernel), and jammer fault
// injection (fixed extra transmitters every round).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "dcc/common/rng.h"
#include "dcc/scenario/scenario.h"
#include "dcc/sinr/engine.h"

namespace dcc {
namespace {

using scenario::ScenarioSpec;
using sinr::Engine;
using sinr::Reception;

struct Config {
  std::string name;
  std::vector<std::string> args;  // ScenarioSpec flags (network recipe)
  std::uint64_t seed = 1;
  int jammers = 0;    // fixed extra transmitters, every round
  bool dynamic = false;  // per-round jitter + churn at rounds 4/8
};

std::vector<Config> Configs() {
  const std::string topo = "--topology=uniform:n=600,side=14";
  return {
      {"static", {topo}, 7, 0, false},
      {"shadowing", {topo, "--shadowing=0.5:7"}, 11, 0, false},
      {"jammers", {topo}, 13, 8, false},
      {"mobility_churn", {topo, "--shadowing=0.3:3"}, 17, 4, true},
  };
}

constexpr double kSide = 14.0;
constexpr double kCell = 1.5;
constexpr int kRounds = 12;
constexpr std::size_t kChurnNode = 17;

// Deterministic per-round transmitter choice (~1/8 of the live nodes).
bool Transmits(std::uint64_t seed, int round, std::size_t i) {
  return HashCombine(HashCombine(seed, static_cast<std::uint64_t>(round)),
                     static_cast<std::uint64_t>(i)) %
             8 ==
         0;
}

void ExpectByteIdentical(const std::string& label,
                         const std::vector<Reception>& ref,
                         const std::vector<Reception>& got, int round) {
  ASSERT_EQ(ref.size(), got.size()) << label << " round " << round;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].listener, got[i].listener)
        << label << " round " << round << " entry " << i;
    ASSERT_EQ(ref[i].sender, got[i].sender)
        << label << " round " << round << " entry " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ref[i].sinr),
              std::bit_cast<std::uint64_t>(got[i].sinr))
        << label << " round " << round << " entry " << i
        << ": SINR bits differ (" << ref[i].sinr << " vs " << got[i].sinr
        << ")";
  }
}

// Oracle comparison: same (listener, sender) set, SINR to >= 9 significant
// digits. Both streams emit in ascending-listener order here (the listener
// span is ascending and at most one sender can clear beta per listener),
// so positional comparison doubles as the set check.
void ExpectOracleMatch(const std::string& label,
                       const std::vector<Reception>& oracle,
                       const std::vector<Reception>& got, int round) {
  ASSERT_EQ(oracle.size(), got.size()) << label << " round " << round;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    ASSERT_EQ(oracle[i].listener, got[i].listener)
        << label << " round " << round << " entry " << i;
    ASSERT_EQ(oracle[i].sender, got[i].sender)
        << label << " round " << round << " entry " << i;
    ASSERT_NEAR(got[i].sinr / oracle[i].sinr, 1.0, 1e-8)
        << label << " round " << round << " entry " << i;
  }
}

void RunConfig(const Config& cfg) {
  SCOPED_TRACE(cfg.name);
  const ScenarioSpec spec = ScenarioSpec::FromArgs(cfg.args);
  sinr::Network net = scenario::BuildScenarioNetwork(spec, cfg.seed);
  const std::size_t n = net.size();

  Engine::Options exact;
  exact.mode = Engine::Mode::kExact;
  Engine::Options grid;
  grid.mode = Engine::Mode::kGrid;
  grid.cell = kCell;
  if (cfg.dynamic) grid.coverage = Box{{0.0, 0.0}, {kSide, kSide}};
  Engine::Options grid4 = grid;
  grid4.threads = 4;

  Engine oracle(net, exact);
  Engine serial(net, grid);
  Engine threaded(net, grid4);
  Engine* const engines[] = {&serial, &threaded};

  // Fixed jammers: always-on extra transmitters, never the churn node.
  std::vector<std::size_t> jammers;
  for (std::size_t i = 0; jammers.size() < static_cast<std::size_t>(cfg.jammers);
       i += 37) {
    if (i != kChurnNode && i < n) jammers.push_back(i);
  }

  std::vector<char> live(n, 1);
  std::vector<Vec2> pos = net.positions();
  std::vector<Reception> out_oracle, out_ref, out;

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    if (cfg.dynamic) {
      if (round > 0) {
        // Deterministic jitter, clamped inside the coverage box.
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t h = HashCombine(
              HashCombine(cfg.seed ^ 0xD17Eull, round), i);
          const double dx = (static_cast<double>(h % 1000) / 999.0 - 0.5) * 0.3;
          const double dy =
              (static_cast<double>((h >> 20) % 1000) / 999.0 - 0.5) * 0.3;
          pos[i].x = std::clamp(pos[i].x + dx, 0.05, kSide - 0.05);
          pos[i].y = std::clamp(pos[i].y + dy, 0.05, kSide - 0.05);
        }
        net.SetPositions(pos);
        for (Engine* e : engines) e->SyncIndex();
      }
      if (round == 4) {
        live[kChurnNode] = 0;
        for (Engine* e : engines) e->IndexErase(kChurnNode);
      }
      if (round == 8) {
        live[kChurnNode] = 1;
        for (Engine* e : engines) e->IndexInsert(kChurnNode);
      }
    }

    std::vector<std::size_t> tx;
    std::vector<char> is_tx(n, 0);
    for (const std::size_t j : jammers) {
      if (live[j]) {
        tx.push_back(j);
        is_tx[j] = 1;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i] && !is_tx[i] && Transmits(cfg.seed, round, i)) {
        tx.push_back(i);
        is_tx[i] = 1;
      }
    }
    std::sort(tx.begin(), tx.end());
    std::vector<std::size_t> listeners;
    for (std::size_t i = 0; i < n; ++i) {
      if (live[i] && !is_tx[i]) listeners.push_back(i);
    }
    ASSERT_FALSE(tx.empty());

    oracle.StepInto(tx, listeners, out_oracle);
    serial.StepInto(tx, listeners, out_ref);
    ASSERT_GT(out_ref.size(), 0u);
    ExpectOracleMatch("grid-serial", out_oracle, out_ref, round);
    threaded.StepInto(tx, listeners, out);
    ExpectByteIdentical("grid-threads4", out_ref, out, round);
  }
}

TEST(StreamEquivalence, Static) { RunConfig(Configs()[0]); }
TEST(StreamEquivalence, Shadowing) { RunConfig(Configs()[1]); }
TEST(StreamEquivalence, Jammers) { RunConfig(Configs()[2]); }
TEST(StreamEquivalence, MobilityChurn) { RunConfig(Configs()[3]); }

}  // namespace
}  // namespace dcc
