// Exact goldens for whole scenario runs: each pinned (topology, algorithm,
// seed) must reproduce its validator verdict, its total round count and the
// FNV-1a hash of its serial RunReport JSON bytes. Every value here is a
// pure function of (spec, seed), so any change is either a deliberate
// golden bump (stated in CHANGES.md) or a behaviour regression.
//
// `sns` over the dense uniform spec reports ok=false by design: the SNS
// guarantee holds only for constant-density participant sets, and the
// scenario's validator measures coverage over every member.
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "dcc/scenario/scenario.h"

namespace dcc::scenario {
namespace {

struct Golden {
  const char* topology;
  const char* algo;
  std::uint64_t seed;
  bool ok;
  std::int64_t rounds_total;
  std::uint64_t json_fnv1a;
};

constexpr const char* kUniform = "uniform:n=64,side=3";
constexpr const char* kBlobChain = "blob_chain:blobs=3,per_blob=8";
constexpr const char* kConnected = "connected_uniform:n=64,side=4";

std::uint64_t Fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

const Golden kGoldens[] = {
    // clang-format off
    {kUniform,   "clustering", 1, true, 687152, 0x1fa95f6d1f9a62c4ull},
    {kUniform,   "clustering", 2, true, 688146, 0xc3b762df9b2ac990ull},
    {kUniform,   "clustering", 3, true, 733942, 0xb2cef144837fe944ull},
    {kBlobChain, "clustering", 1, true, 534904, 0x5258b0d0b4d1b3d0ull},
    {kBlobChain, "clustering", 2, true, 499006, 0x20e9888a7f60f66cull},
    {kBlobChain, "clustering", 3, true, 510928, 0x963af6cbee7796adull},
    {kUniform,   "local_broadcast", 1, true, 891740, 0xe8981715f31f5ff3ull},
    {kUniform,   "local_broadcast", 2, true, 906852, 0x5eb58807b04f90a3ull},
    {kUniform,   "local_broadcast", 3, true, 909848, 0x89969aca26cbdd34ull},
    {kBlobChain, "local_broadcast", 1, true, 665170, 0x4e05dc0753a50235ull},
    {kBlobChain, "local_broadcast", 2, true, 627406, 0x8863f0426da147c6ull},
    {kBlobChain, "local_broadcast", 3, true, 658598, 0x8a573c22619c949full},
    {kUniform,   "sns", 1, false, 710, 0x87664d3f8a79b09aull},
    {kUniform,   "sns", 2, false, 710, 0x359e28ac895fe192ull},
    {kUniform,   "sns", 3, false, 710, 0xcfce15b119b9c24cull},
    {kBlobChain, "sns", 1, true, 710, 0x5dde9dfd8d887a03ull},
    {kBlobChain, "sns", 2, true, 710, 0x856751e8c4afcf8aull},
    {kBlobChain, "sns", 3, true, 710, 0x4ef213e136d4076dull},
    {kConnected, "global_broadcast", 1, true, 730804, 0x31d2c8c690314ad4ull},
    {kConnected, "global_broadcast", 2, true, 896324, 0x4c6a04b18b8441bbull},
    {kConnected, "global_broadcast", 3, true, 819690, 0xbf7218867f8677afull},
    // clang-format on
};

// Runs every row whose algorithm is `algo` and compares it to the pin. A
// mismatch prints the whole observed row, ready to paste as a golden bump.
void CheckGoldens(const std::string& algo) {
  int rows = 0;
  for (const Golden& g : kGoldens) {
    if (algo != g.algo) continue;
    ++rows;
    const ScenarioSpec spec = ScenarioSpec::FromArgs(
        {std::string("--topology=") + g.topology, "--algo=" + algo});
    const RunReport rep = RunScenario(spec, g.seed);
    std::ostringstream json;
    rep.PrintJson(json);
    const auto rounds =
        static_cast<std::int64_t>(rep.metrics.Get("rounds_total"));
    const std::uint64_t hash = Fnv1a(json.str());
    EXPECT_TRUE(rep.ok == g.ok && rounds == g.rounds_total &&
                hash == g.json_fnv1a)
        << "observed {\"" << g.topology << "\", \"" << algo << "\", "
        << g.seed << ", " << (rep.ok ? "true" : "false") << ", " << rounds
        << ", 0x" << std::hex << hash << std::dec << "ull}\n"
        << json.str();
  }
  EXPECT_GT(rows, 0) << "no goldens for " << algo;
}

TEST(GoldenTest, Clustering) { CheckGoldens("clustering"); }
TEST(GoldenTest, LocalBroadcast) { CheckGoldens("local_broadcast"); }
TEST(GoldenTest, Sns) { CheckGoldens("sns"); }
TEST(GoldenTest, GlobalBroadcast) { CheckGoldens("global_broadcast"); }

}  // namespace
}  // namespace dcc::scenario
