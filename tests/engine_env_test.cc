// Engine::Options::FromEnv — strict parsing of DCC_ENGINE_MODE /
// DCC_ENGINE_CELL / DCC_ENGINE_THREADS. Typos must reject, not silently
// fall back, and the removed DCC_ENGINE_FARFIELD / DCC_ENGINE_PROLOGUE_CACHE
// / DCC_ENGINE_MIN_SHARD knobs must reject rather than be ignored.
#include <gtest/gtest.h>

#include <cstdlib>

#include "dcc/sinr/engine.h"

namespace dcc::sinr {
namespace {

class EngineEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("DCC_ENGINE_MODE");
    unsetenv("DCC_ENGINE_CELL");
    unsetenv("DCC_ENGINE_THREADS");
    unsetenv("DCC_ENGINE_MIN_SHARD");
    unsetenv("DCC_ENGINE_FARFIELD");
    unsetenv("DCC_ENGINE_PROLOGUE_CACHE");
  }
};

TEST_F(EngineEnvTest, DefaultsWhenUnset) {
  const auto opts = Engine::Options::FromEnv();
  EXPECT_EQ(opts.mode, Engine::Mode::kAuto);
  EXPECT_EQ(opts.cell, 0.0);
  EXPECT_EQ(opts.threads, 1);
}

TEST_F(EngineEnvTest, ParsesEveryMode) {
  setenv("DCC_ENGINE_MODE", "exact", 1);
  EXPECT_EQ(Engine::Options::FromEnv().mode, Engine::Mode::kExact);
  setenv("DCC_ENGINE_MODE", "grid", 1);
  EXPECT_EQ(Engine::Options::FromEnv().mode, Engine::Mode::kGrid);
  setenv("DCC_ENGINE_MODE", "auto", 1);
  EXPECT_EQ(Engine::Options::FromEnv().mode, Engine::Mode::kAuto);
}

TEST_F(EngineEnvTest, ParsesCell) {
  setenv("DCC_ENGINE_CELL", "2.5", 1);
  EXPECT_DOUBLE_EQ(Engine::Options::FromEnv().cell, 2.5);
}

TEST_F(EngineEnvTest, RejectsModeTypos) {
  setenv("DCC_ENGINE_MODE", "gird", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
}

TEST_F(EngineEnvTest, RejectsMalformedCell) {
  setenv("DCC_ENGINE_CELL", "2.5x", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
  setenv("DCC_ENGINE_CELL", "-1", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
}

TEST_F(EngineEnvTest, ParsesThreads) {
  setenv("DCC_ENGINE_THREADS", "4", 1);
  EXPECT_EQ(Engine::Options::FromEnv().threads, 4);
  setenv("DCC_ENGINE_THREADS", "0", 1);  // 0 = hardware
  EXPECT_EQ(Engine::Options::FromEnv().threads, 0);
}

TEST_F(EngineEnvTest, RejectsMalformedThreads) {
  setenv("DCC_ENGINE_THREADS", "four", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
  setenv("DCC_ENGINE_THREADS", "-2", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
  setenv("DCC_ENGINE_THREADS", "8192", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
}

TEST_F(EngineEnvTest, RejectsRemovedFarfield) {
  // Pyramid vs flat walk is chosen per round by occupied-tile count; a
  // stale setting of the old knob must fail, whatever its value.
  setenv("DCC_ENGINE_FARFIELD", "flat", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
  setenv("DCC_ENGINE_FARFIELD", "pyramid", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
}

TEST_F(EngineEnvTest, RejectsRemovedPrologueCache) {
  setenv("DCC_ENGINE_PROLOGUE_CACHE", "8", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
  setenv("DCC_ENGINE_PROLOGUE_CACHE", "0", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
}

TEST_F(EngineEnvTest, RejectsRemovedMinShard) {
  // Whether a round shards is the engine's own |T|·|L| rule now; a stale
  // listener grain must fail rather than look honored.
  setenv("DCC_ENGINE_MIN_SHARD", "8", 1);
  EXPECT_THROW(Engine::Options::FromEnv(), InvalidArgument);
}

TEST_F(EngineEnvTest, EmptyValuesMeanUnset) {
  setenv("DCC_ENGINE_MODE", "", 1);
  setenv("DCC_ENGINE_CELL", "", 1);
  setenv("DCC_ENGINE_THREADS", "", 1);
  setenv("DCC_ENGINE_MIN_SHARD", "", 1);
  setenv("DCC_ENGINE_FARFIELD", "", 1);
  setenv("DCC_ENGINE_PROLOGUE_CACHE", "", 1);
  const auto opts = Engine::Options::FromEnv();
  EXPECT_EQ(opts.mode, Engine::Mode::kAuto);
  EXPECT_EQ(opts.cell, 0.0);
  EXPECT_EQ(opts.threads, 1);
}

}  // namespace
}  // namespace dcc::sinr
