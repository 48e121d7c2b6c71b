// The parallel sharded round engine must be invisible except for speed:
// receptions (listener, sender AND every SINR bit) are pinned identical to
// serial execution across thread counts, engine modes, propagation models,
// and moving/churning networks. Also covers the WorkerPool's fan-out
// semantics (ShardPlan's cut invariants live in shard_plan_test.cc).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dcc/common/rng.h"
#include "dcc/parallel/worker_pool.h"
#include "dcc/scenario/scenario.h"
#include "dcc/sinr/engine.h"
#include "dcc/sinr/network.h"
#include "dcc/workload/generators.h"

namespace dcc {
namespace {

using parallel::WorkerPool;
using sinr::Engine;
using sinr::Network;
using sinr::Params;
using sinr::Reception;
using sinr::Shadowing;

// --- WorkerPool -------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryJobExactlyOnce) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.Run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "job " << i;
  }
}

TEST(WorkerPoolTest, ZeroWorkerPoolRunsInline) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.parallelism(), 1);
  std::vector<int> hits(16, 0);
  const auto caller = std::this_thread::get_id();
  pool.Run(hits.size(), [&](std::size_t i) {
    hits[i] = std::this_thread::get_id() == caller ? 1 : -1;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(WorkerPoolTest, NestedRunKeepsExactlyOnceSemantics) {
  WorkerPool pool(2);
  std::vector<std::atomic<int>> hits(4 * 8);
  for (auto& h : hits) h = 0;
  pool.Run(4, [&](std::size_t outer) {
    // A job calling back into its own pool must not deadlock. The inner
    // fan-out joins the pool's list — idle workers may help — and the
    // calling thread drains it until it completes. Every inner job still
    // runs exactly once.
    pool.Run(8, [&](std::size_t inner) { ++hits[outer * 8 + inner]; });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "job " << i;
  }
}

TEST(WorkerPoolTest, NestedRunFromEveryWorkerStress) {
  // Three levels of nesting from every participant at once: fan-outs are
  // listed, joined and unlinked concurrently. Run under TSan in CI; the
  // assertion here is exactly-once completion, the sanitizer checks the
  // rest.
  WorkerPool pool(4);
  constexpr std::size_t kOuter = 4, kMid = 4, kInner = 8;
  for (int iter = 0; iter < 8; ++iter) {
    std::vector<std::atomic<int>> hits(kOuter * kMid * kInner);
    for (auto& h : hits) h = 0;
    pool.Run(kOuter, [&](std::size_t o) {
      pool.Run(kMid, [&](std::size_t m) {
        pool.Run(kInner, [&](std::size_t i) {
          ++hits[(o * kMid + m) * kInner + i];
        });
      });
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i], 1) << "iter " << iter << " job " << i;
    }
  }
}

TEST(WorkerPoolTest, MaxWorkersCapsParticipants) {
  WorkerPool pool(3);
  std::vector<std::thread::id> by_job(64);
  pool.Run(by_job.size(),
           [&](std::size_t i) { by_job[i] = std::this_thread::get_id(); }, 2);
  const std::set<std::thread::id> distinct(by_job.begin(), by_job.end());
  EXPECT_LE(distinct.size(), 2u);
}

TEST(WorkerPoolTest, FirstJobExceptionPropagatesAndPoolSurvives) {
  WorkerPool pool(2);
  EXPECT_THROW(
      pool.Run(32,
               [&](std::size_t i) {
                 if (i == 7) throw InvalidArgument("job 7 failed");
               }),
      InvalidArgument);
  // The pool stays usable after a failed fan-out.
  std::atomic<int> done{0};
  pool.Run(8, [&](std::size_t) { ++done; });
  EXPECT_EQ(done, 8);
}

TEST(WorkerPoolTest, SharedPoolIsOneInstance) {
  WorkerPool& a = WorkerPool::Shared();
  WorkerPool& b = WorkerPool::Shared();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.parallelism(), 1);
}

TEST(WorkerPoolTest, ConcurrentTopLevelRunsFromForeignThreads) {
  // The service's path: many connection threads, none of them pool
  // workers, each fanning out (an engine round) with nested fan-outs
  // inside. Every fan-out shares the one list of open fan-outs; the
  // assertion is exactly-once completion, TSan in CI checks the rest.
  WorkerPool pool(3);
  constexpr std::size_t kThreads = 8, kRuns = 200, kOuter = 3, kInner = 4;
  std::vector<std::atomic<int>> hits(kThreads * kRuns * kOuter * kInner);
  for (auto& h : hits) h = 0;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRuns; ++r) {
        pool.Run(kOuter, [&](std::size_t o) {
          pool.Run(kInner, [&](std::size_t i) {
            ++hits[((t * kRuns + r) * kOuter + o) * kInner + i];
          });
        });
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "job " << i;
  }
}

// --- Engine: parallel == serial, bit for bit --------------------------------

// The engine's dispatch rule (engine.cc): a round shards iff threads > 1 and
// it has at least this many (transmitter, listener) pairs. Mirrored here to
// size the fixtures below so their rounds clear it; the boundary tests pin
// the value, so the two cannot drift apart silently.
constexpr std::size_t kMinShardPairs = std::size_t{1} << 15;

void SplitTxListeners(std::size_t n, int period, std::vector<std::size_t>& tx,
                      std::vector<std::size_t>& listeners) {
  tx.clear();
  listeners.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (i % static_cast<std::size_t>(period) == 0) {
      tx.push_back(i);
    } else {
      listeners.push_back(i);
    }
  }
}

// Parallel decomposition reorders no floating-point operation, so the
// comparison is exact — not a tolerance check.
void ExpectBitIdentical(const std::vector<Reception>& serial,
                        const std::vector<Reception>& par,
                        const std::string& label) {
  ASSERT_EQ(serial.size(), par.size()) << label;
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_EQ(serial[k].listener, par[k].listener) << label << " k=" << k;
    EXPECT_EQ(serial[k].sender, par[k].sender) << label << " k=" << k;
    EXPECT_EQ(serial[k].sinr, par[k].sinr) << label << " k=" << k;
  }
}

Network MakeUniformNet(int n, double side, double shadowing_spread,
                       std::uint64_t seed) {
  Params params = Params::Default();
  params.id_space = 1 << 17;
  auto pts = workload::UniformSquare(n, side, seed);
  std::vector<NodeId> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<NodeId>(2 * i + 3);  // non-sequential ids
  }
  return Network(std::move(pts), std::move(ids), params,
                 Shadowing{shadowing_spread, /*seed=*/99});
}

void ExpectParallelMatchesSerial(const Network& net, Engine::Options base,
                                 const std::vector<int>& thread_counts,
                                 const std::string& label) {
  Engine::Options serial_opts = base;
  serial_opts.threads = 1;
  const Engine serial(net, serial_opts);
  std::vector<std::size_t> tx, listeners;
  std::vector<Reception> want, got;
  for (const int period : {2, 7}) {
    SplitTxListeners(net.size(), period, tx, listeners);
    serial.StepInto(tx, listeners, want);
    for (const int threads : thread_counts) {
      Engine::Options par_opts = base;
      par_opts.threads = threads;
      const Engine par(net, par_opts);
      EXPECT_EQ(par.threads(), threads);
      par.StepInto(tx, listeners, got);
      ExpectBitIdentical(
          want, got,
          label + " period=" + std::to_string(period) +
              " threads=" + std::to_string(threads));
      if (threads > 1 && !listeners.empty()) {
        EXPECT_GT(par.stats().parallel_rounds, 0)
            << label << ": round was not actually dispatched";
      }
    }
  }
}

TEST(ParallelEngineTest, GridBitIdenticalAcrossThreadCounts) {
  const Network net = MakeUniformNet(700, 13.0, 0.0, 1234);
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kGrid},
                              {1, 2, 3, 5, 7, 8, 16}, "grid");
}

TEST(ParallelEngineTest, ExactBitIdenticalAcrossThreadCounts) {
  // n = 600: period 7 is 86 x 514 ~ 44k pairs, over kMinShardPairs.
  const Network net = MakeUniformNet(600, 12.0, 0.0, 99);
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kExact},
                              {1, 2, 3, 5, 7, 8, 16}, "exact");
}

TEST(ParallelEngineTest, ShadowingModelTakesTheVirtualPathIdentically) {
  // Shadowing defeats the devirtualized kernel: grid mode resolves through
  // the virtual per-listener fallback, whose parallel form must also be
  // bit-identical.
  const Network net = MakeUniformNet(600, 12.0, 0.4, 7);
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kGrid},
                              {2, 3, 8}, "grid+shadowing");
}

TEST(ParallelEngineTest, OddShardCountsOnFewTiles) {
  // A huge tile side leaves very few tiles — shard counts above the tile
  // count must produce empty shards, not wrong answers.
  const Network net = MakeUniformNet(600, 8.0, 0.0, 31);
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kGrid, .cell = 4.0},
                              {3, 5, 7, 16}, "few-tiles");
}

TEST(ParallelEngineTest, TileBoundaryStress) {
  // Positions pinned to exact tile-grid lines (multiples of the cell side,
  // including the coverage corners) exercise the boundary ownership of
  // TileAt; sharding must agree with serial no matter which side of a cut
  // a boundary tile lands on.
  constexpr double kCell = 2.0;
  constexpr double kSide = 10.0;
  Xoshiro256ss rng(2024);
  std::vector<Vec2> pts;
  std::vector<NodeId> ids;
  int next_id = 1;
  for (int gx = 0; gx <= 5; ++gx) {
    for (int gy = 0; gy <= 5; ++gy) {
      pts.push_back({gx * kCell, gy * kCell});  // every grid-line crossing
      ids.push_back(next_id++);
    }
  }
  for (int i = 0; i < 564; ++i) {  // random mix: on-line and interior
    const double x = rng.NextBelow(2) == 0
                         ? kCell * static_cast<double>(rng.NextBelow(6))
                         : kSide * rng.NextDouble();
    const double y = rng.NextBelow(2) == 0
                         ? kCell * static_cast<double>(rng.NextBelow(6))
                         : kSide * rng.NextDouble();
    pts.push_back({x, y});
    ids.push_back(next_id++);
  }
  Params params = Params::Default();
  params.id_space = 1 << 16;
  const Network net(std::move(pts), std::move(ids), params);
  ExpectParallelMatchesSerial(net, {.mode = Engine::Mode::kGrid, .cell = kCell},
                              {2, 3, 7}, "tile-boundary");
}

TEST(ParallelEngineTest, MovingChurningNetworkStaysIdentical) {
  // n = 700 keeps every epoch's round over kMinShardPairs once churn has
  // taken its share of the nodes out.
  const int n = 700;
  const double side = 13.0;
  Network net = MakeUniformNet(n, side, 0.0, 555);
  Engine::Options base{.mode = Engine::Mode::kGrid};
  base.coverage = Box{{0.0, 0.0}, {side, side}};
  Engine::Options par_opts = base;
  par_opts.threads = 3;
  // Non-const: index maintenance (SyncIndex / IndexErase / IndexInsert)
  // mutates the engines' grids.
  Engine serial(net, base);
  Engine par(net, par_opts);

  Xoshiro256ss rng(777);
  std::vector<char> active(n, 1);
  std::vector<Vec2> pos = net.positions();
  std::vector<std::size_t> tx, listeners;
  std::vector<Reception> want, got;
  for (int epoch = 0; epoch < 6; ++epoch) {
    // Random walk inside the coverage box.
    for (int i = 0; i < n; ++i) {
      if (!active[i]) continue;
      pos[i].x = std::min(side, std::max(0.0, pos[i].x +
                                                  0.6 * (rng.NextDouble() - 0.5)));
      pos[i].y = std::min(side, std::max(0.0, pos[i].y +
                                                  0.6 * (rng.NextDouble() - 0.5)));
    }
    net.SetPositions(pos);
    serial.SyncIndex();
    par.SyncIndex();
    // Churn: ~5% leave, previously-left nodes rejoin at fresh positions.
    for (int i = 0; i < n; ++i) {
      if (active[i] && rng.NextBelow(20) == 0) {
        active[i] = 0;
        serial.IndexErase(i);
        par.IndexErase(i);
      } else if (!active[i] && rng.NextBelow(4) == 0) {
        const Vec2 p{side * rng.NextDouble(), side * rng.NextDouble()};
        pos[i] = p;
        net.SetPosition(i, p);
        active[i] = 1;
        serial.IndexInsert(i);
        par.IndexInsert(i);
      }
    }
    tx.clear();
    listeners.clear();
    for (int i = 0; i < n; ++i) {
      if (!active[i]) continue;
      (i % 5 == epoch % 5 ? tx : listeners).push_back(i);
    }
    serial.StepInto(tx, listeners, want);
    par.StepInto(tx, listeners, got);
    ExpectBitIdentical(want, got, "epoch " + std::to_string(epoch));
  }
  EXPECT_GT(par.stats().parallel_rounds, 0);
}

// One pair under the rule, a round runs serially (parallel_small_rounds);
// at the rule, it shards (parallel_rounds); both match serial bit for bit.
void ExpectPairRuleBoundary(Engine::Mode mode) {
  static_assert(151 * 217 == kMinShardPairs - 1);
  static_assert(128 * 256 == kMinShardPairs);
  const Network net = MakeUniformNet(400, 10.0, 0.0, 3);
  const Engine serial(net, {.mode = mode});
  Engine::Options opts{.mode = mode};
  opts.threads = 4;
  const Engine par(net, opts);
  const auto step = [&](std::size_t n_tx, std::size_t n_listen) {
    std::vector<std::size_t> tx(n_tx), listeners(n_listen);
    std::iota(tx.begin(), tx.end(), std::size_t{0});
    std::iota(listeners.begin(), listeners.end(), n_tx);
    ExpectBitIdentical(serial.Step(tx, listeners), par.Step(tx, listeners),
                       std::to_string(n_tx) + " x " + std::to_string(n_listen));
  };
  step(151, 217);
  EXPECT_EQ(par.stats().parallel_rounds, 0);
  EXPECT_EQ(par.stats().parallel_small_rounds, 1);
  step(128, 256);
  EXPECT_EQ(par.stats().parallel_rounds, 1);
  EXPECT_EQ(par.stats().parallel_small_rounds, 1);
}

TEST(ParallelEngineTest, ExactRoundShardsFromThePairThreshold) {
  ExpectPairRuleBoundary(Engine::Mode::kExact);
}

TEST(ParallelEngineTest, GridRoundShardsFromThePairThreshold) {
  ExpectPairRuleBoundary(Engine::Mode::kGrid);
}

TEST(ParallelEngineTest, SingleTileGridRunsSeriallyInsteadOfIdleShards) {
  // cell >= side leaves one tile: the domain cannot be decomposed, so the
  // round must skip the dispatch (idle workers would be pure overhead)
  // and still produce serial results. n = 512 at period 4 is 128 x 384
  // pairs, over kMinShardPairs: the one-tile plan, not the pair rule, is
  // what keeps this round serial.
  const Network net = MakeUniformNet(512, 4.0, 0.0, 21);
  Engine::Options opts{.mode = Engine::Mode::kGrid, .cell = 8.0};
  opts.threads = 4;
  const Engine par(net, opts);
  const Engine serial(net, {.mode = Engine::Mode::kGrid, .cell = 8.0});
  std::vector<std::size_t> tx, listeners;
  SplitTxListeners(net.size(), 4, tx, listeners);
  ExpectBitIdentical(serial.Step(tx, listeners), par.Step(tx, listeners),
                     "one tile");
  EXPECT_EQ(par.stats().parallel_rounds, 0);
  EXPECT_EQ(par.stats().parallel_small_rounds, 1);
}

TEST(ParallelEngineTest, ShardLoadsAccountForEveryListener) {
  const Network net = MakeUniformNet(600, 12.0, 0.0, 11);
  Engine::Options opts{.mode = Engine::Mode::kGrid};
  opts.threads = 4;
  const Engine par(net, opts);
  std::vector<std::size_t> tx, listeners;
  SplitTxListeners(net.size(), 3, tx, listeners);
  std::vector<Reception> out;
  const int rounds = 5;
  for (int r = 0; r < rounds; ++r) par.StepInto(tx, listeners, out);
  const auto& st = par.stats();
  EXPECT_EQ(st.parallel_rounds, rounds);
  ASSERT_EQ(st.shard_listeners.size(), 4u);
  std::int64_t total = 0;
  for (const std::int64_t l : st.shard_listeners) total += l;
  EXPECT_EQ(total, static_cast<std::int64_t>(listeners.size()) * rounds);
}

// Path loss that records every thread evaluating it. Being a subclass, it
// takes the engine's virtual grid path, where every shard job queries the
// model for each listener it resolves.
class ThreadRecordingPathLoss : public sinr::PathLossModel {
 public:
  using PathLossModel::PathLossModel;
  double GainFromDistanceSq(double d2, NodeId a, NodeId b) const override {
    Record();
    return PathLossModel::GainFromDistanceSq(d2, a, b);
  }
  double MaxGain(double d_lo) const override {
    Record();
    return PathLossModel::MaxGain(d_lo);
  }
  double MinGain(double d_hi) const override {
    Record();
    return PathLossModel::MinGain(d_hi);
  }
  // The threads recorded since the last call.
  std::set<std::thread::id> TakeThreads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(threads_, {});
  }

 private:
  void Record() const {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.insert(std::this_thread::get_id());
  }
  mutable std::mutex mu_;
  mutable std::set<std::thread::id> threads_;
};

TEST(ParallelEngineTest, SweepTailDonatesIdleWorkersToNestedEngines) {
  // Models a sweep's tail: an outer fan-out with fewer jobs than pool
  // participants leaves workers idle while the last runs' engines grind.
  // Each engine's shard fan-out joins the pool's list of open fan-outs,
  // where the idle workers pick it up — nested rounds scale instead of
  // running inline. Each engine has its own recording model, and an outer
  // job runs on one thread, so a second thread on one engine's model
  // within a batch proves a donated worker ran that engine's shard jobs.
  WorkerPool pool(3);
  Params params = Params::Default();
  params.id_space = 1 << 17;
  const auto pts = workload::UniformSquare(700, 13.0, 1234);
  std::vector<NodeId> ids(pts.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<NodeId>(2 * i + 3);
  }
  const auto model_a = std::make_shared<ThreadRecordingPathLoss>(params);
  const auto model_b = std::make_shared<ThreadRecordingPathLoss>(params);
  const Network net_a(pts, ids, params, model_a);
  const Network net_b(pts, ids, params, model_b);
  std::vector<std::size_t> tx, listeners;
  SplitTxListeners(net_a.size(), 7, tx, listeners);
  const Engine serial(net_a, {.mode = Engine::Mode::kGrid});
  std::vector<Reception> want;
  serial.StepInto(tx, listeners, want);

  Engine::Options opts{.mode = Engine::Mode::kGrid};
  opts.threads = 3;
  opts.pool = &pool;
  const Engine a(net_a, opts);
  const Engine b(net_b, opts);
  std::vector<Reception> got_a, got_b;
  // An engine's owner thread can drain a nested fan-out before an idle
  // worker wakes up, so retry the batch until a donated thread is seen.
  // In practice the first batch is enough; the bound only caps a
  // pathological scheduler.
  std::atomic<std::int64_t> rounds{0};
  std::size_t most_threads = 0;
  for (int batch = 0; batch < 40 && most_threads < 2; ++batch) {
    model_a->TakeThreads();
    model_b->TakeThreads();
    pool.Run(2, [&](std::size_t job) {
      const Engine& eng = job == 0 ? a : b;
      auto& got = job == 0 ? got_a : got_b;
      for (int r = 0; r < 8; ++r) {
        got.clear();
        eng.StepInto(tx, listeners, got);
        ++rounds;
      }
    });
    ExpectBitIdentical(want, got_a, "donated-shards A");
    ExpectBitIdentical(want, got_b, "donated-shards B");
    most_threads = std::max({most_threads, model_a->TakeThreads().size(),
                             model_b->TakeThreads().size()});
  }
  EXPECT_EQ(a.stats().parallel_rounds + b.stats().parallel_rounds, rounds)
      << "nested rounds must dispatch, not degrade to inline execution";
  EXPECT_GE(most_threads, 2u)
      << "no idle worker ever ran a nested engine's shard job";
}

// --- Scenario plumbing ------------------------------------------------------

// One Sparse Network Schedule on uniform n=768: all 710 of its rounds are
// dense enough (|T|·|L| over kMinShardPairs) to shard.
scenario::ScenarioSpec DenseRoundSpec() {
  scenario::ScenarioSpec spec;
  spec.algo = "sns";
  spec.topology_params.Set("n", "768");
  spec.topology_params.Set("side", "24");
  return spec;
}

TEST(ParallelScenarioTest, ParallelRunReportsSectionAndIdenticalMetrics) {
  scenario::ScenarioSpec spec = DenseRoundSpec();

  const scenario::RunReport serial = RunScenario(spec, 1);
  ASSERT_TRUE(serial.ok) << serial.error;
  EXPECT_TRUE(serial.parallel.empty());

  spec.engine.threads = 3;
  const scenario::RunReport par = RunScenario(spec, 1);
  ASSERT_TRUE(par.ok) << par.error;
  ASSERT_FALSE(par.parallel.empty());
  EXPECT_EQ(par.parallel.threads, 3);
  EXPECT_GT(par.parallel.rounds_parallel, 0);
  EXPECT_EQ(par.parallel.shard_load.size(), 3u);
  EXPECT_GE(par.parallel.imbalance, 1.0);
  // The decomposition must not change a single metric.
  ASSERT_EQ(serial.metrics.entries().size(), par.metrics.entries().size());
  for (std::size_t i = 0; i < serial.metrics.entries().size(); ++i) {
    EXPECT_EQ(serial.metrics.entries()[i], par.metrics.entries()[i]);
  }
}

TEST(ParallelScenarioTest, SweepOccupyingThePoolStillShardsItsEngines) {
  // An engine inside an occupied pool dispatches its rounds like any other
  // engine: its nested fan-outs join the pool's list, where idle tail-end
  // workers pick them up, and every metric stays identical to the serial
  // sweep.
  scenario::ScenarioSpec spec = DenseRoundSpec();
  spec.seeds = {1, 2};
  const std::vector<scenario::RunReport> serial = RunSweep(spec);

  spec.threads = 2;
  spec.engine.threads = 2;  // what --threads=2 sets
  const std::vector<scenario::RunReport> par = RunSweep(spec);
  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    ASSERT_TRUE(par[i].ok) << par[i].error;
    ASSERT_FALSE(par[i].parallel.empty());
    EXPECT_GT(par[i].parallel.rounds_parallel, 0)
        << "seed " << par[i].seed
        << ": engine refused to shard inside an occupied pool";
    ASSERT_EQ(serial[i].metrics.entries().size(),
              par[i].metrics.entries().size());
    for (std::size_t j = 0; j < serial[i].metrics.entries().size(); ++j) {
      EXPECT_EQ(serial[i].metrics.entries()[j], par[i].metrics.entries()[j]);
    }
  }
}

TEST(ParallelScenarioTest, ThreadsFlagDrivesEngineAndRoundTrips) {
  const auto spec = scenario::ScenarioSpec::FromArgs(
      {"--topology=uniform:n=32,side=3", "--algo=clustering", "--seeds=1",
       "--threads=4"});
  EXPECT_EQ(spec.threads, 4);
  EXPECT_EQ(spec.engine.threads, 4);
  EXPECT_EQ(scenario::ScenarioSpec::FromArgs(spec.ToArgs()), spec);
  // Same bounds as DCC_ENGINE_THREADS — an absurd shard count must fail
  // validation, not allocation.
  EXPECT_THROW(scenario::ScenarioSpec::FromArgs({"--threads=100000"}),
               InvalidArgument);
  EXPECT_THROW(scenario::ScenarioSpec::FromArgs({"--threads=-1"}),
               InvalidArgument);
}

}  // namespace
}  // namespace dcc
