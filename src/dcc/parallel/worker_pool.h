// A persistent fork-join pool for data-parallel fan-out: Run(n, fn)
// executes fn(0..n-1) across the pool's threads plus the calling thread,
// blocking until every job finished. One process-wide pool
// (`WorkerPool::Shared()`, sized once to the hardware concurrency) backs
// both the scenario sweep loop and the engine's sharded rounds, so neither
// pays thread creation or teardown per call.
//
// Scheduling model:
//  * Every Run is a *fan-out* living on its caller's stack: an atomic job
//    dispenser, a helper cap, a count of helpers inside it, and the first
//    exception. Run links it onto one FIFO list of open fan-outs (one mutex
//    and condition variable guard the list), drains the dispenser itself,
//    unlinks it, and waits until no helper is still inside.
//  * An idle worker joins the oldest listed fan-out that still has jobs to
//    hand out and room under its cap, and claims jobs until the dispenser
//    is exhausted. A nested Run — a job fanning out again — uses the same
//    list, so nesting never blocks and never degrades to a serial loop:
//    the tail of a sweep donates its idle workers to the last runs' engine
//    rounds.
//  * The dispenser hands each job index out exactly once, so which thread
//    runs which job never matters for correctness; the caller alone can
//    always finish every job.
//
// Semantics:
//  * Jobs are independent; the pool guarantees nothing about which thread
//    runs which job, so callers needing determinism must make each job a
//    pure function of its index (the engine's shard workers are).
//  * The first exception thrown by a job is captured and rethrown from Run
//    after all jobs drain; later exceptions are dropped.
//  * Run establishes a full happens-before edge: everything jobs wrote is
//    visible to the caller when Run returns.
//
// `DCC_POOL_WORKERS` overrides Shared()'s worker-thread count (strict
// parse, [0, 4096]; parallelism() == workers + 1). Useful to exercise the
// thread ladder on hosts whose hardware_concurrency is 1.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dcc::parallel {

class WorkerPool {
 public:
  // Spawns `workers` threads. The calling thread of Run also executes jobs,
  // so parallelism() == workers + 1; workers == 0 is a valid (serial) pool.
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // The process-wide pool, sized once on first use to
  // hardware_concurrency() - 1 workers (never negative) unless
  // DCC_POOL_WORKERS overrides it. Lives for the process; intentionally
  // leaked so late static destructors can still call into it.
  static WorkerPool& Shared();

  // Max threads a Run can occupy (pool workers + the caller).
  int parallelism() const { return n_workers_ + 1; }

  // Runs fn(i) for i in [0, n_jobs), returning when all completed. At most
  // max_workers threads participate (0 = no cap beyond parallelism());
  // max_workers == 1, a 0-worker pool, and n_jobs <= 1 run the loop inline
  // on the caller. Safe to call from any thread, including from inside a
  // job of this pool.
  void Run(std::size_t n_jobs, const std::function<void(std::size_t)>& fn,
           int max_workers = 0);

 private:
  struct FanOut;

  void WorkerLoop();
  // The oldest listed fan-out a worker may join, or nullptr. Needs mu_.
  FanOut* FindOpen() const;
  // Claims and runs jobs of `f` until its dispenser is exhausted.
  void Drain(FanOut& f);

  int n_workers_ = 0;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // a fan-out was listed, or stop_
  FanOut* head_ = nullptr;           // open fan-outs, oldest first
  FanOut* tail_ = nullptr;
  bool stop_ = false;
};

}  // namespace dcc::parallel
