#include "dcc/parallel/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "dcc/common/types.h"

namespace dcc::parallel {

namespace {

int SharedWorkerCount() {
  const char* env = std::getenv("DCC_POOL_WORKERS");
  if (env != nullptr && *env != '\0') {
    const std::string s(env);
    std::size_t pos = 0;
    long v = -1;
    try {
      v = std::stol(s, &pos);
    } catch (...) {
      pos = 0;
    }
    if (pos != s.size() || v < 0 || v > 4096) {
      throw InvalidArgument("DCC_POOL_WORKERS: expected an integer in "
                            "[0, 4096], got \"" +
                            s + "\"");
    }
    return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? static_cast<int>(hw) - 1 : 0;
}

}  // namespace

// One Run in flight, on its caller's stack. `fn` and `n_jobs` are fixed
// before the fan-out is listed; `next` is the job dispenser every
// participant claims indices from, so each job runs exactly once; the rest
// is guarded by the pool's mu_. A helper enters only while the fan-out is
// listed and leaves by decrementing `active` under mu_, so once the caller
// has unlinked it and seen active == 0, no other thread can touch it.
struct WorkerPool::FanOut {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n_jobs = 0;
  std::atomic<std::size_t> next{0};
  int helper_cap = 0;  // max helpers inside at once
  int active = 0;      // helpers inside Drain
  FanOut* older = nullptr;
  FanOut* newer = nullptr;
  std::exception_ptr error;         // first job exception
  std::condition_variable done_cv;  // signaled when active drops to 0
};

WorkerPool::WorkerPool(int workers) {
  n_workers_ = std::max(workers, 0);
  threads_.reserve(static_cast<std::size_t>(n_workers_));
  for (int i = 0; i < n_workers_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

WorkerPool& WorkerPool::Shared() {
  // Leaked on purpose: joining workers from a static destructor while other
  // statics may still Run is a shutdown hazard with zero upside.
  static WorkerPool* pool = new WorkerPool(SharedWorkerCount());
  return *pool;
}

WorkerPool::FanOut* WorkerPool::FindOpen() const {
  for (FanOut* f = head_; f != nullptr; f = f->newer) {
    if (f->active < f->helper_cap && f->next.load() < f->n_jobs) {
      return f;
    }
  }
  return nullptr;
}

void WorkerPool::Drain(FanOut& f) {
  for (;;) {
    const std::size_t i = f.next.fetch_add(1);
    if (i >= f.n_jobs) return;
    try {
      (*f.fn)(i);
    } catch (...) {
      // The first error wins; stop dispensing so the fan-out drains
      // quickly (jobs already running finish normally).
      f.next.store(f.n_jobs);
      std::lock_guard<std::mutex> lock(mu_);
      if (!f.error) f.error = std::current_exception();
    }
  }
}

void WorkerPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    FanOut* f = nullptr;
    work_cv_.wait(lock, [&] { return (f = FindOpen()) != nullptr || stop_; });
    if (f == nullptr) return;  // stopping, and nothing left to help with
    ++f->active;
    lock.unlock();
    Drain(*f);
    lock.lock();
    // Signal under the lock: once mu_ is released with active == 0, the
    // caller may return and destroy *f.
    if (--f->active == 0) f->done_cv.notify_one();
  }
}

void WorkerPool::Run(std::size_t n_jobs,
                     const std::function<void(std::size_t)>& fn,
                     int max_workers) {
  if (n_jobs == 0) return;
  // The caller occupies one participation slot; helpers cover the rest,
  // and never more than there are jobs besides the caller's first.
  int helper_cap = max_workers > 0 ? max_workers - 1 : n_workers_;
  helper_cap = std::min(helper_cap, n_workers_);
  if (static_cast<std::size_t>(helper_cap) > n_jobs - 1) {
    helper_cap = static_cast<int>(n_jobs - 1);
  }
  if (helper_cap <= 0) {
    for (std::size_t i = 0; i < n_jobs; ++i) fn(i);
    return;
  }

  FanOut f;
  f.fn = &fn;
  f.n_jobs = n_jobs;
  f.helper_cap = helper_cap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    f.older = tail_;
    (tail_ != nullptr ? tail_->newer : head_) = &f;
    tail_ = &f;
  }
  if (helper_cap >= n_workers_) {
    work_cv_.notify_all();
  } else {
    for (int k = 0; k < helper_cap; ++k) work_cv_.notify_one();
  }

  Drain(f);

  // The dispenser is exhausted, so completion is exactly "no helper still
  // inside". Helpers leave under mu_, which orders every job's writes
  // before this wait returns.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    (f.older != nullptr ? f.older->newer : head_) = f.newer;
    (f.newer != nullptr ? f.newer->older : tail_) = f.older;
    f.done_cv.wait(lock, [&] { return f.active == 0; });
    error = f.error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace dcc::parallel
