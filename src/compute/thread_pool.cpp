#include "compute/thread_pool.h"

#include <algorithm>
#include <memory>

#include "common/env.h"
#include "obs/metrics.h"

namespace falvolt::compute {

namespace {

// True while the current thread is executing a parallel_for body; nested
// parallelism degrades to inline execution instead of deadlocking.
thread_local bool t_in_parallel_region = false;

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int total = std::clamp(threads, 1, kMaxThreads);
  workers_.reserve(static_cast<std::size_t>(total - 1));
  for (int i = 0; i < total - 1; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int, int)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      if (body == nullptr) {
        // Woke for a generation whose caller already finished (it drained
        // every chunk itself). Claiming chunks now could race with the
        // NEXT parallel_for's setup, so just go back to sleep.
        continue;
      }
      ++workers_active_;
    }
    t_in_parallel_region = true;
    static obs::Counter& chunks = obs::counter("pool.chunks");
    int claimed = 0;
    for (;;) {
      const int lo = next_.fetch_add(chunk_, std::memory_order_relaxed);
      if (lo >= end_) break;
      ++claimed;
      (*body)(lo, std::min(lo + chunk_, end_));
    }
    t_in_parallel_region = false;
    if (claimed > 0) chunks.add(static_cast<std::uint64_t>(claimed));
    {
      std::lock_guard<std::mutex> lock(mu_);
      --workers_active_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(int begin, int end, int grain,
                              const std::function<void(int, int)>& body) {
  // Queue/task telemetry (obs/metrics.h): every call is counted, inline
  // executions separately (nested regions, tiny spans, 1-thread pools),
  // and dispatched regions get wall time + claimed-chunk counts. The
  // counters are sharded relaxed adds — the GEMM hot path sees only a
  // handful per parallel_for, never per-element work.
  static obs::Counter& calls = obs::counter("pool.parallel_for.calls");
  static obs::Counter& inline_calls = obs::counter("pool.parallel_for.inline");
  static obs::Counter& dispatch_ns = obs::counter("pool.parallel_for.ns");
  static obs::Counter& dispatch_count = obs::counter("pool.parallel_for.count");
  static obs::Counter& chunks = obs::counter("pool.chunks");
  if (end <= begin) return;
  calls.add(1);
  const int span = end - begin;
  const int threads = size();
  if (threads == 1 || t_in_parallel_region || span <= std::max(grain, 1)) {
    inline_calls.add(1);
    body(begin, end);
    return;
  }
  obs::ScopedTimer timed(dispatch_ns, dispatch_count);
  // Aim for a few chunks per thread so dynamic claiming balances load
  // without shrinking chunks below the grain.
  const int chunk =
      std::max(std::max(grain, 1), (span + threads * 4 - 1) / (threads * 4));
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    next_.store(begin, std::memory_order_relaxed);
    end_ = end;
    chunk_ = chunk;
    ++generation_;
  }
  work_cv_.notify_all();
  // The caller is a full participant.
  t_in_parallel_region = true;
  int claimed = 0;
  for (;;) {
    const int lo = next_.fetch_add(chunk, std::memory_order_relaxed);
    if (lo >= end) break;
    ++claimed;
    body(lo, std::min(lo + chunk, end));
  }
  t_in_parallel_region = false;
  if (claimed > 0) chunks.add(static_cast<std::uint64_t>(claimed));
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return workers_active_ == 0; });
  body_ = nullptr;
}

InlineScope::InlineScope() : outer_(t_in_parallel_region) {
  t_in_parallel_region = true;
}

InlineScope::~InlineScope() { t_in_parallel_region = outer_; }

int default_threads() {
  const long long env = common::env_int_or("FALVOLT_THREADS", 0);
  if (env > 0) {
    return static_cast<int>(
        std::min<long long>(env, ThreadPool::kMaxThreads));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_threads());
  return *g_pool;
}

void set_global_threads(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  const int want = std::clamp(threads > 0 ? threads : default_threads(), 1,
                              ThreadPool::kMaxThreads);
  if (g_pool && g_pool->size() == want) return;  // avoid pointless respawn
  g_pool = std::make_unique<ThreadPool>(want);
}

int global_threads() { return global_pool().size(); }

}  // namespace falvolt::compute
