#pragma once
// Shared worker-thread pool for the compute backend.
//
// All parallelism in the library flows through ThreadPool::parallel_for,
// which splits an index range into chunks and runs them on the pool's
// workers plus the calling thread. Work items must write disjoint output
// (the GEMM kernels partition output rows), so the result is bit-identical
// to a serial run regardless of thread count or chunk scheduling.
//
// A process-wide pool is sized from FALVOLT_THREADS (else the hardware
// concurrency) and can be resized with set_global_threads — the hook used
// by the --threads flag on every bench and example.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace falvolt::compute {

class ThreadPool {
 public:
  /// `threads` is the total worker count including the calling thread;
  /// clamped to [1, kMaxThreads]. A pool of size 1 spawns no threads and
  /// runs every parallel_for inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that participate in parallel_for (workers + caller).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run body(chunk_begin, chunk_end) over [begin, end) split into chunks
  /// of at least `grain` indices. Blocks until the whole range is done.
  /// Chunks are claimed dynamically, so bodies must be independent and
  /// write disjoint state. Nested calls from inside a body run inline.
  /// At most ONE external caller may be inside parallel_for on a given
  /// pool at a time (the library drives the global pool from the single
  /// experiment thread); concurrent callers would corrupt each other's
  /// dispatch state.
  void parallel_for(int begin, int end, int grain,
                    const std::function<void(int, int)>& body);

  static constexpr int kMaxThreads = 256;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;   // caller waits for workers to finish
  std::uint64_t generation_ = 0;
  int workers_active_ = 0;
  bool stop_ = false;

  // Current parallel_for (valid while generation_ is live).
  const std::function<void(int, int)>* body_ = nullptr;
  std::atomic<int> next_{0};
  int end_ = 0;
  int chunk_ = 1;
};

/// While alive, every parallel_for the calling thread makes runs inline,
/// as it does inside a pool worker's body. For a thread that works beside
/// others of its kind outside any pool (FleetRunner's concurrent baseline
/// trainings): its GEMMs never drive a shared pool from a second outside
/// thread, and the threads together use one core each.
class InlineScope {
 public:
  InlineScope();
  ~InlineScope();

  InlineScope(const InlineScope&) = delete;
  InlineScope& operator=(const InlineScope&) = delete;

 private:
  bool outer_;
};

/// Threads the process-wide pool was requested to use: FALVOLT_THREADS
/// when set to a positive integer, else std::thread::hardware_concurrency.
int default_threads();

/// The process-wide pool, built on first use with default_threads().
ThreadPool& global_pool();

/// Resize the process-wide pool (0 restores default_threads()). Not safe
/// while another thread is inside global_pool().parallel_for.
void set_global_threads(int threads);

/// Current size of the process-wide pool.
int global_threads();

}  // namespace falvolt::compute
