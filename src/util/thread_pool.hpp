// The process thread pool and its parallel_for primitive.
//
// The data engine (core/dataset), the batched evaluate/predict loops and
// the compute kernels (kernels::gemm's row split, kernels::conv1d_forward's
// batch split) fan independent work out over ThreadPool::global().  Only
// tests construct other pools: a `threads = N` option caps one call's
// fan-out on the global pool (parallel_for's `max_workers`, or a ScopedCap
// over a whole phase such as a fit), it never spawns threads of its own.
//
// parallel_for partitions [0, n) into one contiguous chunk per worker, so
// results are bitwise independent of the worker count as long as chunks
// write disjoint memory.  That contract is what makes the two inline
// fallbacks below free:
//
//   * reentrancy: a call made from inside a parallel_for body (e.g. a GEMM
//     running under the batch-level evaluate loop) executes its whole range
//     inline on the current thread.  The outermost caller owns the fan-out
//     and nested levels degrade to serial, which avoids deadlock and keeps
//     the work grid — hence the results — identical;
//   * concurrent callers: any thread may call parallel_for (two serving
//     workers forwarding two models, say).  A caller that finds the pool
//     busy with another caller's range runs its own range inline, as if
//     nested, instead of waiting for the pool or sharing it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mldist::util {

class ThreadPool {
 public:
  /// `threads` = 0 selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Run body(begin, end) over a partition of [0, n) into
  /// min(n, width(max_workers)) contiguous chunks (max_workers = 0 means no
  /// cap, 1 runs inline); blocks until all chunks finish.  The calling
  /// thread executes the first chunk itself.  Returns the number of
  /// chunks the range was split into: 1 when it ran inline — nested, busy
  /// pool, capped at 1 or n <= 1.
  ///
  /// Exception safety: a throw from any chunk never escapes its worker
  /// thread (which would std::terminate the process).  The call drains, then
  /// the exception — the calling thread's own, else the first one a worker
  /// captured — is rethrown here.  Other chunks are NOT cancelled (they run
  /// to completion), and the pool remains usable.
  std::size_t parallel_for(
      std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t max_workers = 0);

  /// Caps the fan-out of every range the constructing thread starts while
  /// the scope lives: its own parallel_for calls and those of the kernels
  /// it calls (kernels::gemm's row split, say).  0 adds no cap, 1 runs every
  /// range inline.  A cap inside another keeps the tighter of the two.
  class ScopedCap {
   public:
    explicit ScopedCap(std::size_t max_workers);
    ~ScopedCap();
    ScopedCap(const ScopedCap&) = delete;
    ScopedCap& operator=(const ScopedCap&) = delete;

   private:
    std::size_t prev_;
  };

  /// The widest fan-out a range started on this thread can reach:
  /// thread_count() under `max_workers` (0 = no cap) and the thread's
  /// ScopedCap.
  std::size_t width(std::size_t max_workers = 0) const;

  /// Process-wide pool (lazily constructed, sized to the hardware, never
  /// destroyed).
  static ThreadPool& global();

  /// True while the current thread is executing a parallel_for chunk (of any
  /// pool).  Nested parallel_for calls detect this and run inline.
  static bool in_parallel_region();

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;
  std::vector<Task> tasks_;       // one slot per worker
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::size_t pending_ = 0;       // chunks handed to workers, not yet done
  std::uint64_t generation_ = 0;
  bool busy_ = false;             // a caller's range is in flight
  bool stop_ = false;
  std::exception_ptr error_;      // first task-body exception this call
};

}  // namespace mldist::util
