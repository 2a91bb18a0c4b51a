#include "util/thread_pool.hpp"

#include <algorithm>

namespace mldist::util {

namespace {
thread_local bool tls_in_parallel_region = false;
thread_local std::size_t tls_cap = 0;  // the tightest live ScopedCap, 0 = none

struct RegionGuard {
  bool prev;
  RegionGuard() : prev(tls_in_parallel_region) { tls_in_parallel_region = true; }
  ~RegionGuard() { tls_in_parallel_region = prev; }
};
}  // namespace

bool ThreadPool::in_parallel_region() { return tls_in_parallel_region; }

ThreadPool::ScopedCap::ScopedCap(std::size_t max_workers) : prev_(tls_cap) {
  if (max_workers != 0 && (tls_cap == 0 || max_workers < tls_cap)) {
    tls_cap = max_workers;
  }
}

ThreadPool::ScopedCap::~ScopedCap() { tls_cap = prev_; }

std::size_t ThreadPool::width(std::size_t max_workers) const {
  std::size_t w = thread_count();
  if (max_workers != 0) w = std::min(w, max_workers);
  if (tls_cap != 0) w = std::min(w, tls_cap);
  return w;
}

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  // n total workers including the calling thread.
  const std::size_t extra = n - 1;
  tasks_.resize(extra);
  workers_.reserve(extra);
  for (std::size_t i = 0; i < extra; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t index) {
  std::uint64_t seen = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = tasks_[index];
    }
    // A worker without a chunk in this call owes it nothing: the caller
    // counts only the chunks it handed out.
    if (task.body == nullptr) continue;
    std::exception_ptr error;
    {
      RegionGuard guard;
      try {
        (*task.body)(task.begin, task.end);
      } catch (...) {
        // An exception escaping a worker thread would std::terminate the
        // process; capture it here and let parallel_for rethrow it on the
        // calling thread once the call has drained.
        error = std::current_exception();
      }
    }
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (error != nullptr && error_ == nullptr) error_ = error;
      last = --pending_ == 0;
    }
    if (last) done_.notify_one();
  }
}

std::size_t ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t max_workers) {
  if (n == 0) return 1;
  std::size_t chunks = std::min(width(max_workers), n);
  const std::size_t per = (n + chunks - 1) / chunks;
  // Chunks past the end of a ragged partition are empty and never run.
  chunks = (n + per - 1) / per;

  bool fan_out = chunks > 1 && !tls_in_parallel_region;
  if (fan_out) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (busy_) {
      fan_out = false;  // another caller's range holds the workers
    } else {
      busy_ = true;
      pending_ = chunks - 1;
      for (std::size_t i = 0; i < tasks_.size(); ++i) {
        const std::size_t c = i + 1;  // chunk 0 runs on the calling thread
        tasks_[i] = c < chunks
                        ? Task{&body, c * per, std::min(n, (c + 1) * per)}
                        : Task{};
      }
      ++generation_;
    }
  }
  if (!fan_out) {
    // The partition contract makes one chunk bitwise-identical to many.
    RegionGuard guard;
    body(0, n);
    return 1;
  }
  wake_.notify_all();
  // The calling thread's own chunk may throw too; either way the workers
  // must finish first — they still hold a pointer to `body`.
  std::exception_ptr caller_error;
  {
    RegionGuard guard;
    try {
      body(0, per);
    } catch (...) {
      caller_error = std::current_exception();
    }
  }
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return pending_ == 0; });
    error = caller_error != nullptr ? caller_error : error_;
    error_ = nullptr;  // the pool stays usable for the next caller
    busy_ = false;
  }
  if (error != nullptr) std::rethrow_exception(error);
  return chunks;
}

ThreadPool& ThreadPool::global() {
  // Intentionally leaked, like obs::Logger: the first parallel_for may
  // build the pool before the statics its chunks touch (the metrics
  // registry), and joining the workers at exit would run their thread
  // exit hooks after those statics are gone.  Idle workers block on the
  // leaked condition variable until the process ends.
  static ThreadPool* const pool = new ThreadPool();
  return *pool;
}

}  // namespace mldist::util
