// A thread joined during static destruction retires its metrics shard into
// obs::MetricsRegistry::global() when it exits.  Here the static that owns
// the thread is built before the registry, so it is destroyed after it: the
// registry must still be alive for that last retire.  The fault shows only
// after main() returns, so this is a plain program rather than a gtest
// case; under -DMLDIST_ASAN=ON a destroyed registry is reported as a
// heap-use-after-free and the run exits non-zero.
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace {

constexpr const char* kCounter = "metrics_lifetime.recorded";

/// Owns a thread that records one counter when asked, then waits for the
/// destructor to join it.
class ThreadOwner {
 public:
  ThreadOwner() : thread_([this] { run(); }) {}

  ~ThreadOwner() {
    advance(Stage::kStop);
    thread_.join();  // the thread's exit retires its shard
  }

  void record() {
    advance(Stage::kRecord);
    wait_for(Stage::kRecorded);
  }

 private:
  enum class Stage { kIdle, kRecord, kRecorded, kStop };

  void run() {
    wait_for(Stage::kRecord);
    mldist::obs::count(kCounter);
    advance(Stage::kRecorded);
    wait_for(Stage::kStop);
  }

  void advance(Stage stage) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stage_ = stage;
    }
    cv_.notify_all();
  }

  void wait_for(Stage stage) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stage_ >= stage; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  Stage stage_ = Stage::kIdle;
  std::thread thread_;  // last: it starts after the members it uses
};

// Built before main(), so before the registry, which the first record
// constructs.
ThreadOwner owner;

}  // namespace

int main() {
  owner.record();
  for (const auto& [name, value] :
       mldist::obs::MetricsRegistry::global().snapshot().counters) {
    if (name == kCounter && value == 1) return 0;
  }
  std::fprintf(stderr, "counter %s was not recorded once\n", kCounter);
  return 1;
}
