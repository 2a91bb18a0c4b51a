// Per-model request batching (DESIGN.md §15).
//
// Throughput on the serving plane must come from the batched GEMM kernels,
// not from threads-per-request: a ModelWorker owns one model's queue and
// one worker thread.  When a forward pass ends, that thread takes every
// classify job that queued meanwhile, in order and up to batch_max_rows
// rows, and answers them with ONE batched predict_proba call; an idle
// worker takes the job that wakes it alone.  It never waits for more: jobs
// that arrive during a forward pass form the next batch, so batches grow
// with load on their own and a lone request pays no coalescing delay.  A
// 64-row batch through the AVX2 GEMM costs far less than 64 single-row
// forwards, so saturated throughput scales with the kernels
// (bench/serving_saturation.cpp pins a 1.5x floor against batch_max_rows=1).
//
// Admission control: the queue is bounded in ROWS (queue_max_rows).
// submit() refuses jobs that would overflow it — the daemon answers 503 so
// overload degrades into fast, explicit rejections instead of an unbounded
// latency tail.  One request's inputs are never split across batches
// (responses are all-or-nothing), so batch_max_rows also caps the rows one
// request may carry.
//
// Ownership: a submitted job carries the connection fd.  On submit the
// daemon forgets the fd; the worker answers over it (blocking send — the
// fd must be switched back to blocking before submit) and closes it, also
// on shutdown (drain-then-answer) and on inference failure (500).
//
// Observability (all on the existing /metrics endpoint):
//   serve.batch_size            histogram — rows per batched predict call
//   serve.queue_wait_ns         histogram — submit -> batch assembly
//   serve.e2e_ns                histogram — submit -> response sent
//   serve.model.<name>.requests counter   — answered requests
//   serve.model.<name>.rows     counter   — classified rows
//   serve.model.<name>.batches  counter   — batched predict calls
//   serve.model.<name>.queue_depth gauge  — rows waiting right now (also
//                                           surfaced in /runz detail)
// plus one structured access-log line per answered request
// (serve/protocol.hpp log_access, component "serve.access").
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace mldist::serve {

struct ModelEntry;

struct BatchOptions {
  /// Rows one batched forward may carry; 1 is the batch-size-1 reference
  /// configuration of the saturation bench.
  std::size_t batch_max_rows = 64;
  std::size_t queue_max_rows = 1024;
  /// Requests whose e2e latency reaches this many milliseconds log their
  /// access line at warn (force-draining the logger ring) instead of info.
  /// 0 disables the threshold.
  int slow_request_ms = 0;
};

struct ClassifyJob {
  int fd = -1;                  ///< connection to answer; -1 = loopback test
  std::vector<float> features;  ///< rows * input_bits, bit-unpacked
  std::size_t rows = 0;
  std::uint64_t enqueue_ns = 0;  ///< stamped by submit()
  std::string request_id;        ///< echoed in X-Request-Id + access log
};

class ModelWorker {
 public:
  /// `entry` must outlive the worker (the registry is immutable and owned
  /// by the caller).  Starts the worker thread immediately.
  ModelWorker(const ModelEntry& entry, const BatchOptions& options);
  ~ModelWorker() { stop(); }

  ModelWorker(const ModelWorker&) = delete;
  ModelWorker& operator=(const ModelWorker&) = delete;

  /// Enqueue a job.  Returns false (job untouched, fd still the caller's)
  /// when admission control refuses it: queue full, or more rows than
  /// batch_max_rows in one request.
  bool submit(ClassifyJob&& job);

  /// Drain the queue (answering every queued job), then join the thread.
  /// Idempotent.
  void stop();

  const ModelEntry& entry() const { return entry_; }

  // Totals for tests and the drain path (exact after stop()).
  std::uint64_t answered() const {
    return answered_.load(std::memory_order_relaxed);
  }
  std::uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }

 private:
  void loop();
  void run_batch(std::vector<ClassifyJob>& batch, std::size_t rows);

  const ModelEntry& entry_;
  BatchOptions opt_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ClassifyJob> queue_;
  std::size_t queued_rows_ = 0;
  bool stop_ = false;

  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> batches_{0};

  obs::MetricId batch_size_hist_;
  obs::MetricId queue_wait_hist_;
  obs::MetricId e2e_hist_;
  obs::MetricId requests_ctr_;
  obs::MetricId rows_ctr_;
  obs::MetricId batches_ctr_;
  obs::MetricId queue_depth_gauge_;  ///< queued rows, set on enqueue/dequeue

  std::thread thread_;
};

}  // namespace mldist::serve
