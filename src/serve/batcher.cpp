#include "serve/batcher.hpp"

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <exception>

#include "obs/http.hpp"
#include "obs/log.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace mldist::serve {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ModelWorker::ModelWorker(const ModelEntry& entry, const BatchOptions& options)
    : entry_(entry), opt_(options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  batch_size_hist_ = reg.histogram("serve.batch_size");
  queue_wait_hist_ = reg.histogram("serve.queue_wait_ns");
  e2e_hist_ = reg.histogram("serve.e2e_ns");
  const std::string prefix = "serve.model." + entry_.name;
  requests_ctr_ = reg.counter(prefix + ".requests");
  rows_ctr_ = reg.counter(prefix + ".rows");
  batches_ctr_ = reg.counter(prefix + ".batches");
  queue_depth_gauge_ = reg.gauge(prefix + ".queue_depth");
  reg.set_gauge(queue_depth_gauge_, 0);
  thread_ = std::thread([this] { loop(); });
}

bool ModelWorker::submit(ClassifyJob&& job) {
  if (job.rows == 0 || job.rows > opt_.batch_max_rows) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    if (queued_rows_ + job.rows > opt_.queue_max_rows) return false;
    job.enqueue_ns = steady_ns();
    queued_rows_ += job.rows;
    queue_.push_back(std::move(job));
    // Inside mu_ so depth updates are ordered; the registry's own lock
    // never calls back into serve code, so no cycle.
    obs::MetricsRegistry::global().set_gauge(queue_depth_gauge_, queued_rows_);
  }
  cv_.notify_one();
  return true;
}

void ModelWorker::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // Already stopping; fall through to join in case the first caller
      // has not finished it yet (stop() is idempotent, not concurrent).
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void ModelWorker::loop() {
  bool idle = true;  // the queue was empty when the worker last looked,
                     // or it has not looked yet
  while (true) {
    std::vector<ClassifyJob> batch;
    std::size_t rows = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (queue_.empty()) idle = true;
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with nothing left to drain
      // Take what queued during the last forward, in order, up to
      // batch_max_rows.  An idle worker takes only the job that woke it,
      // as if waking took no time: jobs that arrived while this thread was
      // being scheduled would otherwise join it, and how many do follows
      // the host's wake-up latency, not the load.  No timer either way:
      // jobs arriving during the forward below form the next batch.
      while (!queue_.empty()) {
        ClassifyJob& j = queue_.front();
        if (!batch.empty() &&
            (idle || rows + j.rows > opt_.batch_max_rows)) {
          break;
        }
        rows += j.rows;
        batch.push_back(std::move(j));
        queue_.pop_front();
      }
      idle = false;
      queued_rows_ -= rows;
      obs::MetricsRegistry::global().set_gauge(queue_depth_gauge_,
                                               queued_rows_);
    }
    run_batch(batch, rows);
  }
}

void ModelWorker::run_batch(std::vector<ClassifyJob>& batch,
                            std::size_t rows) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const std::uint64_t assembled_ns = steady_ns();
  reg.observe(batch_size_hist_, rows);
  reg.add(batches_ctr_);
  for (const ClassifyJob& job : batch) {
    reg.observe(queue_wait_hist_, assembled_ns - job.enqueue_ns);
  }

  // One forward for every request in the batch.  Row independence
  // (nn/model.hpp predict contract) makes each row's probabilities
  // bitwise identical to a batch-size-1 run, so batching is invisible to
  // clients byte-for-byte.
  nn::Mat x(rows, entry_.input_bits);
  std::size_t r = 0;
  for (const ClassifyJob& job : batch) {
    std::memcpy(x.row(r), job.features.data(),
                job.rows * entry_.input_bits * sizeof(float));
    r += job.rows;
  }
  nn::Mat probs;
  std::string failure;
  try {
    probs = entry_.model->predict_proba(x);
  } catch (const std::exception& e) {
    failure = e.what();
    obs::log_error("serve.batcher", "batched predict failed")
        .field("model", entry_.name)
        .field("what", failure);
  }

  r = 0;
  for (ClassifyJob& job : batch) {
    const std::string rid_header =
        job.request_id.empty() ? std::string()
                               : "X-Request-Id: " + job.request_id + "\r\n";
    std::string response;
    int status = 200;
    if (!failure.empty()) {
      status = 500;
      response = obs::http_response(500, "Internal Server Error", "text/plain",
                                    "inference failed: " + failure + "\n",
                                    rid_header);
    } else {
      // Slice this job's rows back out of the batched result.
      nn::Mat mine(job.rows, probs.cols());
      std::memcpy(mine.data(), probs.row(r),
                  job.rows * probs.cols() * sizeof(float));
      response = obs::http_response(
          200, "OK", "application/json",
          render_classify_response(entry_, mine) + "\n", rid_header);
    }
    r += job.rows;
    reg.add(requests_ctr_);
    reg.add(rows_ctr_, job.rows);
    const std::uint64_t e2e_ns = steady_ns() - job.enqueue_ns;
    reg.observe(e2e_hist_, e2e_ns);
    AccessRecord access;
    access.model = entry_.name;
    access.rows = job.rows;
    access.batch_rows = rows;
    access.queue_wait_ns = assembled_ns - job.enqueue_ns;
    access.e2e_ns = e2e_ns;
    access.status = status;
    access.request_id = job.request_id;
    // Log before the response leaves: a client holding its answer can rely
    // on the access record existing (at worst still in the logger ring).
    log_access(access, opt_.slow_request_ms);
    if (job.fd >= 0) {
      obs::send_all(job.fd, response);
      ::close(job.fd);
      job.fd = -1;
    }
    answered_.fetch_add(1, std::memory_order_relaxed);
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mldist::serve
