// mldist_serve: the batched distinguisher-serving daemon (DESIGN.md §15).
//
// The production shape of a trained distinguisher is an online
// oracle-classification service: POST an observable, get back the class the
// model assigns.  ServeDaemon is that service — one poll(2) event-loop
// thread multiplexing every connection (built on the shared HTTP machinery
// of obs/http.hpp: close-on-exec sockets, incremental request reassembly,
// per-connection read deadlines), handing completed classify requests to
// the per-model coalescing workers of serve/batcher.hpp.
//
// Endpoints:
//   POST /v1/classify   {"model":...,"inputs":["<hex>",...]} -> predictions
//                       (serve/protocol.hpp); 400 malformed, 404 unknown
//                       model, 503 queue full (admission control), 408
//                       read deadline expired, 413/431 oversized.
//   GET  /v1/models     the registry listing (name/arch/dims/config_hash)
//   GET  /metrics       Prometheus exposition incl. the serve.* metrics
//   GET  /healthz       {"status":"ok","models":N,...}
//   GET  /runz          obs::RunStatus (phase "serve")
//
// Over an empty registry the daemon is the metrics plane of some other run
// (--serve-metrics on mldist_cli and every bench): /v1/classify answers 404
// and the daemon leaves obs::RunStatus, phase and detail, to that run.
//
// Connection lifecycle: the event loop owns a connection while reading and
// while writing inline responses (non-blocking, POLLOUT-driven).  A
// classify request that clears admission control transfers its fd to the
// model's worker, which answers after the batched forward and closes it —
// the event loop never blocks on inference, inference never blocks on I/O.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"

namespace mldist::serve {

class ModelRegistry;

struct ServeOptions {
  std::uint16_t port = 0;      ///< 0 = ephemeral (port() reports the real one)
  BatchOptions batch;          ///< coalescing window / batch / queue bounds
  int read_timeout_ms = 2000;  ///< per-connection deadline for a full request
  std::size_t max_body_bytes = 1024 * 1024;
  int backlog = 128;
  /// Seed for generated request ids: request n gets the 16-hex rendering of
  /// derive_stream_seed(seed, n), so ids are unique, well-spread and — by
  /// design — free of time-based nondeterminism (tests replay sequences).
  /// Clients that send X-Request-Id keep their own id instead.
  std::uint64_t request_id_seed = 0x1d5eed;
};

class ServeDaemon {
 public:
  /// `registry` must be loaded before start() and outlive the daemon.  An
  /// empty one makes a metrics-only daemon (see the file comment).
  explicit ServeDaemon(const ModelRegistry& registry);
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Bind, spawn one batch worker per registry model, start the event
  /// loop.  Returns false (with `error`) on socket failure; true when
  /// already running.
  bool start(const ServeOptions& options, std::string* error = nullptr);

  /// Close the listen socket, drain the workers (queued requests are still
  /// answered), join every thread.  Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  /// Requests answered inline by the event loop plus requests handed to
  /// workers (i.e. everything routed).
  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Requests refused by admission control (503).
  std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn;

  void event_loop();
  /// Route a completed request; returns the inline response, or "" when
  /// the connection was handed off to a worker.
  std::string route(Conn& conn);
  /// Classify path: assigns/echoes the request id, logs the access line for
  /// inline rejections, hands the fd to a worker on success (conn.fd
  /// becomes -1).
  std::string handle_classify(Conn& conn);

  const ModelRegistry& registry_;
  ServeOptions opt_;
  std::vector<std::unique_ptr<ModelWorker>> workers_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> rid_counter_{0};  ///< next generated request id
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::uint64_t start_ns_ = 0;
  std::thread thread_;
};

}  // namespace mldist::serve
