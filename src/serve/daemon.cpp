#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/export.hpp"
#include "obs/http.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/json.hpp"
#include "util/process.hpp"
#include "util/rng.hpp"

namespace mldist::serve {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A client-supplied X-Request-Id, made safe to echo into a header and a
/// JSON log field: non-printable bytes, quotes and backslashes become '_',
/// length capped at 64.  An absent header ("") means "generate one".
std::string sanitize_request_id(std::string rid) {
  if (rid.size() > 64) rid.resize(64);
  for (char& c : rid) {
    if (c < 0x21 || c > 0x7e || c == '"' || c == '\\') c = '_';
  }
  return rid;
}

}  // namespace

/// One in-flight connection owned by the event loop.
struct ServeDaemon::Conn {
  int fd = -1;
  obs::HttpRequestReader reader;
  std::uint64_t deadline_ns = 0;
  std::uint64_t accept_ns = 0;  ///< e2e clock for inline-answered requests
  std::string out;            ///< inline response being written
  std::size_t out_off = 0;
  bool writing = false;

  Conn(int fd_, std::size_t max_body, std::uint64_t deadline,
       std::uint64_t accepted)
      : fd(fd_), reader(8 * 1024, max_body), deadline_ns(deadline),
        accept_ns(accepted) {}
};

ServeDaemon::ServeDaemon(const ModelRegistry& registry)
    : registry_(registry) {}

ServeDaemon::~ServeDaemon() { stop(); }

bool ServeDaemon::start(const ServeOptions& options, std::string* error) {
  if (running()) return true;
  opt_ = options;
  const int fd = obs::listen_tcp(opt_.port, opt_.backlog, &port_, error);
  if (fd < 0) return false;
  listen_fd_ = fd;
  util::set_nonblocking(listen_fd_, true);
  workers_.clear();
  for (const ModelEntry& e : registry_.entries()) {
    workers_.push_back(std::make_unique<ModelWorker>(e, opt_.batch));
  }
  stop_.store(false, std::memory_order_release);
  rid_counter_.store(0, std::memory_order_relaxed);
  start_ns_ = steady_ns();

  // /runz detail: per-model live queue depth and served totals, read from
  // the global registry inside the provider (no `this` capture — the
  // provider may be invoked on a --serve-metrics daemon's thread while this
  // one is tearing down; it is cleared before the workers are).  A daemon
  // without models stamps nothing: it is the metrics plane of another run.
  if (registry_.size() > 0) {
    std::vector<std::string> names;
    names.reserve(registry_.size());
    for (const ModelEntry& e : registry_.entries()) names.push_back(e.name);
    obs::RunStatus::global().set_detail_provider([names] {
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::global().snapshot();
      const auto value =
          [](const std::vector<std::pair<std::string, std::uint64_t>>& list,
             const std::string& name) -> std::uint64_t {
        for (const auto& [n, v] : list) {
          if (n == name) return v;
        }
        return 0;
      };
      std::vector<std::string> models;
      models.reserve(names.size());
      for (const std::string& name : names) {
        const std::string prefix = "serve.model." + name + ".";
        util::JsonBuilder e;
        e.field("model", name)
            .field("queue_depth", value(snap.gauges, prefix + "queue_depth"))
            .field("requests", value(snap.counters, prefix + "requests"))
            .field("rows", value(snap.counters, prefix + "rows"))
            .field("batches", value(snap.counters, prefix + "batches"));
        models.push_back(e.str());
      }
      util::JsonBuilder j;
      j.raw("models", util::JsonBuilder::array(models));
      return j.str();
    });
    obs::RunStatus::global().set_phase("serve");
  }

  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { event_loop(); });
  obs::log_info("serve.daemon", "serving")
      .field("port", static_cast<std::uint64_t>(port_))
      .field("models", static_cast<std::uint64_t>(registry_.size()))
      .field("batch_window_us",
             static_cast<std::uint64_t>(opt_.batch.batch_window_us))
      .field("batch_max_rows",
             static_cast<std::uint64_t>(opt_.batch.batch_max_rows));
  return true;
}

void ServeDaemon::stop() {
  if (!running()) return;
  if (registry_.size() > 0) {
    obs::RunStatus::global().set_detail_provider(nullptr);
    obs::RunStatus::global().set_phase("idle");
  }
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  // Workers drain their queues (every admitted request is answered), then
  // exit.  Only after that is the listen socket torn down for good.
  for (auto& w : workers_) w->stop();
  workers_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  // Info-level access lines drain opportunistically; force the tail out so
  // a stopped daemon leaves a complete access log behind.
  obs::Logger::global().flush();
  running_.store(false, std::memory_order_release);
  port_ = 0;
}

void ServeDaemon::event_loop() {
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<pollfd> pfds;
  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& c : conns) {
      pfds.push_back(pollfd{c->fd,
                            static_cast<short>(c->writing ? POLLOUT : POLLIN),
                            0});
    }
    // 50ms cap keeps stop() and deadline sweeps prompt even on an idle
    // socket set.
    const int ready = ::poll(pfds.data(), pfds.size(), 50);
    const std::uint64_t now = steady_ns();

    if (ready > 0 && (pfds[0].revents & POLLIN) != 0) {
      // Accept everything that is queued; the fds are close-on-exec so
      // campaign fork+exec workers never inherit a client connection.
      while (true) {
        const int client = obs::accept_cloexec(listen_fd_);
        if (client < 0) break;
        util::set_nonblocking(client, true);
        conns.push_back(std::make_unique<Conn>(
            client, opt_.max_body_bytes,
            now + std::uint64_t(opt_.read_timeout_ms) * 1'000'000ull, now));
      }
    }

    for (std::size_t i = 0; i < conns.size();) {
      Conn& c = *conns[i];
      // Conns accepted above were not part of this round's poll set and
      // have no pfds entry.  Treat them as readable: the client usually
      // sent its request right behind the connect, and the socket is
      // nonblocking so a too-eager read just returns EAGAIN and the conn
      // is polled normally from the next round on.
      const short revents = i + 1 < pfds.size() ? pfds[i + 1].revents : POLLIN;
      bool close_conn = false;

      if (!c.writing && (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char buf[4096];
        while (true) {
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            (void)c.reader.feed(buf, static_cast<std::size_t>(n));
            if (c.reader.complete() || c.reader.failed()) break;
          } else if (n == 0) {
            close_conn = true;  // peer closed mid-request
            break;
          } else {
            if (errno == EINTR) continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK) close_conn = true;
            break;
          }
        }
        if (!close_conn) {
          if (c.reader.failed()) {
            c.out = obs::http_error(c.reader.error_status(), "Bad Request",
                                    c.reader.error_detail());
            c.writing = true;
          } else if (c.reader.complete()) {
            const std::string response = route(c);
            if (c.fd < 0) {
              close_conn = true;  // fd handed to a worker
            } else {
              c.out = response;
              c.writing = true;
            }
          }
        }
      }

      if (!close_conn && !c.writing && now >= c.deadline_ns) {
        c.out = obs::http_error(408, "Request Timeout",
                                "request not completed in time");
        c.writing = true;
      }

      if (!close_conn && c.writing &&
          (revents & (POLLOUT | POLLHUP | POLLERR)) != 0) {
        while (c.out_off < c.out.size()) {
          const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                                   c.out.size() - c.out_off, MSG_NOSIGNAL);
          if (n > 0) {
            c.out_off += static_cast<std::size_t>(n);
          } else if (n < 0 && errno == EINTR) {
            continue;
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            close_conn = true;  // client went away
            break;
          }
        }
        if (c.out_off >= c.out.size()) close_conn = true;  // fully answered
      }

      if (close_conn) {
        if (conns[i]->fd >= 0) ::close(conns[i]->fd);
        conns[i] = std::move(conns.back());
        conns.pop_back();
        // pfds no longer lines up with conns for the moved element; its
        // events will be picked up on the next poll round.  Re-check the
        // same index with empty revents so reads are never skipped twice.
        if (i + 1 < pfds.size()) pfds[i + 1].revents = 0;
      } else {
        ++i;
      }
    }
  }
  for (auto& c : conns) {
    if (c->fd >= 0) ::close(c->fd);
  }
}

std::string ServeDaemon::route(Conn& conn) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  obs::count("serve.requests");
  const std::string& method = conn.reader.method();
  const std::string& path = conn.reader.path();

  if (method == "POST" && path == "/v1/classify") {
    return handle_classify(conn);
  }
  if (method != "GET") {
    return obs::http_error(405, "Method Not Allowed",
                           "use GET (or POST /v1/classify)");
  }
  if (path == "/v1/models") {
    return obs::http_response(200, "OK", "application/json",
                              registry_.to_json() + "\n");
  }
  if (path == "/metrics") {
    return obs::http_response(
        200, "OK", "text/plain; version=0.0.4; charset=utf-8",
        obs::render_prometheus(obs::MetricsRegistry::global().snapshot()));
  }
  if (path == "/healthz") {
    util::JsonBuilder j;
    j.field("status", "ok")
        .field("models", static_cast<std::uint64_t>(registry_.size()))
        .field("uptime_ns", steady_ns() - start_ns_)
        .field("requests", requests_.load(std::memory_order_relaxed))
        .field("rejected", rejected_.load(std::memory_order_relaxed));
    return obs::http_response(200, "OK", "application/json", j.str() + "\n");
  }
  if (path == "/runz") {
    return obs::http_response(200, "OK", "application/json",
                              obs::RunStatus::global().to_json() + "\n");
  }
  return obs::http_error(404, "Not Found",
                         "unknown path; try /v1/classify /v1/models "
                         "/metrics /healthz /runz");
}

std::string ServeDaemon::handle_classify(Conn& conn) {
  // Request id (DESIGN.md §16): honour the client's X-Request-Id, else
  // derive one from the seeded per-daemon counter.  Every classify answer
  // — inline rejection or batched response — carries the id in its
  // X-Request-Id header and in exactly one access-log line.
  std::string rid = sanitize_request_id(conn.reader.header("x-request-id"));
  if (rid.empty()) {
    const std::uint64_t n =
        rid_counter_.fetch_add(1, std::memory_order_relaxed);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      util::derive_stream_seed(opt_.request_id_seed, n)));
    rid = buf;
  }
  const std::string rid_header = "X-Request-Id: " + rid + "\r\n";
  const auto reject = [&](int status, const char* status_text,
                          const std::string& message, const std::string& model,
                          std::size_t rows) {
    AccessRecord access;
    access.model = model;
    access.rows = rows;
    access.e2e_ns = steady_ns() - conn.accept_ns;
    access.status = status;
    access.request_id = rid;
    log_access(access, opt_.batch.slow_request_ms);
    return obs::http_response(status, status_text, "text/plain", message + "\n",
                              rid_header);
  };

  ClassifyRequest req;
  std::string error;
  if (!parse_classify_request(conn.reader.body(), &req, &error)) {
    return reject(400, "Bad Request", error, "", 0);
  }
  const ModelEntry* entry = registry_.find(req.model);
  if (entry == nullptr) {
    return reject(404, "Not Found",
                  "unknown model \"" + req.model +
                      "\"; GET /v1/models lists the registry",
                  req.model, req.inputs_hex.size());
  }
  ClassifyJob job;
  job.rows = req.inputs_hex.size();
  job.request_id = rid;
  nn::Mat rows;
  if (!decode_inputs(req.inputs_hex, entry->input_bits, &rows, &error)) {
    return reject(400, "Bad Request", error, req.model, job.rows);
  }
  job.features.assign(rows.data(), rows.data() + rows.rows() * rows.cols());

  ModelWorker* worker = nullptr;
  for (auto& w : workers_) {
    if (&w->entry() == entry) {
      worker = w.get();
      break;
    }
  }
  if (job.rows > opt_.batch.batch_max_rows) {
    return reject(400, "Bad Request",
                  "at most " + std::to_string(opt_.batch.batch_max_rows) +
                      " inputs per request (batch_max_rows)",
                  req.model, job.rows);
  }
  // Hand the connection to the worker: it answers after the batched
  // forward.  The fd must be blocking again — the worker's send_all is a
  // straight blocking write.
  util::set_nonblocking(conn.fd, false);
  job.fd = conn.fd;
  if (worker == nullptr || !worker->submit(std::move(job))) {
    util::set_nonblocking(conn.fd, true);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.rejected");
    return reject(503, "Service Unavailable", "queue full; retry with backoff",
                  req.model, req.inputs_hex.size());
  }
  conn.fd = -1;  // ownership transferred
  return std::string();
}

}  // namespace mldist::serve
