// Workload "serve-classify": ServeDaemon with its default coalescing serves
// one registry model, an untrained gohr-net over a 64-bit input (the
// bench/serving_saturation.cpp model, at depth kDepth), over loopback HTTP.
//
// Load is a closed loop of kLoadThreads client threads with one connection
// per request (the daemon closes every connection); each client sends its
// next request as soon as the last is answered.  Each client cycles
// through a seeded list of requests: 31 of 32 carry one row, 1 of 32
// carries 32 rows.  Every 200 body must equal the in-process predict_proba
// rendering of its rows, the batched == batch-1 contract.  Non-200
// answers (503 admission rejections included) and connect errors count as
// failed requests.
//
// Set-up, repeated: load the registry directory (CRC check and IR warm
// compile), start the daemon and answer one request.  The last kSegments
// set-ups are each followed by an equal share of the load.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/arch_zoo.hpp"
#include "core/model_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace mldist;

constexpr std::size_t kRequestsPerClient = 64;
// One request in this many carries 32 rows.  A one-row request batched
// with a 32-row one waits for its forward pass, which splits latency into
// two modes; at one in 32 the median stays inside the fast mode and the
// 95th percentile inside the slow one, so neither sits on the cliff.
constexpr std::size_t kLargeEvery = 32;
// The load runs as this many segments, each on a freshly started daemon,
// and run.py reports the median segment.  The daemon does its forward
// passes on one thread, so a few seconds of contention on a shared host can
// slow a segment by a third; the median damps that.
constexpr int kSegments = 8;
constexpr std::size_t kInputBytes = 8;
// bench/serving_saturation.cpp serves depth 16.  There a one-row forward
// pass is about 60% of a request's latency, and that share follows the
// shared host's core speed, which swings by up to 1.8x from minute to
// minute; at depth 4 the HTTP plane and batching, which the workload is
// for, dominate.
constexpr std::size_t kDepth = 4;

struct Reply {
  int status = 0;  ///< 0 = connect or transport error
  std::string body;
};

Reply post_classify(std::uint16_t port, const std::string& body) {
  Reply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string req =
      "POST /v1/classify HTTP/1.1\r\nHost: l\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  std::size_t sent = 0;
  while (sent < req.size()) {
    const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) == 0) reply.status = std::atoi(raw.c_str() + 9);
  const std::size_t sep = raw.find("\r\n\r\n");
  if (sep != std::string::npos) reply.body = raw.substr(sep + 4);
  return reply;
}

struct Request {
  std::string body;
  std::string expected;  ///< the in-process rendering of the answer
  std::size_t rows = 0;
};

std::string hex_row(util::Xoshiro256& rng) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  for (std::size_t i = 0; i < kInputBytes; ++i) {
    const auto b = static_cast<std::uint8_t>(rng.next_u64());
    hex += digits[b >> 4];
    hex += digits[b & 0xf];
  }
  return hex;
}

/// The seeded request list of one client, with expected bodies computed by
/// calling predict_proba on the registry's model directly.
std::vector<Request> client_requests(const serve::ModelEntry& entry,
                                     std::uint64_t seed, bool corrupt) {
  util::Xoshiro256 rng(seed);
  // Exactly one request in kLargeEvery carries 32 rows; the seed places
  // them, so every seed offers the same load.
  std::vector<Request> out(kRequestsPerClient);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].rows = i % kLargeEvery == 0 ? 32 : 1;
  }
  for (std::size_t i = out.size() - 1; i > 0; --i) {
    std::swap(out[i].rows, out[rng.next_u64() % (i + 1)].rows);
  }
  for (Request& r : out) {
    std::vector<std::string> inputs;
    r.body = "{\"model\":\"" + entry.name + "\",\"inputs\":[";
    for (std::size_t i = 0; i < r.rows; ++i) {
      inputs.push_back(hex_row(rng));
      r.body += (i > 0 ? ",\"" : "\"") + inputs.back() + "\"";
    }
    r.body += "]}";
    nn::Mat x;
    std::string error;
    if (!serve::decode_inputs(inputs, entry.input_bits, &x, &error)) {
      throw std::runtime_error("serve-classify: " + error);
    }
    r.expected =
        serve::render_classify_response(entry, entry.model->predict_proba(x)) +
        "\n";
  }
  if (corrupt) out.front().expected = " " + out.front().expected;
  return out;
}

struct ClientTally {
  std::vector<double> ms;  ///< latency of each 200 answer
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;     ///< 503
  std::uint64_t errors = 0;      ///< other non-200 or transport error
  std::uint64_t mismatched = 0;  ///< 200 with a body != expected
};

/// One closed-loop client: send the next request, check the answer.
void run_client(std::uint16_t port, const std::vector<Request>& requests,
                const std::atomic<bool>& stop, ClientTally& t) {
  for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const Request& req = requests[i % requests.size()];
    const util::Timer timer;
    const Reply reply = post_classify(port, req.body);
    const double ms = timer.seconds() * 1e3;
    ++t.attempted;
    if (reply.status == 200) {
      t.ms.push_back(ms);
      if (reply.body != req.expected) ++t.mismatched;
    } else if (reply.status == 503) {
      ++t.refused;
    } else {
      ++t.errors;
    }
  }
}

/// Median wall time, in microseconds, of predict_proba on `rows` rows.
double forward_us(nn::Sequential& model, std::size_t rows,
                  std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  nn::Mat x(rows, kInputBytes * 8);
  for (std::size_t i = 0; i < rows * kInputBytes * 8; ++i) {
    x.data()[i] = static_cast<float>(rng.next_u64() & 1);
  }
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const util::Timer timer;
    const nn::Mat p = model.predict_proba(x);
    us.push_back(timer.seconds() * 1e6);
    if (p.rows() != rows) throw std::runtime_error("predict_proba rows");
  }
  return median(us);
}

}  // namespace

Outcome run_serve_classify(const Args& args) {
  Outcome out;
  const std::string dir = args.workdir + "/registry";
  std::filesystem::create_directories(dir);
  {
    util::Xoshiro256 rng(args.seed);
    auto model = core::build_gohr_net(kInputBytes * 8, 2, kDepth, rng);
    core::save_model(*model, "gohr-net/" + std::to_string(kDepth),
                     kInputBytes * 8, 2, dir + "/gohr.nnb");
  }
  // Expected bodies come from an in-process copy of the same registry.
  serve::ModelRegistry reference;
  if (reference.load_dir(dir) != 1) {
    throw std::runtime_error("serve-classify: registry did not load");
  }
  const serve::ModelEntry& entry = reference.entries().front();
  const std::size_t clients = kLoadThreads;
  std::vector<std::vector<Request>> requests;
  for (std::size_t c = 0; c < clients; ++c) {
    requests.push_back(client_requests(
        entry, util::derive_stream_seed(args.seed, 100 + c), args.corrupt));
  }

  // The daemon refers to the registry, so it is declared after it.
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ServeDaemon> daemon;
  const serve::ServeOptions options;  // default coalescing
  const std::string warm_body =
      "{\"model\":\"gohr\",\"inputs\":[\"0001020304050607\"]}";
  const int reps = std::max(args.setup_reps > 0 ? args.setup_reps : 9,
                            kSegments);
  std::uint64_t refused = 0, errors = 0, mismatched = 0;
  std::vector<std::string> segments;
  for (int r = 0; r < reps; ++r) {
    daemon.reset();
    registry.reset();
    {
      const obs::Span span("perfbench.setup", "perfbench");
      const util::Timer timer;
      registry = std::make_unique<serve::ModelRegistry>();
      if (registry->load_dir(dir) != 1) {
        throw std::runtime_error("serve-classify: registry did not load");
      }
      daemon = std::make_unique<serve::ServeDaemon>(*registry);
      std::string error;
      if (!daemon->start(options, &error)) {
        throw std::runtime_error("serve-classify: daemon start: " + error);
      }
      const Reply warm = post_classify(daemon->port(), warm_body);
      out.setup_s.push_back(timer.seconds());
      out.check(warm.status == 200, "warm-up request answered " +
                                        std::to_string(warm.status));
    }
    if (r < reps - kSegments) continue;

    // One load segment on this daemon instance.
    std::vector<ClientTally> tally(clients);
    std::atomic<bool> stop{false};
    const std::uint16_t port = daemon->port();
    const util::Timer window;
    {
      const obs::Span span("perfbench.load", "perfbench");
      std::vector<std::jthread> threads;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          run_client(port, requests[c], stop, tally[c]);
        });
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(args.seconds / kSegments));
      stop.store(true, std::memory_order_relaxed);
    }  // joins the clients
    const double busy_s = window.seconds();
    daemon->stop();

    std::uint64_t answered = 0, failed = 0;
    for (const ClientTally& t : tally) {
      out.unit_ms.insert(out.unit_ms.end(), t.ms.begin(), t.ms.end());
      out.attempted += t.attempted;
      answered += t.ms.size();
      failed += t.refused + t.errors;
      refused += t.refused;
      errors += t.errors;
      mismatched += t.mismatched;
    }
    out.busy_s += busy_s;
    util::JsonBuilder seg;
    seg.field("units", answered).field("failed", failed).field("busy_s", busy_s);
    segments.push_back(seg.str());
  }
  out.failed = refused + errors;
  out.units = static_cast<double>(out.unit_ms.size());
  out.check(mismatched == 0, std::to_string(mismatched) +
                                 " classify bodies differ from predict_proba");
  out.check(out.unit_ms.size() > 0, "no request was answered");

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  obs::HistogramSnapshot queue_wait, batch_size, e2e;
  for (const auto& [name, h] : snap.histograms) {
    if (name == "serve.queue_wait_ns") queue_wait = h;
    if (name == "serve.batch_size") batch_size = h;
    if (name == "serve.e2e_ns") e2e = h;
  }
  out.detail.field("concurrency", static_cast<std::uint64_t>(clients))
      .raw("segments", util::JsonBuilder::array(segments))
      .field("refused", refused)
      .field("errors", errors)
      .field("client_p50_us", median(out.unit_ms) * 1e3)
      .field("queue_wait_p50_ns", queue_wait.p50())
      .field("queue_wait_p99_ns", queue_wait.p99())
      .field("queue_wait_mean_ns", queue_wait.mean())
      .field("batch_rows_mean", batch_size.mean())
      .field("batches", batch_size.count)
      .field("e2e_p99_ns", e2e.p99())
      .field("e2e_mean_ns", e2e.mean())
      .field("forward_us_b1", forward_us(*entry.model, 1, args.seed))
      .field("forward_us_b32", forward_us(*entry.model, 32, args.seed));
  return out;
}

}  // namespace perfbench
