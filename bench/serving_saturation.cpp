// Serving-plane saturation: offered load vs latency for the batched
// distinguisher daemon, and the throughput case for batching.
//
// Two daemon configurations serve the same untrained gohr-net/16 registry
// (the weights are irrelevant to the cost model — serving is pure forward
// passes):
//
//   batch-1  batch_max_rows=1 — every request runs its own predict call;
//            the per-request forward cost is the floor batching exists to
//            amortise.
//   batched  the default batch cap (64) — requests that queue while a
//            forward runs share the next batched GEMM.
//
// Closed-loop clients (1..N threads, each request waits for its response)
// sweep the offered load; per load point the bench records req/s and the
// p50/p99 end-to-end latency.  Both daemons run for the whole bench and
// their load points alternate — the same client count on batch-1 and on
// batched back to back, the order flipping from point to point — over a
// fixed number of rounds.  Each round yields one speedup, the batched
// saturated req/s (the best point of its sweep) over batch-1's, and the
// bench reports the median round.  Host speed drifts on a shared machine;
// measuring one configuration after the other let that drift decide the
// ratio, while adjacent alternating points see the same host.
//
// The artifact results/BENCH_serving.json records the per-round speedups,
// the per-point medians over rounds and the pinned summary metrics
// (serving_batched_req_per_sec, serving_batch1_req_per_sec,
// serving_batch_speedup, p50/p99 ns per configuration), each a median
// over rounds, with the round speedups' quartiles and the floor beside
// the median speedup.
//
// Acceptance, checked by the exit status (the bench runs under the
// "regress" ctest label):
//   * batched and batch-1 classify responses for the same rows are
//     byte-identical (row independence + deterministic rendering), and
//   * the median round speedup meets the kMinSpeedup floor (skipped under
//     sanitizer builds, where instrumentation on the I/O path drowns the
//     GEMM savings — the byte-identity still gates).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "core/model_io.hpp"
#include "serve/daemon.hpp"
#include "serve/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MLDIST_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MLDIST_BENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace mldist;

// The exit-code floor on the median round speedup.  Quick runs on a calm
// 4-core host measure 1.54-1.71x (1.7-2.0x while every GEMM still copied
// both operands, a cost batching amortised).  While other tenants load
// the host, the pool-parallel batched forward slows far more than
// batch-1's single-threaded one and the ratio can fall below 1
// (DESIGN.md §15).
constexpr double kMinSpeedup = 1.5;
#ifdef MLDIST_BENCH_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// ---------------------------------------------------------------------------
// minimal closed-loop HTTP client
// ---------------------------------------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct Reply {
  int status = 0;
  std::string body;
};

Reply post_classify(std::uint16_t port, const std::string& body) {
  Reply reply;
  const int fd = connect_loopback(port);
  if (fd < 0) return reply;
  const std::string req =
      "POST /v1/classify HTTP/1.1\r\nHost: l\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
  (void)::send(fd, req.data(), req.size(), 0);
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

std::string hex_row(std::uint64_t seed, std::size_t bytes) {
  util::Xoshiro256 rng(seed);
  static const char* digits = "0123456789abcdef";
  std::string hex;
  for (std::size_t i = 0; i < bytes; ++i) {
    const std::uint8_t b = static_cast<std::uint8_t>(rng.next_u64());
    hex += digits[b >> 4];
    hex += digits[b & 0xf];
  }
  return hex;
}

std::string classify_body(const std::vector<std::string>& rows) {
  std::string body = "{\"model\":\"gohr\",\"inputs\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) body += ",";
    body += "\"" + rows[i] + "\"";
  }
  return body + "]}";
}

// ---------------------------------------------------------------------------
// load generation
// ---------------------------------------------------------------------------

struct LoadPoint {
  int clients = 0;
  double req_per_sec = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
};

double percentile(std::vector<double>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted_ns.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted_ns.size())));
  return sorted_ns[idx];
}

/// Closed loop: `clients` threads each fire single-row classify requests
/// back to back for `seconds`.
LoadPoint run_load(std::uint16_t port, int clients, double seconds,
                   std::uint64_t seed) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> errors{0};
  std::atomic<bool> stop{false};
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Per-client distinct row so batches carry heterogeneous inputs.
      const std::string body =
          classify_body({hex_row(seed + static_cast<std::uint64_t>(c), 8)});
      while (!stop.load(std::memory_order_relaxed)) {
        const util::Timer timer;
        const Reply reply = post_classify(port, body);
        if (reply.status == 200) {
          latencies[c].push_back(timer.seconds() * 1e9);
        } else {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  const util::Timer wall;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  const double elapsed = wall.seconds();

  LoadPoint point;
  point.clients = clients;
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  point.completed = all.size();
  point.errors = errors.load();
  point.req_per_sec = static_cast<double>(all.size()) / elapsed;
  point.p50_ns = percentile(all, 0.50);
  point.p99_ns = percentile(all, 0.99);
  return point;
}

/// One configuration's load points over the alternating rounds.
struct ConfigRuns {
  std::vector<std::vector<LoadPoint>> by_load;  ///< [load index][round]
  std::vector<LoadPoint> saturated;             ///< [round] best req/s point
};

/// The value of rank floor(q * size) among the sorted values: q = 0.5 is
/// the median (one round's value, the round count being odd), 0.25 and
/// 0.75 the quartiles.
double quantile_of(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  return values[static_cast<std::size_t>(rank)];
}

double median_of(std::vector<double> values) {
  return quantile_of(std::move(values), 0.5);
}

/// Per load point, the median over rounds of req/s, p50 and p99 (each on
/// its own) with completed and error counts summed: the sweep as one row
/// per client count.
std::vector<LoadPoint> median_sweep(const ConfigRuns& runs) {
  std::vector<LoadPoint> sweep;
  for (const std::vector<LoadPoint>& rounds : runs.by_load) {
    LoadPoint point;
    std::vector<double> rate, p50, p99;
    for (const LoadPoint& p : rounds) {
      point.clients = p.clients;
      point.completed += p.completed;
      point.errors += p.errors;
      rate.push_back(p.req_per_sec);
      p50.push_back(p.p50_ns);
      p99.push_back(p.p99_ns);
    }
    point.req_per_sec = median_of(rate);
    point.p50_ns = median_of(p50);
    point.p99_ns = median_of(p99);
    sweep.push_back(point);
  }
  return sweep;
}

std::string points_json(const std::vector<LoadPoint>& points) {
  std::vector<std::string> items;
  items.reserve(points.size());
  for (const LoadPoint& p : points) {
    util::JsonBuilder j;
    j.field("clients", p.clients)
        .field("req_per_sec", p.req_per_sec)
        .field("p50_ns", p.p50_ns)
        .field("p99_ns", p.p99_ns)
        .field("completed", p.completed)
        .field("errors", p.errors);
    items.push_back(j.str());
  }
  return util::JsonBuilder::array(items);
}

/// Extract the "predictions":[...] slice of a classify response body.
std::string predictions_of(const std::string& body) {
  const std::size_t start = body.find("\"predictions\":[");
  return start == std::string::npos ? std::string() : body.substr(start);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("serving saturation (batched vs batch-1 daemon)", opt);

  // One untrained gohr-net/16 model over a 64-bit input — the SPECK32/64
  // ciphertext-pair shape of a Gohr-style distinguisher.  The depth-16
  // residual tower keeps the batch-1 forward ceiling (~1k req/s on a
  // 4-core host) below the HTTP plane's capacity, so the sweep measures
  // the batching win, not socket overhead.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("mldist_bench_serving_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  {
    util::Xoshiro256 rng(opt.seed);
    auto model = core::build_gohr_net(64, 2, /*depth=*/16, rng);
    core::save_model(*model, "gohr-net/16", 64, 2, dir + "/gohr.nnb");
  }
  serve::ModelRegistry registry;
  if (registry.load_dir(dir) != 1) {
    std::fprintf(stderr, "FAIL: registry did not load the bench model\n");
    return 1;
  }

  const std::vector<int> load = opt.full ? std::vector<int>{1, 2, 4, 8, 16, 32}
                                         : std::vector<int>{1, 4, 16};
  const double seconds = opt.full ? 0.8 : 0.4;
  // Per-round speedups spread by about +-0.3x around the mean on a calm
  // 4-core host; fifteen rounds keep the median's spread near 0.1x.  Odd,
  // so the median is one round's speedup.
  constexpr int kRounds = 15;

  serve::ServeOptions batch1;
  batch1.batch.batch_max_rows = 1;
  serve::ServeOptions batched;  // the default batching configuration

  // Both daemons serve for the whole bench.
  serve::ServeDaemon batch1_daemon(registry);
  serve::ServeDaemon batched_daemon(registry);
  for (auto [daemon, options] : {std::pair{&batch1_daemon, &batch1},
                                 std::pair{&batched_daemon, &batched}}) {
    std::string error;
    if (!daemon->start(*options, &error)) {
      std::fprintf(stderr, "FAIL: daemon start: %s\n", error.c_str());
      return 1;
    }
  }
  const std::uint16_t batch1_port = batch1_daemon.port();
  const std::uint16_t batched_port = batched_daemon.port();

  // --- byte-identity gate ----------------------------------------------------
  // Eight rows in one request to the batched daemon against each row alone
  // on the batch-1 daemon.  The requests also warm both daemons.
  std::vector<std::string> rows;
  for (int i = 0; i < 8; ++i) {
    rows.push_back(hex_row(opt.seed + 1000 + static_cast<std::uint64_t>(i), 8));
  }
  const Reply all = post_classify(batched_port, classify_body(rows));
  bool identical = all.status == 200;
  std::string rebuilt = "\"predictions\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Reply one = post_classify(batch1_port, classify_body({rows[i]}));
    identical = identical && one.status == 200;
    const std::string preds = predictions_of(one.body);
    // "predictions":[{...}]}  ->  {...}
    const std::size_t open = preds.find('{');
    const std::size_t close = preds.rfind('}');
    if (open == std::string::npos || close <= open + 1) {
      identical = false;
      break;
    }
    if (i > 0) rebuilt += ",";
    rebuilt += preds.substr(open, preds.rfind("}]") - open + 1);
  }
  rebuilt += "]}";
  identical = identical &&
              predictions_of(all.body).find(rebuilt) != std::string::npos;
  std::printf("batched vs batch-1 responses byte-identical: %s\n",
              identical ? "yes" : "NO");

  // --- alternating saturation rounds -----------------------------------------
  ConfigRuns batch1_runs, batched_runs;
  batch1_runs.by_load.resize(load.size());
  batched_runs.by_load.resize(load.size());
  std::vector<double> round_speedups;
  std::printf("  %5s %7s | %-26s | %-26s\n", "round", "clients",
              "batch-1 req/s p50/p99 us", "batched req/s p50/p99 us");
  for (int round = 0; round < kRounds; ++round) {
    LoadPoint batch1_best, batched_best;
    for (std::size_t i = 0; i < load.size(); ++i) {
      // Flip the order from point to point and round to round, so neither
      // configuration is always the one measured second.
      const bool batch1_first =
          (static_cast<std::size_t>(round) + i) % 2 == 0;
      LoadPoint p1, pb;
      if (batch1_first) {
        p1 = run_load(batch1_port, load[i], seconds, opt.seed);
        pb = run_load(batched_port, load[i], seconds, opt.seed);
      } else {
        pb = run_load(batched_port, load[i], seconds, opt.seed);
        p1 = run_load(batch1_port, load[i], seconds, opt.seed);
      }
      std::printf("  %5d %7d | %8.0f %8.1f %8.1f | %8.0f %8.1f %8.1f\n",
                  round, load[i], p1.req_per_sec, p1.p50_ns / 1e3,
                  p1.p99_ns / 1e3, pb.req_per_sec, pb.p50_ns / 1e3,
                  pb.p99_ns / 1e3);
      if (p1.errors + pb.errors > 0) {
        std::printf("  %5s %7s   errors: batch-1 %llu, batched %llu\n", "",
                    "", static_cast<unsigned long long>(p1.errors),
                    static_cast<unsigned long long>(pb.errors));
      }
      if (p1.req_per_sec > batch1_best.req_per_sec) batch1_best = p1;
      if (pb.req_per_sec > batched_best.req_per_sec) batched_best = pb;
      batch1_runs.by_load[i].push_back(p1);
      batched_runs.by_load[i].push_back(pb);
    }
    batch1_runs.saturated.push_back(batch1_best);
    batched_runs.saturated.push_back(batched_best);
    round_speedups.push_back(batch1_best.req_per_sec > 0.0
                                 ? batched_best.req_per_sec /
                                       batch1_best.req_per_sec
                                 : 0.0);
    std::printf("  round %d speedup %.2fx\n", round, round_speedups.back());
  }
  batch1_daemon.stop();
  batched_daemon.stop();
  std::filesystem::remove_all(dir);

  // Summary metrics: each the median over rounds of the round's saturated
  // point.
  const auto saturated_median = [](const ConfigRuns& runs,
                                   double LoadPoint::*field) {
    std::vector<double> values;
    for (const LoadPoint& p : runs.saturated) values.push_back(p.*field);
    return median_of(values);
  };
  const double batch1_rate =
      saturated_median(batch1_runs, &LoadPoint::req_per_sec);
  const double batched_rate =
      saturated_median(batched_runs, &LoadPoint::req_per_sec);
  const double speedup = median_of(round_speedups);
  // The rounds' spread, stated next to the floor it is held to.
  const double speedup_q1 = quantile_of(round_speedups, 0.25);
  const double speedup_q3 = quantile_of(round_speedups, 0.75);
  bench::print_rule();
  std::printf("saturated (median of %d rounds): batch-1 %.0f req/s, batched "
              "%.0f req/s; median round speedup %.2fx (quartiles %.2fx to "
              "%.2fx)\n",
              kRounds, batch1_rate, batched_rate, speedup, speedup_q1,
              speedup_q3);

  std::vector<std::string> speedups_json;
  for (double r : round_speedups) {
    speedups_json.push_back(util::JsonBuilder::number(r));
  }
  util::JsonBuilder j;
  j.raw("options", bench::options_json(opt))
      .field("model", "gohr-net/16")
      .field("input_bits", 64)
      .field("batch_max_rows",
             static_cast<std::uint64_t>(batched.batch.batch_max_rows))
      .field("load_seconds", seconds)
      .field("rounds", kRounds)
      .raw("round_speedups", util::JsonBuilder::array(speedups_json))
      .raw("batch1_sweep", points_json(median_sweep(batch1_runs)))
      .raw("batched_sweep", points_json(median_sweep(batched_runs)))
      .field("bitwise_ok", identical)
      .field("serving_batch1_req_per_sec", batch1_rate)
      .field("serving_batched_req_per_sec", batched_rate)
      .field("serving_batch_speedup", speedup)
      .field("serving_batch_speedup_q1", speedup_q1)
      .field("serving_batch_speedup_q3", speedup_q3)
      .field("serving_batch_speedup_floor", kMinSpeedup)
      .field("serving_batch1_p50_ns",
             saturated_median(batch1_runs, &LoadPoint::p50_ns))
      .field("serving_batch1_p99_ns",
             saturated_median(batch1_runs, &LoadPoint::p99_ns))
      .field("serving_batched_p50_ns",
             saturated_median(batched_runs, &LoadPoint::p50_ns))
      .field("serving_batched_p99_ns",
             saturated_median(batched_runs, &LoadPoint::p99_ns));
  bench::write_bench_json("serving", j);

  if (!identical) {
    std::fprintf(stderr, "FAIL: batched and batch-1 classify responses "
                         "differ — row independence broken\n");
    return 1;
  }
  if (kSanitized) {
    std::printf("sanitizer build: responses byte-identical; the %.1fx "
                "throughput floor is not asserted\n",
                kMinSpeedup);
    return 0;
  }
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "FAIL: median round speedup %.2fx below the %.1fx floor\n",
                 speedup, kMinSpeedup);
    return 1;
  }
  std::printf("median round speedup %.2fx (floor %.1fx)\n", speedup,
              kMinSpeedup);
  return 0;
}
