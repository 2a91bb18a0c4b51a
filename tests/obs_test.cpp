// Observability layer (src/obs): registry semantics, the shard-merge
// determinism contract (bitwise-identical counters for any worker count),
// trace round-trip through the Chrome trace_event writer, and the
// disabled-mode cost ceiling.  Runs under the "obs" and "tsan" ctest labels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/arch_zoo.hpp"
#include "core/dataset.hpp"
#include "core/targets.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/http.hpp"
#include "obs/ship.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "serve/daemon.hpp"
#include "serve/registry.hpp"
#include "util/process.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace mldist;
using obs::MetricsRegistry;

// ---------------------------------------------------------------------------
// registry semantics
// ---------------------------------------------------------------------------

TEST(Metrics, CounterFindOrCreateIsStable) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricId a = reg.counter("obs_test.stable");
  const obs::MetricId b = reg.counter("obs_test.stable");
  EXPECT_EQ(a, b);
  reg.add(a, 3);
  reg.add(b, 4);
  EXPECT_EQ(reg.counter_value("obs_test.stable"), 7u);
  EXPECT_EQ(reg.counter_value("obs_test.never_registered"), 0u);
}

TEST(Metrics, KindClashThrows) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("obs_test.kind_clash");
  EXPECT_THROW(reg.gauge("obs_test.kind_clash"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("obs_test.kind_clash"), std::invalid_argument);
}

TEST(Metrics, HistogramTracksCountSumMinMaxBuckets) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricId h = reg.histogram("obs_test.hist");
  reg.observe(h, 0);
  reg.observe(h, 1);
  reg.observe(h, 5);    // bit_width 3
  reg.observe(h, 1000); // bit_width 10
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto it = std::find_if(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& p) { return p.first == "obs_test.hist"; });
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, 4u);
  EXPECT_EQ(it->second.sum, 1006u);
  EXPECT_EQ(it->second.min, 0u);
  EXPECT_EQ(it->second.max, 1000u);
  EXPECT_EQ(it->second.buckets[0], 1u);   // the exact zero
  EXPECT_EQ(it->second.buckets[1], 1u);   // 1
  EXPECT_EQ(it->second.buckets[3], 1u);   // 5
  EXPECT_EQ(it->second.buckets[10], 1u);  // 1000
}

TEST(Metrics, GaugeIsLastWriteWins) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricId g = reg.gauge("obs_test.gauge");
  reg.set_gauge(g, 7);
  reg.set_gauge(g, 3);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto it =
      std::find_if(snap.gauges.begin(), snap.gauges.end(),
                   [](const auto& p) { return p.first == "obs_test.gauge"; });
  ASSERT_NE(it, snap.gauges.end());
  EXPECT_EQ(it->second, 3u);
}

TEST(Metrics, ShardsOfExitedThreadsAreRetained) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricId id = reg.counter("obs_test.retired");
  const std::uint64_t before = reg.counter_value("obs_test.retired");
  {
    std::thread t([&] { reg.add(id, 11); });
    t.join();
  }
  // The thread is gone but its shard merged into the retained accumulator.
  EXPECT_EQ(reg.counter_value("obs_test.retired"), before + 11);
}

TEST(Metrics, SnapshotJsonIsWellFormed) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.add(reg.counter("obs_test.json_counter"), 2);
  reg.set_gauge(reg.gauge("obs_test.json_gauge"), 9);
  reg.observe(reg.histogram("obs_test.json_hist"), 123);
  const std::string json = reg.snapshot().to_json();
  std::string error;
  EXPECT_TRUE(util::json_validate(json, &error)) << error << "\n" << json;
}

// ---------------------------------------------------------------------------
// shard-merge determinism: the tentpole contract
// ---------------------------------------------------------------------------

/// Counters whose names carry the wall-clock suffix are measurements, not
/// deterministic tallies; the contract (DESIGN.md §10) excludes exactly them.
bool is_wallclock(const std::string& name) {
  return name.size() >= 3 && (name.rfind("_ns") == name.size() - 3 ||
                              name.rfind("_us") == name.size() - 3);
}

std::vector<std::pair<std::string, std::uint64_t>> deterministic_counters() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : MetricsRegistry::global().snapshot().counters) {
    if (!is_wallclock(name)) out.emplace_back(name, value);
  }
  return out;
}

/// One representative pipeline slice — parallel dataset collection plus a
/// batched model evaluate — run with a given fan-out.
void run_pipeline(std::size_t threads) {
  const core::GimliHashTarget target(4);
  core::CollectOptions copt;
  copt.seed = 0x0b5eed;
  copt.threads = threads;
  copt.chunk_base_inputs = 16;
  const nn::Dataset data = core::collect_dataset(target, 96, copt);

  util::Xoshiro256 rng(7);
  auto model = core::build_default_mlp(data.x.cols(), 2, rng);
  util::ThreadPool pool(threads);
  (void)model->evaluate(data, /*batch_size=*/16, &pool);
  (void)model->predict(data.x, /*batch_size=*/16, &pool);
}

TEST(Metrics, CountersBitwiseIdenticalAcrossThreadCounts) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset();
  run_pipeline(1);
  const auto serial = deterministic_counters();

  for (std::size_t threads : {2u, 4u}) {
    reg.reset();
    run_pipeline(threads);
    const auto parallel = deterministic_counters();
    ASSERT_EQ(serial.size(), parallel.size()) << threads << " threads";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].first, parallel[i].first);
      EXPECT_EQ(serial[i].second, parallel[i].second)
          << serial[i].first << " with " << threads << " threads";
    }
  }
  // The slice actually exercised the instrumented seams.
  EXPECT_GT(reg.counter_value("core.oracle.queries"), 0u);
  EXPECT_GT(reg.counter_value("core.collect.chunks"), 0u);
  EXPECT_GT(reg.counter_value("nn.evaluate.rows"), 0u);
}

TEST(Metrics, ResetZeroesValuesButKeepsNames) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricId id = reg.counter("obs_test.reset_me");
  reg.add(id, 5);
  reg.reset();
  EXPECT_EQ(reg.counter_value("obs_test.reset_me"), 0u);
  // Same id after reset: the directory survives.
  EXPECT_EQ(reg.counter("obs_test.reset_me"), id);
}

// ---------------------------------------------------------------------------
// tracer round-trip
// ---------------------------------------------------------------------------

TEST(Trace, RoundTripThroughChromeTraceJson) {
  const auto path = std::filesystem::temp_directory_path() /
                    "mldist_obs_test_trace.json";
  std::filesystem::remove(path);
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(path.string());
  ASSERT_TRUE(tracer.enabled());
  {
    obs::Span outer("obs_test.outer", "test");
    outer.arg("answer", 42).arg("label", "x\"y\\z").arg("ratio", 0.5);
    obs::Span inner("obs_test.inner", "test");
  }
  std::thread worker([] { MLDIST_SPAN("obs_test.worker", "test"); });
  worker.join();
  std::string error;
  ASSERT_TRUE(tracer.flush(&error)) << error;
  tracer.disable();

  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(util::json_validate(text, &error)) << error;
  // The spans and their args survived, including the worker thread's.
  EXPECT_NE(text.find("\"obs_test.outer\""), std::string::npos);
  EXPECT_NE(text.find("\"obs_test.inner\""), std::string::npos);
  EXPECT_NE(text.find("\"obs_test.worker\""), std::string::npos);
  EXPECT_NE(text.find("\"answer\":42"), std::string::npos);
  EXPECT_NE(text.find("x\\\"y\\\\z"), std::string::npos);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"dropped_events\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Trace, FlushIsIdempotent) {
  const auto path = std::filesystem::temp_directory_path() /
                    "mldist_obs_test_trace2.json";
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.enable(path.string());
  { MLDIST_SPAN("obs_test.twice", "test"); }
  std::string error;
  ASSERT_TRUE(tracer.flush(&error)) << error;
  const auto first_size = std::filesystem::file_size(path);
  ASSERT_TRUE(tracer.flush(&error)) << error;
  EXPECT_EQ(std::filesystem::file_size(path), first_size);
  tracer.disable();
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// disabled-mode cost ceiling
// ---------------------------------------------------------------------------

TEST(Trace, DisabledSpansAreCheap) {
  obs::Tracer& tracer = obs::Tracer::global();
  ASSERT_FALSE(tracer.enabled())
      << "unset MLDIST_TRACE when running the obs tests";
  const std::string name = "obs_test.disabled";
  constexpr int kIters = 1'000'000;
  const util::Timer timer;
  for (int i = 0; i < kIters; ++i) {
    obs::Span span(name, "test");
    span.arg("i", i);
  }
  const double per_op_ns = timer.seconds() * 1e9 / kIters;
  // One relaxed load plus an inactive-arg branch.  The ceiling is two
  // orders of magnitude above the expected cost so the assertion never
  // flakes on a loaded CI box while still catching an accidental
  // always-on allocation or lock.
  EXPECT_LT(per_op_ns, 500.0);
}

// ---------------------------------------------------------------------------
// quantile estimation over the bit-width buckets
// ---------------------------------------------------------------------------

const obs::HistogramSnapshot* find_hist(const obs::MetricsSnapshot& snap,
                                        const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

TEST(Quantiles, EmptyHistogramIsZero) {
  MetricsRegistry& reg = MetricsRegistry::global();
  (void)reg.histogram("obs_test.q_empty");
  const auto snap = reg.snapshot();
  const auto* h = find_hist(snap, "obs_test.q_empty");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->p50(), 0u);
  EXPECT_EQ(h->p90(), 0u);
  EXPECT_EQ(h->p99(), 0u);
}

TEST(Quantiles, SingleValueAllQuantilesClampToIt) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricId id = reg.histogram("obs_test.q_single");
  reg.observe(id, 7);  // bit_width 3, bucket upper edge 7
  const auto snap = reg.snapshot();
  const auto* h = find_hist(snap, "obs_test.q_single");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->p50(), 7u);
  EXPECT_EQ(h->p90(), 7u);
  EXPECT_EQ(h->p99(), 7u);
  EXPECT_EQ(h->quantile(0.0), 7u);   // rank clamps to 1
  EXPECT_EQ(h->quantile(1.0), 7u);
}

TEST(Quantiles, MultiBucketUpperBoundsAndClamping) {
  // Observations {1, 2, 4, 1000} land in buckets 1, 2, 3 and 10.  A
  // quantile answers with the upper edge of the bucket holding that rank,
  // clamped into [min, max]:
  //   p50 -> rank 2 -> bucket 2 (values 2..3)   -> upper edge 3
  //   p90 -> rank 4 -> bucket 10 (512..1023)    -> 1023, clamped to max 1000
  //   p99 -> rank 4 -> same                     -> 1000
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricId id = reg.histogram("obs_test.q_multi");
  for (std::uint64_t v : {1ull, 2ull, 4ull, 1000ull}) reg.observe(id, v);
  const auto snap = reg.snapshot();
  const auto* h = find_hist(snap, "obs_test.q_multi");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->p50(), 3u);
  EXPECT_EQ(h->p90(), 1000u);
  EXPECT_EQ(h->p99(), 1000u);
  EXPECT_EQ(h->quantile(0.25), 1u);  // rank 1 -> bucket 1 upper edge 1
}

TEST(Quantiles, ZeroObservationsStayInBucketZero) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricId id = reg.histogram("obs_test.q_zeros");
  for (int i = 0; i < 10; ++i) reg.observe(id, 0);
  reg.observe(id, 100);  // bucket 7 (64..127)
  const auto snap = reg.snapshot();
  const auto* h = find_hist(snap, "obs_test.q_zeros");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->p50(), 0u);    // rank 6 of 11 is still in the zero bucket
  EXPECT_EQ(h->p99(), 100u);  // bucket upper 127 clamped to max
}

TEST(Quantiles, SnapshotJsonCarriesQuantiles) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.observe(reg.histogram("obs_test.q_json"), 42);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// structured logger
// ---------------------------------------------------------------------------

std::string read_file_text(const std::filesystem::path& p) {
  std::ifstream in(p);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::vector<std::string> file_lines(const std::filesystem::path& p) {
  std::vector<std::string> out;
  std::ifstream in(p);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

/// Redirect the global logger to a fresh temp file for one test, restoring
/// the stderr sink (and the info level) afterwards.
class ScopedLogFile {
 public:
  explicit ScopedLogFile(const char* tag) {
    path_ = std::filesystem::temp_directory_path() /
            (std::string("mldist_log_test_") + tag + ".jsonl");
    std::filesystem::remove(path_);
    std::string error;
    ok_ = obs::Logger::global().set_file(path_.string(), &error);
    EXPECT_TRUE(ok_) << error;
  }
  ~ScopedLogFile() {
    obs::Logger::global().flush();
    obs::Logger::global().set_file("");
    obs::Logger::global().set_level(obs::LogLevel::kInfo);
    std::filesystem::remove(path_);
  }
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  bool ok_ = false;
};

TEST(Log, ParseLevelRoundTrip) {
  obs::LogLevel lvl;
  for (const char* name : {"debug", "info", "warn", "error", "off"}) {
    ASSERT_TRUE(obs::parse_level(name, lvl)) << name;
    EXPECT_STREQ(obs::level_name(lvl), name);
  }
  EXPECT_FALSE(obs::parse_level("verbose", lvl));
  EXPECT_FALSE(obs::parse_level("", lvl));
}

TEST(Log, RecordsAreWellFormedJsonlWithFields) {
  ScopedLogFile file("fields");
  obs::log_info("obs_test", "hello \"quoted\" \\ world")
      .field("answer", 42)
      .field("ratio", 0.5)
      .field("name", "x\ny");
  obs::Logger::global().flush();

  const auto lines = file_lines(file.path());
  ASSERT_EQ(lines.size(), 1u);
  std::string error;
  EXPECT_TRUE(util::json_validate(lines[0], &error)) << error << "\n"
                                                     << lines[0];
  EXPECT_NE(lines[0].find("\"ts_ns\":"), std::string::npos);
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"tid\":"), std::string::npos);
  EXPECT_NE(lines[0].find("\"component\":\"obs_test\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"answer\":42"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ratio\":"), std::string::npos);
}

TEST(Log, LevelThresholdSuppresses) {
  ScopedLogFile file("levels");
  obs::Logger::global().set_level(obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::Logger::global().enabled(obs::LogLevel::kInfo));
  obs::log_info("obs_test", "suppressed info");
  obs::log_debug("obs_test", "suppressed debug");
  obs::log_warn("obs_test", "visible warn");
  obs::log_error("obs_test", "visible error");
  obs::Logger::global().flush();

  const std::string text = read_file_text(file.path());
  EXPECT_EQ(text.find("suppressed"), std::string::npos);
  EXPECT_NE(text.find("visible warn"), std::string::npos);
  EXPECT_NE(text.find("visible error"), std::string::npos);
}

TEST(Log, OffSilencesEverything) {
  ScopedLogFile file("off");
  obs::Logger::global().set_level(obs::LogLevel::kOff);
  obs::log_error("obs_test", "not even errors");
  obs::Logger::global().flush();
  EXPECT_TRUE(read_file_text(file.path()).empty());
}

TEST(Log, ConcurrentUrgentProducersLoseNothing) {
  // warn/error records force a blocking drain, so even ring-size bursts
  // from many threads all land on the sink; every line stays one valid
  // JSON object (no interleaving).  This is the test the "tsan" label
  // exists for: emitters race the draining thread on the ring.
  ScopedLogFile file("mt");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;  // kThreads * kPerThread > ring size
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::log_warn("obs_test.mt", "burst").field("t", t).field("i", i);
      }
    });
  }
  for (auto& t : threads) t.join();
  obs::Logger::global().flush();

  const auto lines = file_lines(file.path());
  EXPECT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  std::string error;
  for (const std::string& line : lines) {
    ASSERT_TRUE(util::json_validate(line, &error)) << error << "\n" << line;
  }
}

TEST(Log, SetFileFailureLeavesSinkUsable) {
  std::string error;
  EXPECT_FALSE(obs::Logger::global().set_file(
      "/nonexistent_dir_zzz/log.jsonl", &error));
  EXPECT_FALSE(error.empty());
  // Still able to log (to stderr) afterwards without crashing.
  obs::log_info("obs_test", "sink survived a bad set_file");
  obs::Logger::global().flush();
}

// ---------------------------------------------------------------------------
// run manifest / run status
// ---------------------------------------------------------------------------

TEST(Manifest, ToJsonValidatesAndCarriesProvenance) {
  obs::RunManifest& m = obs::RunManifest::current();
  const std::string json = m.to_json();
  std::string error;
  EXPECT_TRUE(util::json_validate(json, &error)) << error << "\n" << json;
  EXPECT_FALSE(m.run_id.empty());
  EXPECT_FALSE(m.git_describe.empty());
  EXPECT_FALSE(m.hostname.empty());
  EXPECT_FALSE(m.build_flags.empty());
  EXPECT_EQ(m.cores, std::thread::hardware_concurrency());
  for (const char* key :
       {"\"run_id\"", "\"config_hash\"", "\"seed\"", "\"kernel\"", "\"git\"",
        "\"hostname\"", "\"cores\"", "\"build\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Manifest, ConfigHashIsDeterministic) {
  obs::RunManifest& m = obs::RunManifest::current();
  const std::string saved_hash = m.config_hash;
  const std::uint64_t saved_seed = m.seed;

  m.set_config("{\"a\":1}", 7);
  const std::string first = m.config_hash;
  m.set_config("{\"a\":1}", 7);
  EXPECT_EQ(m.config_hash, first);
  m.set_config("{\"a\":2}", 7);
  EXPECT_NE(m.config_hash, first);

  m.config_hash = saved_hash;
  m.seed = saved_seed;
}

TEST(Manifest, RunStatusReflectsPhaseAndEpoch) {
  obs::RunStatus& status = obs::RunStatus::global();
  status.set_phase("obs_test_phase");
  status.set_epoch(17);
  const std::string json = status.to_json();
  std::string error;
  EXPECT_TRUE(util::json_validate(json, &error)) << error;
  EXPECT_NE(json.find("\"phase\":\"obs_test_phase\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":17"), std::string::npos);
  EXPECT_NE(json.find("\"manifest\":{"), std::string::npos);
  status.set_phase("idle");
  status.set_epoch(0);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition grammar
// ---------------------------------------------------------------------------

bool prom_name_ok(const std::string& name) {
  if (name.empty()) return false;
  auto first_ok = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' ||
           c == ':';
  };
  auto rest_ok = [&](char c) {
    return first_ok(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!first_ok(name[0])) return false;
  for (char c : name) {
    if (!rest_ok(c)) return false;
  }
  return true;
}

/// Validate Prometheus text exposition format 0.0.4 as this repo emits it.
/// Returns "" when the text conforms, otherwise a description of the first
/// violation.  Checked: HELP/TYPE precede their samples, metric-name
/// charset, counters end in _total, histogram `le` edges strictly increase
/// with cumulative non-decreasing counts ending at +Inf == _count, and unit
/// suffix conventions (`_ns` is a unit, so it never follows `_total`).
std::string check_prometheus(const std::string& text) {
  std::map<std::string, std::string> type_of;   // metric -> TYPE
  std::map<std::string, bool> help_of;          // metric -> HELP seen
  std::string cur_hist;                         // histogram being walked
  double last_le = -1.0;
  std::uint64_t last_bucket_count = 0;
  bool saw_inf = false;
  std::uint64_t inf_count = 0;

  auto fail = [](std::size_t lineno, const std::string& why) {
    return "line " + std::to_string(lineno + 1) + ": " + why;
  };

  std::vector<std::string> lines;
  {
    std::size_t start = 0;
    while (start < text.size()) {
      std::size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
  }

  auto end_histogram = [&](std::size_t i) -> std::string {
    if (cur_hist.empty()) return "";
    if (!saw_inf) return fail(i, cur_hist + ": no +Inf bucket");
    cur_hist.clear();
    return "";
  };

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;

    if (line[0] == '#') {
      // "# HELP name text" or "# TYPE name type"
      if (line.rfind("# HELP ", 0) == 0) {
        const std::size_t sp = line.find(' ', 7);
        if (sp == std::string::npos) return fail(i, "HELP without text");
        help_of[line.substr(7, sp - 7)] = true;
      } else if (line.rfind("# TYPE ", 0) == 0) {
        const std::size_t sp = line.find(' ', 7);
        if (sp == std::string::npos) return fail(i, "TYPE without kind");
        const std::string name = line.substr(7, sp - 7);
        const std::string kind = line.substr(sp + 1);
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped") {
          return fail(i, "unknown TYPE '" + kind + "'");
        }
        if (type_of.count(name) != 0) {
          return fail(i, "duplicate TYPE for " + name);
        }
        type_of[name] = kind;
      } else {
        return fail(i, "comment is neither HELP nor TYPE");
      }
      continue;
    }

    // Sample: name[{labels}] value
    const std::size_t brace = line.find('{');
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) return fail(i, "sample without value");
    const std::string name =
        line.substr(0, std::min(brace, space));
    if (!prom_name_ok(name)) {
      return fail(i, "bad metric name '" + name + "'");
    }
    if (name.find("_total_ns") != std::string::npos ||
        name.find("_total_us") != std::string::npos) {
      return fail(i, name + ": unit suffix after _total");
    }

    // Resolve the base metric for histogram series suffixes.
    std::string base = name;
    bool is_bucket = false;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::size_t n = std::strlen(suffix);
      if (base.size() > n &&
          base.compare(base.size() - n, n, suffix) == 0) {
        const std::string stripped = base.substr(0, base.size() - n);
        if (type_of.count(stripped) != 0 &&
            type_of[stripped] == "histogram") {
          is_bucket = std::strcmp(suffix, "_bucket") == 0;
          base = stripped;
          break;
        }
      }
    }
    if (type_of.count(base) == 0) {
      return fail(i, base + ": sample before TYPE");
    }
    if (!help_of[base]) return fail(i, base + ": sample before HELP");
    if (type_of[base] == "counter" &&
        (base.size() < 6 ||
         base.compare(base.size() - 6, 6, "_total") != 0)) {
      return fail(i, base + ": counter without _total suffix");
    }

    // Value must parse as a number.
    const std::string value_text = line.substr(line.rfind(' ') + 1);
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0') {
      return fail(i, "unparseable value '" + value_text + "'");
    }

    if (is_bucket) {
      const std::size_t le_pos = line.find("le=\"");
      if (le_pos == std::string::npos) {
        return fail(i, base + ": bucket without le label");
      }
      const std::size_t le_end = line.find('"', le_pos + 4);
      const std::string le_text = line.substr(le_pos + 4, le_end - le_pos - 4);
      if (base != cur_hist) {
        const std::string err = end_histogram(i);
        if (!err.empty()) return err;
        cur_hist = base;
        last_le = -1.0;
        last_bucket_count = 0;
        saw_inf = false;
      }
      const std::uint64_t count = static_cast<std::uint64_t>(value);
      if (count < last_bucket_count) {
        return fail(i, base + ": cumulative bucket count decreased");
      }
      last_bucket_count = count;
      if (le_text == "+Inf") {
        saw_inf = true;
        inf_count = count;
      } else {
        if (saw_inf) return fail(i, base + ": bucket after +Inf");
        char* le_end_p = nullptr;
        const double le = std::strtod(le_text.c_str(), &le_end_p);
        if (le_end_p == le_text.c_str()) {
          return fail(i, base + ": unparseable le '" + le_text + "'");
        }
        if (le <= last_le) {
          return fail(i, base + ": le edges not strictly increasing");
        }
        last_le = le;
      }
    } else if (base == cur_hist && name == base + "_count") {
      if (static_cast<std::uint64_t>(value) != inf_count) {
        return fail(i, base + ": _count != +Inf bucket");
      }
    }
  }
  const std::string err = end_histogram(lines.size() - 1);
  if (!err.empty()) return err;
  return "";
}

TEST(Export, PrometheusNamesAreSanitized) {
  EXPECT_EQ(obs::prometheus_name("core.oracle.queries", true),
            "mldist_core_oracle_queries_total");
  EXPECT_EQ(obs::prometheus_name("nn.fit.epoch_ns", false),
            "mldist_nn_fit_epoch_ns");
  // Already-suffixed counters are not double-suffixed.
  EXPECT_EQ(obs::prometheus_name("x.y_total", true), "mldist_x_y_total");
  EXPECT_TRUE(prom_name_ok(obs::prometheus_name("weird-name!{}", true)));
}

TEST(Export, GrammarCheckerCatchesViolations) {
  // The checker itself must reject malformed exposition, otherwise the
  // live test below proves nothing.
  EXPECT_NE(check_prometheus("mldist_x 1\n"), "");  // sample before TYPE
  EXPECT_NE(check_prometheus("# HELP mldist_x h\n"
                             "# TYPE mldist_x counter\n"
                             "mldist_x 1\n"),
            "");  // counter without _total
  EXPECT_NE(check_prometheus("# HELP mldist_h h\n"
                             "# TYPE mldist_h histogram\n"
                             "mldist_h_bucket{le=\"4\"} 2\n"
                             "mldist_h_bucket{le=\"2\"} 3\n"
                             "mldist_h_bucket{le=\"+Inf\"} 3\n"
                             "mldist_h_sum 5\n"
                             "mldist_h_count 3\n"),
            "");  // le edges decrease
  EXPECT_NE(check_prometheus("# HELP mldist_h h\n"
                             "# TYPE mldist_h histogram\n"
                             "mldist_h_bucket{le=\"2\"} 3\n"
                             "mldist_h_bucket{le=\"4\"} 2\n"
                             "mldist_h_bucket{le=\"+Inf\"} 2\n"
                             "mldist_h_sum 5\n"
                             "mldist_h_count 2\n"),
            "");  // cumulative count decreases
  EXPECT_NE(check_prometheus("# HELP mldist_h h\n"
                             "# TYPE mldist_h histogram\n"
                             "mldist_h_bucket{le=\"2\"} 3\n"
                             "mldist_h_sum 5\n"
                             "mldist_h_count 3\n"),
            "");  // no +Inf bucket
  EXPECT_NE(check_prometheus("# HELP mldist_x_total_ns h\n"
                             "# TYPE mldist_x_total_ns counter\n"
                             "mldist_x_total_ns 1\n"),
            "");  // unit suffix after _total
  EXPECT_EQ(check_prometheus("# HELP mldist_ok_total h\n"
                             "# TYPE mldist_ok_total counter\n"
                             "mldist_ok_total 1\n"),
            "");
}

TEST(Export, RenderedSnapshotPassesGrammar) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.add(reg.counter("obs_test.export.counter"), 5);
  reg.set_gauge(reg.gauge("obs_test.export.gauge"), 3);
  const obs::MetricId h = reg.histogram("obs_test.export.hist_ns");
  for (std::uint64_t v : {0ull, 1ull, 9ull, 100000ull}) reg.observe(h, v);
  const std::string text = obs::render_prometheus(reg.snapshot());
  EXPECT_EQ(check_prometheus(text), "") << text;
  EXPECT_NE(text.find("mldist_obs_test_export_counter_total 5"),
            std::string::npos);
  EXPECT_NE(text.find("mldist_build_info{run_id=\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// the --serve-metrics plane: a serving daemon with no models, driven by a
// raw-socket client that speaks the same protocol as curl
// ---------------------------------------------------------------------------

const serve::ModelRegistry kNoModels;

struct HttpResponse {
  int status = 0;
  std::string body;
};

HttpResponse http_get(std::uint16_t port, const std::string& path) {
  HttpResponse res;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return res;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return res;
  }
  const std::string req = "GET " + path +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) == 0) {
    res.status = std::atoi(raw.c_str() + 9);
  }
  const std::size_t sep = raw.find("\r\n\r\n");
  if (sep != std::string::npos) res.body = raw.substr(sep + 4);
  return res;
}

TEST(Server, ServesMetricsHealthzRunzAnd404) {
  serve::ServeDaemon server(kNoModels);
  std::string error;
  ASSERT_TRUE(server.start({}, &error)) << error;  // ephemeral port
  ASSERT_NE(server.port(), 0);

  const HttpResponse health = http_get(server.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"uptime_ns\""), std::string::npos);

  obs::RunStatus::global().set_phase("obs_test_server");
  const HttpResponse runz = http_get(server.port(), "/runz");
  EXPECT_EQ(runz.status, 200);
  std::string json_error;
  EXPECT_TRUE(util::json_validate(runz.body, &json_error)) << json_error;
  EXPECT_NE(runz.body.find("\"phase\":\"obs_test_server\""),
            std::string::npos);
  EXPECT_NE(runz.body.find("\"manifest\":{"), std::string::npos);
  obs::RunStatus::global().set_phase("idle");

  const HttpResponse metrics = http_get(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(check_prometheus(metrics.body), "") << metrics.body;

  EXPECT_EQ(http_get(server.port(), "/nope").status, 404);
  EXPECT_GE(server.requests(), 4u);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(Server, DoubleStartIsHarmlessAndPortIsStable) {
  serve::ServeDaemon server(kNoModels);
  ASSERT_TRUE(server.start({}));
  const std::uint16_t port = server.port();
  EXPECT_TRUE(server.start({}));  // already running -> true, same port
  EXPECT_EQ(server.port(), port);
  server.stop();
}

// The acceptance check of the tentpole: scrape /metrics WHILE a real
// training loop runs, validate every snapshot against the exposition
// grammar, and require the fit-progress counter to be monotonically
// increasing across epochs — live observability, not post-hoc.
TEST(Server, LiveMetricsDuringTrainingAreGrammaticalAndMonotone) {
  serve::ServeDaemon server(kNoModels);
  std::string error;
  ASSERT_TRUE(server.start({}, &error)) << error;

  const core::GimliHashTarget target(4);
  core::CollectOptions copt;
  copt.seed = 0xfeed;
  const nn::Dataset data = core::collect_dataset(target, 128, copt);
  util::Xoshiro256 rng(3);
  auto model = core::build_default_mlp(data.x.cols(), 2, rng);

  std::vector<std::string> scrapes;
  std::vector<std::uint64_t> epoch_counts;
  nn::FitOptions fopt;
  fopt.epochs = 3;
  fopt.batch_size = 32;
  fopt.on_epoch = [&](const nn::EpochStats&) {
    const HttpResponse res = http_get(server.port(), "/metrics");
    ASSERT_EQ(res.status, 200);
    scrapes.push_back(res.body);
    // Pull the sample line (not the HELP line) out of the exposition.
    const std::string key = "\nmldist_nn_fit_epochs_total ";
    const std::size_t pos = res.body.find(key);
    ASSERT_NE(pos, std::string::npos);
    epoch_counts.push_back(
        std::strtoull(res.body.c_str() + pos + key.size(), nullptr, 10));
  };
  nn::Adam opt(0.01f);
  (void)model->fit(data, opt, fopt);
  server.stop();

  ASSERT_EQ(scrapes.size(), 3u);
  for (const std::string& text : scrapes) {
    EXPECT_EQ(check_prometheus(text), "") << text;
  }
  EXPECT_LT(epoch_counts[0], epoch_counts[1]);
  EXPECT_LT(epoch_counts[1], epoch_counts[2]);
}

// ---------------------------------------------------------------------------
// HTTP plane hardening (ISSUE 9): incremental request reassembly, read
// deadlines instead of indefinite blocking, close-on-exec listen/accept
// sockets.  Each test here failed against the pre-hardening server.
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

/// Drain everything the server sends until it closes, return the status.
int read_status(int fd) {
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  return raw.rfind("HTTP/1.1 ", 0) == 0 ? std::atoi(raw.c_str() + 9) : 0;
}

TEST(HttpReader, ReassemblesTrickledRequestAcrossFeeds) {
  obs::HttpRequestReader reader;
  const std::string req =
      "POST /v1/x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  // One byte at a time: headers and body may arrive in any fragmentation.
  for (char c : req) {
    ASSERT_FALSE(reader.complete());
    ASSERT_TRUE(reader.feed(&c, 1));
  }
  ASSERT_TRUE(reader.complete());
  EXPECT_EQ(reader.method(), "POST");
  EXPECT_EQ(reader.path(), "/v1/x");
  EXPECT_EQ(reader.body(), "hello");
}

TEST(HttpReader, StripsQueryAndHandlesNoBody) {
  obs::HttpRequestReader reader;
  const std::string req = "GET /metrics?name=x HTTP/1.1\r\nHost: h\r\n\r\n";
  ASSERT_TRUE(reader.feed(req.data(), req.size()));
  ASSERT_TRUE(reader.complete());
  EXPECT_EQ(reader.path(), "/metrics");
  EXPECT_EQ(reader.body(), "");
}

TEST(HttpReader, RejectsMalformedOversizedAndExcessInput) {
  {  // not HTTP at all
    obs::HttpRequestReader reader;
    const std::string req = "garbage\r\n\r\n";
    reader.feed(req.data(), req.size());
    ASSERT_TRUE(reader.failed());
    EXPECT_EQ(reader.error_status(), 400);
  }
  {  // headers beyond the cap -> 431
    obs::HttpRequestReader reader(/*max_header=*/64, /*max_body=*/64);
    const std::string req =
        "GET /x HTTP/1.1\r\nX-Pad: " + std::string(128, 'a') + "\r\n\r\n";
    reader.feed(req.data(), req.size());
    ASSERT_TRUE(reader.failed());
    EXPECT_EQ(reader.error_status(), 431);
  }
  {  // the 431 verdict does not depend on where recv splits the bytes: a
     // terminator starting at the cap (byte 64) is accepted however the
     // block arrives, one starting a byte later never is
    const std::string head = "GET /x HTTP/1.1\r\nX-Pad: ";
    for (const std::size_t terminator_at : {64u, 65u}) {
      const std::string req =
          head + std::string(terminator_at - head.size(), 'a') + "\r\n\r\n";
      for (std::size_t split = 0; split <= req.size(); ++split) {
        obs::HttpRequestReader reader(/*max_header=*/64, /*max_body=*/64);
        reader.feed(req.data(), split);
        reader.feed(req.data() + split, req.size() - split);
        if (terminator_at == 64) {
          EXPECT_TRUE(reader.complete()) << "split at " << split;
        } else {
          ASSERT_TRUE(reader.failed()) << "split at " << split;
          EXPECT_EQ(reader.error_status(), 431) << "split at " << split;
        }
      }
    }
  }
  {  // declared body beyond the cap -> 413
    obs::HttpRequestReader reader(/*max_header=*/1024, /*max_body=*/8);
    const std::string req = "POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
    reader.feed(req.data(), req.size());
    ASSERT_TRUE(reader.failed());
    EXPECT_EQ(reader.error_status(), 413);
  }
  {  // bytes past the declared Content-Length -> 400
    obs::HttpRequestReader reader;
    const std::string req =
        "POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nabEXTRA";
    reader.feed(req.data(), req.size());
    ASSERT_TRUE(reader.failed());
    EXPECT_EQ(reader.error_status(), 400);
  }
}

TEST(ParsePort, AcceptsDecimalZeroTo65535Only) {
  EXPECT_EQ(obs::parse_port("0"), std::optional<std::uint16_t>(0));
  EXPECT_EQ(obs::parse_port("8080"), std::optional<std::uint16_t>(8080));
  EXPECT_EQ(obs::parse_port("65535"), std::optional<std::uint16_t>(65535));
  for (const char* bad : {"", "-5", "+80", " 80", "80x", "65536", "abc"}) {
    EXPECT_FALSE(obs::parse_port(bad).has_value()) << "'" << bad << "'";
  }
}

// Regression (satellite fix): the pre-fix server did one blocking recv and
// parsed whatever arrived, so a request split across two send(2) calls got
// truncated.  Now the connection loop reassembles until complete.
TEST(Server, ReassemblesRequestSplitAcrossTwoSends) {
  serve::ServeDaemon server(kNoModels);
  ASSERT_TRUE(server.start({}));
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string part1 = "GET /met";
  const std::string part2 = "rics HTTP/1.1\r\nHost: h\r\n\r\n";
  ASSERT_EQ(::send(fd, part1.data(), part1.size(), 0),
            static_cast<ssize_t>(part1.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(::send(fd, part2.data(), part2.size(), 0),
            static_cast<ssize_t>(part2.size()));
  EXPECT_EQ(read_status(fd), 200);
  ::close(fd);
  server.stop();
}

// Regression (satellite fix): a client that connects and sends nothing used
// to park the single server thread in a timeout-less recv, starving every
// other scraper until the idle client went away.  Now the read deadline
// answers 408 and the server moves on; a concurrent scrape must succeed
// while the idle connection is still open.
TEST(Server, IdleClientGets408AndDoesNotStarveScrapes) {
  serve::ServeDaemon server(kNoModels);
  ASSERT_TRUE(server.start({}));

  const int idle_fd = connect_loopback(server.port());
  ASSERT_GE(idle_fd, 0);
  // Give the server time to accept the idle connection and enter its read
  // loop before scraping.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  int scrape_status = 0;
  std::thread scraper([&] {
    scrape_status = http_get(server.port(), "/healthz").status;
  });
  // The idle connection is answered 408 once its read budget expires...
  EXPECT_EQ(read_status(idle_fd), 408);
  ::close(idle_fd);
  scraper.join();
  // ...and the concurrent scrape was served rather than queued behind it.
  EXPECT_EQ(scrape_status, 200);
  server.stop();
}

TEST(Server, OversizedHeadersAreRejectedWith431) {
  serve::ServeDaemon server(kNoModels);
  ASSERT_TRUE(server.start({}));
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string req =
      "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(16 * 1024, 'a') +
      "\r\n\r\n";
  (void)::send(fd, req.data(), req.size(), 0);
  EXPECT_EQ(read_status(fd), 431);
  ::close(fd);
  server.stop();
}

// Regression (satellite fix): the listen socket used to be created without
// FD_CLOEXEC, so a worker fork+exec'd while the server ran inherited the
// bound fd and kept the port alive after stop().  With close-on-exec
// sockets the port is immediately re-bindable (no SO_REUSEADDR here — the
// raw bind only succeeds when nothing holds the address).
TEST(Server, ListenSocketIsNotInheritedBySpawnedChildren) {
  serve::ServeDaemon server(kNoModels);
  ASSERT_TRUE(server.start({}));
  const std::uint16_t port = server.port();

  // Child spawned while the server is live: before the fix it inherited
  // the listen fd across exec.  spawn_process returns right after fork(),
  // and until the child execs it holds every fd, close-on-exec ones too —
  // so wait (bounded) until /proc says the child is running sleep.
  const pid_t child = util::spawn_process({"/bin/sleep", "30"});
  const std::filesystem::path sleep_bin =
      std::filesystem::canonical("/bin/sleep");
  const std::string exe = "/proc/" + std::to_string(child) + "/exe";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::error_code ec;
  while (std::filesystem::read_symlink(exe, ec) != sleep_bin &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (std::filesystem::read_symlink(exe, ec) != sleep_bin) {
    util::kill_process(child, SIGKILL);
    (void)util::wait_child(child);
    FAIL() << "child never exec'd " << sleep_bin;
  }
  server.stop();

  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  const int rc = ::bind(probe, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr));
  const int bind_errno = errno;
  ::close(probe);
  util::kill_process(child, SIGKILL);
  (void)util::wait_child(child);
  EXPECT_EQ(rc, 0) << "port " << port << " still held after stop() "
                   << "(errno " << bind_errno
                   << ") — listen fd leaked into the child";
}

// ---------------------------------------------------------------------------
// cross-process metrics shipping (obs/ship.hpp)
// ---------------------------------------------------------------------------

TEST(Ship, EncodeApplyRoundTripWithPrefix) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricsSnapshot prev = reg.snapshot();
  reg.add(reg.counter("obs_test.ship.cells"), 5);
  reg.set_gauge(reg.gauge("obs_test.ship.depth"), 9);
  const obs::MetricId h = reg.histogram("obs_test.ship.wait");
  reg.observe(h, 3);    // bit_width 2
  reg.observe(h, 300);  // bit_width 9
  const std::string record = obs::encode_metrics_delta(prev, reg.snapshot());
  ASSERT_FALSE(record.empty());
  // The record rides the tab-framed worker status pipe as one line.
  EXPECT_EQ(record.find('\t'), std::string::npos);
  EXPECT_EQ(record.find('\n'), std::string::npos);

  ASSERT_TRUE(obs::apply_metrics_delta(record, "obs_test.shipped."));
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("obs_test.shipped.obs_test.ship.cells"), 5u);
  const auto g = std::find_if(
      snap.gauges.begin(), snap.gauges.end(), [](const auto& p) {
        return p.first == "obs_test.shipped.obs_test.ship.depth";
      });
  ASSERT_NE(g, snap.gauges.end());
  EXPECT_EQ(g->second, 9u);
  const auto hist = std::find_if(
      snap.histograms.begin(), snap.histograms.end(), [](const auto& p) {
        return p.first == "obs_test.shipped.obs_test.ship.wait";
      });
  ASSERT_NE(hist, snap.histograms.end());
  EXPECT_EQ(hist->second.count, 2u);
  EXPECT_EQ(hist->second.sum, 303u);
  EXPECT_EQ(hist->second.min, 3u);
  EXPECT_EQ(hist->second.max, 300u);
  EXPECT_EQ(hist->second.buckets[2], 1u);
  EXPECT_EQ(hist->second.buckets[9], 1u);
}

TEST(Ship, UnchangedSnapshotEncodesEmpty) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.add(reg.counter("obs_test.ship.idle"), 1);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(obs::encode_metrics_delta(snap, snap), "");
}

TEST(Ship, DeltasAccumulateAcrossRecords) {
  // Loss-tolerance shape: two ships of the same delta fold to the sum, the
  // same way two workers' records (or one worker's two cells) do.
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricsSnapshot prev = reg.snapshot();
  reg.add(reg.counter("obs_test.ship.twice"), 7);
  const std::string record = obs::encode_metrics_delta(prev, reg.snapshot());
  ASSERT_TRUE(obs::apply_metrics_delta(record, "obs_test.shipped2."));
  ASSERT_TRUE(obs::apply_metrics_delta(record, "obs_test.shipped2."));
  EXPECT_EQ(reg.counter_value("obs_test.shipped2.obs_test.ship.twice"), 14u);
}

TEST(Ship, MalformedRecordsAreDroppedNotThrown) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricsSnapshot before = reg.snapshot();
  EXPECT_FALSE(obs::apply_metrics_delta("garbage", "obs_test.bad."));
  EXPECT_FALSE(obs::apply_metrics_delta("C\x1f" "only_two_fields",
                                        "obs_test.bad."));
  EXPECT_FALSE(obs::apply_metrics_delta("C\x1fname\x1fnot_a_number",
                                        "obs_test.bad."));
  EXPECT_FALSE(obs::apply_metrics_delta("Z\x1fname\x1f" "1", "obs_test.bad."));
  // Nothing from a rejected record lands in the registry.
  const obs::MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(before.counters.size(), after.counters.size());
  EXPECT_EQ(reg.counter_value("obs_test.bad.name"), 0u);
}

// ---------------------------------------------------------------------------
// campaign trace merging (obs/trace_merge.hpp)
// ---------------------------------------------------------------------------

/// One synthetic obs/trace-shaped file: a complete "X" event plus the
/// otherData tail the merger keys on.
void write_trace_file(const std::filesystem::path& path, const char* name,
                      std::uint64_t epoch_ns, const char* ts_us,
                      std::uint64_t dropped) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n"
      << "{\"name\":\"" << name << "\",\"cat\":\"test\",\"ph\":\"X\",\"ts\":"
      << ts_us << ",\"dur\":1.000,\"pid\":4242,\"tid\":1}\n"
      << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
      << dropped << ",\"trace_epoch_ns\":" << epoch_ns << "}}\n";
}

TEST(TraceMerge, LanesAreRebasedOntoTheEarliestEpoch) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "mldist_obs_test_merge";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Lane 2's clock started 1 ms after lane 1's, so its events shift right
  // by 1000 µs on the common timeline.
  write_trace_file(dir / "worker-a.trace.json", "ev_a", 1'000'000, "12.345",
                   3);
  write_trace_file(dir / "worker-b.trace.json", "ev_b", 2'000'000, "0.500",
                   4);
  const std::vector<std::string> inputs = obs::list_trace_files(dir.string());
  ASSERT_EQ(inputs.size(), 2u);

  const std::string merged_path = (dir / "campaign.trace.json").string();
  obs::TraceMergeResult result;
  std::string error;
  ASSERT_TRUE(obs::merge_trace_files(inputs, merged_path, &result, &error))
      << error;
  EXPECT_EQ(result.lanes, 2u);
  EXPECT_EQ(result.events, 2u);
  EXPECT_EQ(result.dropped, 7u);
  EXPECT_EQ(result.epoch_ns, 1'000'000u);

  std::ifstream in(merged_path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(util::json_validate(text, &error)) << error;
  // Perfetto lane naming: one process_name metadata row per input file.
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"worker-a\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"worker-b\""), std::string::npos);
  // pids became lane numbers; the source pid 4242 must be gone.
  EXPECT_EQ(text.find("\"pid\":4242"), std::string::npos);
  EXPECT_NE(text.find("\"ts\":12.345"), std::string::npos);  // lane 1 keeps ts
  EXPECT_NE(text.find("\"ts\":1000.500"), std::string::npos);  // lane 2 shifted
  EXPECT_NE(text.find("\"dropped_events\":7"), std::string::npos);
  EXPECT_NE(text.find("\"lanes\":2"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(TraceMerge, InvalidInputsAreSkippedNotFatal) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "mldist_obs_test_merge_bad";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  write_trace_file(dir / "worker-ok.trace.json", "ev", 5'000, "1.000", 0);
  // A lane whose process died before its first flush: not valid JSON, no
  // epoch — the merge keeps going on the lanes that did land.
  std::ofstream(dir / "worker-dead.trace.json") << "{\"traceEvents\":[{\"na";
  obs::TraceMergeResult result;
  std::string error;
  const std::string merged = (dir / "campaign.trace.json").string();
  ASSERT_TRUE(obs::merge_trace_files(obs::list_trace_files(dir.string()),
                                     merged, &result, &error))
      << error;
  EXPECT_EQ(result.lanes, 1u);
  std::ifstream in(merged);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(util::json_validate(text, &error)) << error;

  // All inputs unusable -> failure with a reason, and no output written.
  const std::string none = (dir / "none.trace.json").string();
  EXPECT_FALSE(obs::merge_trace_files(
      {(dir / "worker-dead.trace.json").string()}, none, nullptr, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(std::filesystem::exists(none));
  std::filesystem::remove_all(dir);
}

TEST(TraceMerge, ListTraceFilesMatchesOnlyWorkerLanes) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "mldist_obs_test_merge_list";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "worker-2.trace.json") << "{}";
  std::ofstream(dir / "worker-1.trace.json") << "{}";
  std::ofstream(dir / "campaign.trace.json") << "{}";  // a previous merge
  std::ofstream(dir / "notes.txt") << "x";
  const std::vector<std::string> files = obs::list_trace_files(dir.string());
  ASSERT_EQ(files.size(), 2u);  // the merged output is never re-consumed
  EXPECT_NE(files[0].find("worker-1"), std::string::npos);
  EXPECT_NE(files[1].find("worker-2"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// /metrics carries the logger drop counter
// ---------------------------------------------------------------------------

TEST(Export, RenderCarriesLogDroppedTotal) {
  const std::string text =
      obs::render_prometheus(MetricsRegistry::global().snapshot());
  EXPECT_NE(text.find("# TYPE mldist_log_dropped_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("\nmldist_log_dropped_total "), std::string::npos);
}

TEST(Metrics, HotPathCounterIsCheap) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const obs::MetricId id = reg.counter("obs_test.hot");
  constexpr int kIters = 1'000'000;
  const util::Timer timer;
  for (int i = 0; i < kIters; ++i) reg.add(id);
  const double per_op_ns = timer.seconds() * 1e9 / kIters;
  EXPECT_LT(per_op_ns, 500.0);
  EXPECT_GE(reg.counter_value("obs_test.hot"), 1'000'000u);
}

}  // namespace
