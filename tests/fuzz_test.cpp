// Seeded mutation fuzzer over every reader of outside bytes (ctest label
// "fuzz").  Only gcc is available, so this is an in-repo harness rather
// than libFuzzer: a fixed Xoshiro256 seed drives bit flips, byte insertion
// and deletion, truncation and splices between seeds, for a fixed number of
// iterations per target.  Every input must either parse or fail through
// its entry point's documented error path, and every reported line:col
// must lie inside the input.  Run it under the sanitizer presets:
//   cmake -B build-san -S . -DMLDIST_ASAN=ON -DMLDIST_UBSAN=ON
//   cmake --build build-san -j && ctest --test-dir build-san -L fuzz
//
// Seeds: examples/paper_grid.json, the WAL and history of a one-cell serial
// campaign, an obs trace file, classify request bodies, raw HTTP requests,
// OBS ship records and a saved .nnb.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/spec.hpp"
#include "campaign/specfile.hpp"
#include "campaign/supervisor.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/model.hpp"
#include "nn/serialize.hpp"
#include "obs/http.hpp"
#include "obs/ship.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace mldist;

/// Mutants per cheap target; targets that expand grids or write files run
/// a fixed fraction of it.
constexpr int kIterations = 20000;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

/// Bit flips, byte insertion and deletion, truncation and splices between
/// seeds, one to four per input, all drawn from one seeded stream.
class Mutator {
 public:
  Mutator(std::vector<std::string> seeds, std::uint64_t seed)
      : seeds_(std::move(seeds)), rng_(seed) {}

  std::string next() {
    std::string s = seeds_[pick(seeds_.size())];
    for (std::size_t n = 1 + pick(4); n > 0; --n) mutate(s);
    return s;
  }

  /// A draw in [0, bound) from the same seeded stream.
  std::size_t pick(std::size_t bound) {
    return bound == 0 ? 0 : static_cast<std::size_t>(rng_.next_below(bound));
  }

 private:
  void mutate(std::string& s) {
    // Half the inserted bytes are JSON punctuation, so mutants keep
    // reaching past the first token.
    static constexpr char kSyntax[] = "{}[]\",:\\0123456789-.eE tfnu\n";
    switch (pick(5)) {
      case 0:
        if (!s.empty()) s[pick(s.size())] ^= static_cast<char>(1 << pick(8));
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)),
                 pick(2) == 0 ? kSyntax[pick(sizeof(kSyntax) - 1)]
                              : static_cast<char>(pick(256)));
        break;
      case 2:
        if (!s.empty()) s.erase(pick(s.size()), 1 + pick(16));
        break;
      case 3:
        s.resize(pick(s.size() + 1));
        break;
      default: {
        const std::string& other = seeds_[pick(seeds_.size())];
        s = s.substr(0, pick(s.size() + 1)) + other.substr(pick(other.size() + 1));
      }
    }
  }

  std::vector<std::string> seeds_;
  util::Xoshiro256 rng_;
};

/// 1-based line count of `text` (a trailing newline opens one more line).
int line_count(const std::string& text) {
  return 1 + static_cast<int>(std::count(text.begin(), text.end(), '\n'));
}

/// line:col must name a byte of `text` or the position just past a line's
/// last byte, and must agree with the reported offset.
void expect_inside(const std::string& text, const util::json::Error& e) {
  ASSERT_LE(e.offset, text.size());
  ASSERT_GE(e.line, 1);
  ASSERT_LE(e.line, line_count(text));
  const std::string before = text.substr(0, e.offset);
  const std::size_t line_start =
      before.rfind('\n') == std::string::npos ? 0 : before.rfind('\n') + 1;
  ASSERT_EQ(e.line,
            1 + static_cast<int>(std::count(before.begin(), before.end(), '\n')));
  ASSERT_EQ(static_cast<std::size_t>(e.col), e.offset - line_start + 1);
}

class Fuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("mldist-fuzz-" + std::to_string(::getpid())))
               .string();
    std::filesystem::create_directories(dir_ + "/state");

    // A one-cell serial campaign: its WAL and history are the replay seeds.
    campaign::CampaignSpec spec;
    spec.name = "fuzz";
    campaign::GridBlock block;
    block.targets = {"toy"};
    block.rounds = {1};
    block.archs = {"default-mlp"};
    spec.blocks = {block};
    spec.base.epochs = 1;
    spec.base.batch_size = 32;
    spec.base.threads = 1;
    spec.base.offline_base_inputs = 64;
    spec.base.online_base_inputs = 32;
    spec.base.games = 2;
    spec.base.max_retries = 0;
    campaign::SupervisorOptions opt;
    opt.state_dir = dir_ + "/state";
    opt.workers = 0;
    (void)campaign::Supervisor(spec, opt).run();

    // An obs trace file with one span carrying escaped args.
    const std::string trace_path = dir_ + "/seed.trace.json";
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.enable(trace_path);
    {
      obs::Span span("fuzz.seed", "fuzz");
      span.arg("note", "quote \" backslash \\ newline\n");
      span.arg("n", 7);
    }
    tracer.flush();
    tracer.disable();
    trace_ = read_file(trace_path);
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static std::string state(const char* name) {
    return read_file(dir_ + "/state/" + name);
  }

  static inline std::string dir_;
  static inline std::string trace_;
};

std::vector<std::string> classify_bodies() {
  return {
      R"({"model":"m","inputs":["00ff","8001"]})",
      "{ \"inputs\" : [ \"0a\" ] ,\n  \"model\" : \"toy-\\u0041\" }",
      R"({"model":"gohr","inputs":["0123456789abcdef","fedcba9876543210"]})",
  };
}

TEST_F(Fuzz, JsonReader) {
  const std::vector<std::string> seeds = {
      read_file(MLDIST_SOURCE_DIR "/examples/paper_grid.json"),
      state("campaign.state.jsonl"), state("history.jsonl"), trace_,
      classify_bodies()[1],
      R"(["\u00e9\ud83d\ude00\/\b\f\r\t",-0.5e+3,1E2,true,null,{}])"};
  for (const std::string& seed : seeds) ASSERT_FALSE(seed.empty());
  Mutator mutator(seeds, 0xf022'0001);
  int parsed = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = mutator.next();
    util::json::Value root;
    util::json::Error error;
    if (util::json::parse(input, root, &error)) {
      ++parsed;
      ASSERT_LE(root.begin, root.end);
      ASSERT_LE(root.end, input.size());
      ASSERT_TRUE(util::json_validate(root.span(input))) << input;
    } else {
      ASSERT_FALSE(error.message.empty()) << input;
      expect_inside(input, error);
      ASSERT_FALSE(util::json_validate(input));
    }
  }
  // The mutants must exercise both outcomes, or the check is vacuous.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, kIterations);
}

TEST_F(Fuzz, SpecFile) {
  Mutator mutator({read_file(MLDIST_SOURCE_DIR "/examples/paper_grid.json")},
                  0xf022'0002);
  int parsed = 0;
  for (int i = 0; i < kIterations / 4; ++i) {
    const std::string input = mutator.next();
    try {
      (void)campaign::parse_spec_text(input, "fuzz.json");
      ++parsed;
    } catch (const campaign::SpecError& e) {
      ASSERT_GE(e.line(), 1) << e.what();
      ASSERT_LE(e.line(), line_count(input)) << e.what();
    }
  }
  EXPECT_GT(parsed, 0);
}

TEST_F(Fuzz, ClassifyRequest) {
  Mutator mutator(classify_bodies(), 0xf022'0003);
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = mutator.next();
    serve::ClassifyRequest request;
    std::string error;
    if (serve::parse_classify_request(input, &request, &error)) {
      ASSERT_FALSE(request.inputs_hex.empty()) << input;
    } else {
      ASSERT_FALSE(error.empty()) << input;
    }
  }
}

TEST_F(Fuzz, HttpRequest) {
  // Small caps, so mutants reach the 413 and 431 paths as well as 400.
  constexpr std::size_t kCap = 64;
  const std::string body = classify_bodies()[0];
  const std::string pad = "GET /x HTTP/1.1\r\nX-Pad: ";
  const std::vector<std::string> seeds = {
      "GET /metrics?x=1 HTTP/1.1\r\nHost: h\r\n\r\n",
      "POST /v1/classify HTTP/1.1\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\nX-Request-Id: r\r\n\r\n" + body,
      // Header terminator starting at byte kCap, the last accepted offset.
      pad + std::string(kCap - pad.size(), 'a') + "\r\n\r\n"};
  for (const std::string& seed : seeds) {
    obs::HttpRequestReader reader(kCap, kCap);
    reader.feed(seed.data(), seed.size());
    ASSERT_TRUE(reader.complete()) << seed;
  }
  Mutator mutator(seeds, 0xf022'0007);
  int completed = 0;
  int failed = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = mutator.next();
    // Fed in recv-sized chunks until it completes or fails, as the daemon's
    // event loop does...
    obs::HttpRequestReader chunked(kCap, kCap);
    std::size_t fed = 0;
    while (fed < input.size() && !chunked.complete() && !chunked.failed()) {
      const std::size_t n = std::min(input.size() - fed, 1 + mutator.pick(24));
      chunked.feed(input.data() + fed, n);
      fed += n;
    }
    // ...the reader ends as a one-shot reader of the same bytes does.
    obs::HttpRequestReader whole(kCap, kCap);
    whole.feed(input.data(), fed);
    ASSERT_EQ(chunked.complete(), whole.complete()) << input;
    ASSERT_EQ(chunked.failed(), whole.failed()) << input;
    if (chunked.complete()) {
      ++completed;
      ASSERT_EQ(chunked.method(), whole.method()) << input;
      ASSERT_EQ(chunked.path(), whole.path()) << input;
      ASSERT_EQ(chunked.body(), whole.body()) << input;
      ASSERT_EQ(chunked.header("x-request-id"), whole.header("x-request-id"))
          << input;
    } else if (chunked.failed()) {
      ++failed;
      const int status = chunked.error_status();
      ASSERT_TRUE(status == 400 || status == 413 || status == 431) << status;
      ASSERT_EQ(status, whole.error_status()) << input;
      ASSERT_FALSE(chunked.error_detail().empty()) << input;
      // A failure is final: the rest of the bytes cannot rescue the
      // request, so where recv split them cannot decide the verdict.
      obs::HttpRequestReader all(kCap, kCap);
      all.feed(input.data(), input.size());
      ASSERT_TRUE(all.failed()) << input;
      ASSERT_EQ(all.error_status(), status) << input;
    }
  }
  EXPECT_GT(completed, 0);
  EXPECT_GT(failed, 0);
}

/// encode_metrics_delta output for a counter, a gauge, a bucketed
/// histogram, and all three as one multi-record line.
std::vector<std::string> ship_records() {
  obs::MetricsSnapshot counter, gauge, hist;
  counter.counters = {{"cells", 5}};
  gauge.gauges = {{"depth", 9}};
  obs::HistogramSnapshot h;
  h.count = 2;
  h.sum = 303;
  h.min = 3;
  h.max = 300;
  h.buckets[2] = 1;
  h.buckets[9] = 1;
  hist.histograms = {{"wait_ns", h}};
  obs::MetricsSnapshot all = counter;
  all.gauges = gauge.gauges;
  all.histograms = hist.histograms;
  const obs::MetricsSnapshot none;
  return {obs::encode_metrics_delta(none, counter),
          obs::encode_metrics_delta(none, gauge),
          obs::encode_metrics_delta(none, hist),
          obs::encode_metrics_delta(none, all)};
}

TEST_F(Fuzz, ShipRecord) {
  using Kind = obs::MetricDelta::Kind;
  const std::vector<std::string> seeds = ship_records();
  {
    // The seeds decode to exactly what was encoded.
    const auto entry = [](Kind kind, const char* name, std::uint64_t value) {
      obs::MetricDelta d;
      d.kind = kind;
      d.name = name;
      d.value = value;
      return d;
    };
    const obs::MetricDelta cells = entry(Kind::kCounter, "cells", 5);
    const obs::MetricDelta depth = entry(Kind::kGauge, "depth", 9);
    obs::MetricDelta wait = entry(Kind::kHistogram, "wait_ns", 2);
    wait.sum = 303;
    wait.min = 3;
    wait.max = 300;
    wait.buckets = {{2, 1}, {9, 1}};
    const std::vector<std::vector<obs::MetricDelta>> expected = {
        {cells}, {depth}, {wait}, {cells, depth, wait}};
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      std::vector<obs::MetricDelta> decoded;
      ASSERT_TRUE(obs::decode_metrics_delta(seeds[i], decoded)) << i;
      ASSERT_EQ(decoded, expected[i]) << i;
    }
  }
  Mutator mutator(seeds, 0xf022'0008);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = mutator.next();
    std::vector<obs::MetricDelta> whole;
    const bool ok = obs::decode_metrics_delta(input, whole);
    ++(ok ? accepted : rejected);
    for (const obs::MetricDelta& d : whole) {
      ASSERT_FALSE(d.name.empty()) << input;
      ASSERT_EQ(d.name.find_first_of("\x1e\x1f"), std::string::npos) << input;
      if (d.kind != Kind::kHistogram) continue;
      ASSERT_NE(d.value, 0u) << input;
      for (const auto& [bucket, n] : d.buckets) {
        ASSERT_LT(bucket, obs::kHistogramBuckets) << input;
      }
    }
    // One bad record never costs its neighbours: the line decodes to the
    // concatenation of its 0x1e-separated records decoded alone.
    std::vector<obs::MetricDelta> pieces;
    bool pieces_ok = true;
    std::size_t start = 0;
    for (std::size_t end = 0; end <= input.size(); ++end) {
      if (end < input.size() && input[end] != '\x1e') continue;
      const std::string_view record =
          std::string_view(input).substr(start, end - start);
      pieces_ok = obs::decode_metrics_delta(record, pieces) && pieces_ok;
      start = end + 1;
    }
    ASSERT_EQ(ok, pieces_ok) << input;
    ASSERT_EQ(whole, pieces) << input;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(Fuzz, JournalReplay) {
  Mutator mutator({state("campaign.state.jsonl"), state("history.jsonl")},
                  0xf022'0004);
  const std::string path = dir_ + "/fuzz.state.jsonl";
  for (int i = 0; i < kIterations / 4; ++i) {
    write_file(path, mutator.next());
    const campaign::JournalState replayed = campaign::replay_journal(path);
    // Payloads come back as exact source spans of whole objects.
    for (const auto& [cell, payload] : replayed.done_payload) {
      util::json::Value v;
      ASSERT_TRUE(util::json::parse(payload, v)) << payload;
      ASSERT_EQ(v.kind, util::json::Value::Kind::kObject);
    }
  }
}

TEST_F(Fuzz, TraceMerge) {
  Mutator mutator({trace_}, 0xf022'0005);
  const std::string lane1 = dir_ + "/worker-1.trace.json";
  const std::string lane2 = dir_ + "/worker-2.trace.json";
  const std::string merged = dir_ + "/merged.trace.json";
  write_file(lane2, trace_);
  for (int i = 0; i < kIterations / 20; ++i) {
    write_file(lane1, mutator.next());
    obs::TraceMergeResult result;
    std::string error;
    // The intact lane always merges, so every merge must succeed; the
    // mutant is either a second lane or skipped.
    ASSERT_TRUE(
        obs::merge_trace_files({lane1, lane2}, merged, &result, &error))
        << error;
    ASSERT_GE(result.lanes, 1u);
    ASSERT_TRUE(util::json_validate(read_file(merged), &error)) << error;
  }
}

TEST_F(Fuzz, ModelParams) {
  util::Xoshiro256 init(0x5eed);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(8, 4, init));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::Dense>(4, 2, init));
  std::stringstream saved;
  nn::save_params(model, saved);
  {
    std::stringstream intact(saved.str());
    ASSERT_NO_THROW(nn::load_params(model, intact));
  }
  Mutator mutator({saved.str()}, 0xf022'0006);
  for (int i = 0; i < kIterations; ++i) {
    std::stringstream in(mutator.next());
    try {
      nn::load_params(model, in);
    } catch (const std::runtime_error&) {
      // load_params' documented rejection.
    }
  }
}

}  // namespace
