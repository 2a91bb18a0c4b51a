// bench_compare — the CI regression gate over results/history.jsonl.
//
// Every bench run appends one {"bench":...,"manifest":...,<payload>} line
// to results/history.jsonl (bench/bench_common.hpp).  This tool turns that
// trajectory into a gate:
//
//   bench_compare check --history results/history.jsonl
//                       --baseline tools/baselines.jsonl
//                       [--tolerance 0.05] [--report FILE]
//       Compare the NEWEST history entry of every bench named in the
//       baseline file against its pinned metrics.  Exit 1 on any
//       regression beyond the relative tolerance, 0 otherwise (benches
//       missing from the history are reported but do not fail the gate —
//       CI may legitimately run a subset).  --tolerance is a finite,
//       non-negative fraction (0.05 = 5%); anything else exits 2.
//
//   bench_compare append --bench-json results/BENCH_x.json --name x
//                        [--history results/history.jsonl]
//       Re-append an existing artifact to the history (normally the bench
//       itself does this; this mode backfills old artifacts).
//
//   bench_compare self-check
//       Prove the gate works: build a synthetic history, assert exit 0 on
//       identical metrics and nonzero after injecting a 10% regression
//       into a copied history file.  Runs under the ctest "regress" label.
//
// Which numbers gate: only metrics whose name declares a direction.
// Lower-is-better: *_ns, *_ns_per_op, *seconds*.  Higher-is-better:
// *accuracy*, *per_sec, *speedup*, *rate*.  Everything else in the payload
// (seeds, iteration counts, thread counts, manifest fields) is provenance,
// not performance, and is ignored.
//
// Each line is read with util::json, the repo's one JSON reader, and its
// numeric leaves are collected as dotted paths ("fit.seconds",
// "rows[0].accuracy").
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace {

// ---------------------------------------------------------------------------
// numeric-leaf extraction
// ---------------------------------------------------------------------------

using mldist::util::json::Value;

struct BenchEntry {
  std::string bench;
  std::map<std::string, double> metrics;
  std::string run_id;
};

/// Walk `v` at dotted `path`; later duplicates of a path win.
void collect(const Value& v, const std::string& path, BenchEntry& out) {
  switch (v.kind) {
    case Value::Kind::kObject:
      for (const auto& [key, member] : v.members) {
        collect(member, path.empty() ? key : path + "." + key, out);
      }
      break;
    case Value::Kind::kArray:
      for (std::size_t i = 0; i < v.items.size(); ++i) {
        collect(v.items[i], path + "[" + std::to_string(i) + "]", out);
      }
      break;
    case Value::Kind::kNumber:
      out.metrics[path] = std::strtod(v.text.c_str(), nullptr);
      break;
    case Value::Kind::kString:
      if (path == "bench") out.bench = v.text;
      if (path == "manifest.run_id") out.run_id = v.text;
      break;
    default:
      break;
  }
}

bool extract_entry(const std::string& line, BenchEntry& out) {
  Value doc;
  if (!mldist::util::json::parse(line, doc)) return false;
  collect(doc, "", out);
  return !out.bench.empty();
}

/// Newest entry per bench name across the file's lines.
std::map<std::string, BenchEntry> load_latest(const std::string& path,
                                              bool* io_ok) {
  std::map<std::string, BenchEntry> out;
  std::ifstream in(path);
  if (!in) {
    if (io_ok != nullptr) *io_ok = false;
    return out;
  }
  if (io_ok != nullptr) *io_ok = true;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    BenchEntry entry;
    if (!extract_entry(line, entry)) {
      std::fprintf(stderr, "bench_compare: %s:%zu: unparseable line skipped\n",
                   path.c_str(), lineno);
      continue;
    }
    out[entry.bench] = std::move(entry);  // later lines win
  }
  return out;
}

// ---------------------------------------------------------------------------
// direction rules
// ---------------------------------------------------------------------------

enum class Direction { kNone, kLowerBetter, kHigherBetter };

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

Direction direction_of(const std::string& path) {
  // Provenance subtrees never gate, whatever their names look like.
  if (path.rfind("manifest.", 0) == 0 || path.rfind("options.", 0) == 0 ||
      path.rfind("config.", 0) == 0) {
    return Direction::kNone;
  }
  const std::size_t dot = path.rfind('.');
  const std::string leaf = dot == std::string::npos ? path
                                                    : path.substr(dot + 1);
  if (ends_with(leaf, "_ns") || ends_with(leaf, "_ns_per_op") ||
      leaf.find("seconds") != std::string::npos) {
    return Direction::kLowerBetter;
  }
  if (leaf.find("accuracy") != std::string::npos ||
      ends_with(leaf, "per_sec") || leaf.find("speedup") != std::string::npos ||
      leaf.find("rate") != std::string::npos) {
    return Direction::kHigherBetter;
  }
  return Direction::kNone;
}

// ---------------------------------------------------------------------------
// the gate
// ---------------------------------------------------------------------------

struct Regression {
  std::string bench;
  std::string metric;
  double baseline;
  double current;
  double change;  ///< signed relative change, positive = worse
};

/// Compare latest history entries against the baseline.  Returns the number
/// of baseline benches found in the history; regressions accumulate.
int compare(const std::map<std::string, BenchEntry>& baseline,
            const std::map<std::string, BenchEntry>& history,
            double tolerance, std::vector<Regression>& regressions,
            bool verbose) {
  int found = 0;
  for (const auto& [bench, base] : baseline) {
    const auto cur_it = history.find(bench);
    if (cur_it == history.end()) {
      std::fprintf(stderr,
                   "bench_compare: bench '%s' pinned in baseline but absent "
                   "from history (not run?) — skipped\n",
                   bench.c_str());
      continue;
    }
    ++found;
    for (const auto& [metric, base_v] : base.metrics) {
      const Direction dir = direction_of(metric);
      if (dir == Direction::kNone) continue;
      const auto cur_v_it = cur_it->second.metrics.find(metric);
      if (cur_v_it == cur_it->second.metrics.end()) continue;
      const double cur_v = cur_v_it->second;
      if (!std::isfinite(base_v) || !std::isfinite(cur_v) || base_v == 0.0) {
        continue;
      }
      // Signed relative change where positive means "worse".
      const double rel = (cur_v - base_v) / std::fabs(base_v);
      const double worse = dir == Direction::kLowerBetter ? rel : -rel;
      if (verbose) {
        std::printf("  %-18s %-40s base %12.6g  cur %12.6g  %+7.2f%%%s\n",
                    bench.c_str(), metric.c_str(), base_v, cur_v, rel * 100.0,
                    worse > tolerance ? "  << REGRESSION" : "");
      }
      if (worse > tolerance) {
        regressions.push_back({bench, metric, base_v, cur_v, worse});
      }
    }
  }
  return found;
}

int run_check(const std::string& history_path, const std::string& baseline_path,
              double tolerance, const std::string& report_path, bool verbose) {
  bool ok = true;
  const auto baseline = load_latest(baseline_path, &ok);
  if (!ok) {
    std::fprintf(stderr, "bench_compare: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 2;
  }
  if (baseline.empty()) {
    std::fprintf(stderr, "bench_compare: baseline %s has no entries\n",
                 baseline_path.c_str());
    return 2;
  }
  const auto history = load_latest(history_path, &ok);
  if (!ok) {
    std::fprintf(stderr, "bench_compare: cannot read history %s\n",
                 history_path.c_str());
    return 2;
  }

  std::vector<Regression> regressions;
  const int found = compare(baseline, history, tolerance, regressions,
                            verbose);

  if (!report_path.empty()) {
    std::vector<std::string> rows;
    for (const Regression& r : regressions) {
      mldist::util::JsonBuilder j;
      j.field("bench", r.bench)
          .field("metric", r.metric)
          .field("baseline", r.baseline)
          .field("current", r.current)
          .field("relative_regression", r.change);
      rows.push_back(j.str());
    }
    mldist::util::JsonBuilder doc;
    doc.field("tolerance", tolerance)
        .field("benches_compared", found)
        .field("regressions",
               static_cast<std::uint64_t>(regressions.size()))
        .raw("details", mldist::util::JsonBuilder::array(rows));
    const auto written = mldist::util::write_json_file(report_path, doc.str());
    if (!written) std::fprintf(stderr, "%s\n", written.error.c_str());
  }

  if (!regressions.empty()) {
    for (const Regression& r : regressions) {
      std::fprintf(stderr,
                   "REGRESSION %s %s: baseline %.6g -> current %.6g "
                   "(%.1f%% worse, tolerance %.1f%%)\n",
                   r.bench.c_str(), r.metric.c_str(), r.baseline, r.current,
                   r.change * 100.0, tolerance * 100.0);
    }
    return 1;
  }
  std::printf("bench_compare: %d bench(es) within %.1f%% of baseline\n",
              found, tolerance * 100.0);
  return 0;
}

int run_append(const std::string& bench_json, const std::string& name,
               const std::string& history_path) {
  std::ifstream in(bench_json);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot read %s\n",
                 bench_json.c_str());
    return 2;
  }
  const std::string payload((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  Value doc;
  mldist::util::json::Error error;
  if (!mldist::util::json::parse(payload, doc, &error)) {
    std::fprintf(stderr, "bench_compare: %s is not valid JSON: %s\n",
                 bench_json.c_str(), error.str().c_str());
    return 2;
  }
  if (doc.kind != Value::Kind::kObject) {
    std::fprintf(stderr, "bench_compare: %s is not a JSON object\n",
                 bench_json.c_str());
    return 2;
  }
  // Splice {"bench":"name", ...payload members, verbatim...}.
  const std::string_view body = doc.span(payload);
  const std::string line =
      "{\"bench\":" + mldist::util::JsonBuilder::quote(name) +
      (doc.members.empty()
           ? std::string("}")
           : "," + std::string(body.substr(1)));
  const auto appended = mldist::util::append_jsonl(history_path, line);
  if (!appended) {
    std::fprintf(stderr, "%s\n", appended.error.c_str());
    return 2;
  }
  std::printf("appended %s as bench '%s' to %s\n", bench_json.c_str(),
              name.c_str(), history_path.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// self-check: the gate must catch a 10% injected regression and pass on an
// identical copy of the history.
// ---------------------------------------------------------------------------

int run_self_check() {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "mldist_bench_compare_selfcheck";
  fs::create_directories(dir);
  const std::string baseline_path = (dir / "baseline.jsonl").string();
  const std::string identical_path = (dir / "identical.jsonl").string();
  const std::string regressed_path = (dir / "regressed.jsonl").string();

  const char* baseline_line =
      "{\"bench\":\"synthetic\",\"manifest\":{\"run_id\":\"selfcheck\"},"
      "\"fit_seconds\":10.0,\"val_accuracy\":0.82,\"rows_per_sec\":1000.0,"
      "\"seed\":42}";
  // 10% worse on every gated axis; the ungated seed also "changes" to prove
  // provenance fields never trip the gate.
  const char* regressed_line =
      "{\"bench\":\"synthetic\",\"manifest\":{\"run_id\":\"selfcheck2\"},"
      "\"fit_seconds\":11.0,\"val_accuracy\":0.738,\"rows_per_sec\":900.0,"
      "\"seed\":1042}";

  {
    std::ofstream(baseline_path) << baseline_line << "\n";
    std::ofstream(identical_path) << baseline_line << "\n";
    std::ofstream(regressed_path) << regressed_line << "\n";
  }

  std::printf("self-check 1/2: identical history must pass\n");
  const int ok_rc = run_check(identical_path, baseline_path,
                              /*tolerance=*/0.05, "", /*verbose=*/true);
  std::printf("self-check 2/2: 10%% injected regression must fail\n");
  const int bad_rc = run_check(regressed_path, baseline_path,
                               /*tolerance=*/0.05, "", /*verbose=*/true);
  fs::remove_all(dir);

  if (ok_rc != 0) {
    std::fprintf(stderr,
                 "self-check FAILED: identical history exited %d, want 0\n",
                 ok_rc);
    return 1;
  }
  if (bad_rc == 0) {
    std::fprintf(stderr,
                 "self-check FAILED: injected regression exited 0, want "
                 "nonzero\n");
    return 1;
  }
  std::printf("self-check passed: gate admits identical history and rejects "
              "the injected regression\n");
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  bench_compare check --history FILE --baseline FILE\n"
      "                [--tolerance REL] [--report FILE] [--verbose]\n"
      "  bench_compare append --bench-json FILE --name BENCH "
      "[--history FILE]\n"
      "  bench_compare self-check\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];

  std::string history = "results/history.jsonl";
  std::string baseline;
  std::string bench_json;
  std::string name;
  std::string report;
  double tolerance = 0.05;
  bool verbose = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--verbose") {
      verbose = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--history") history = v;
    else if (flag == "--baseline") baseline = v;
    else if (flag == "--bench-json") bench_json = v;
    else if (flag == "--name") name = v;
    else if (flag == "--report") report = v;
    else if (flag == "--tolerance") {
      char* end = nullptr;
      tolerance = std::strtod(v, &end);
      if (end == v || *end != '\0' || !std::isfinite(tolerance) ||
          tolerance < 0.0) {
        return usage();
      }
    } else return usage();
  }

  if (mode == "check") {
    if (baseline.empty()) return usage();
    return run_check(history, baseline, tolerance, report, verbose);
  }
  if (mode == "append") {
    if (bench_json.empty() || name.empty()) return usage();
    return run_append(bench_json, name, history);
  }
  if (mode == "self-check") return run_self_check();
  return usage();
}
