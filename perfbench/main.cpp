// perfbench_bin: one workload of the repository benchmark per process.
//
//   perfbench_bin --workload NAME --seed N --seconds S --workdir DIR
//                 [--trace FILE] [--setup-reps K] [--probe] [--smoke]
//                 [--corrupt]
//
// Workloads: paper-pipeline, online-games, serve-classify, campaign-grid.
// The last stdout line is one JSON object (see common.hpp); the exit code
// is 0 when every correctness check passed, 1 when one failed and 2 on a
// usage or runtime error.  --corrupt perturbs one expected output so the
// benchmark's own tests can show that a wrong output fails the run.
//
// Campaign workers are this binary re-exec'd, so main() hands worker
// invocations to campaign::worker_entry before anything else.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "campaign/worker.hpp"
#include "common.hpp"
#include "kernels/dispatch.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace perfbench {

std::size_t host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench

namespace {

using namespace mldist;
using perfbench::Args;
using perfbench::Outcome;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_bin: %s\nusage: perfbench_bin --workload NAME "
               "--seed N --seconds S --workdir DIR [--trace FILE] "
               "[--setup-reps K] [--probe] [--smoke] [--corrupt]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value(), nullptr, 0);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--workdir") {
      a.workdir = value();
    } else if (flag == "--trace") {
      a.trace_file = value();
    } else if (flag == "--setup-reps") {
      a.setup_reps = std::stoi(value());
    } else if (flag == "--probe") {
      a.probe = true;
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--corrupt") {
      a.corrupt = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.workdir.empty()) {
    usage("--workload and --workdir are required");
  }
  return a;
}

Outcome run(const Args& args) {
  if (args.workload == "paper-pipeline") return perfbench::run_paper_pipeline(args);
  if (args.workload == "online-games") return perfbench::run_online_games(args);
  if (args.workload == "serve-classify") return perfbench::run_serve_classify(args);
  if (args.workload == "campaign-grid") return perfbench::run_campaign_grid(args);
  usage(("unknown workload " + args.workload).c_str());
}

/// A finite double with every digit (JsonBuilder::field keeps six).
std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  items.reserve(values.size());
  for (const double v : values) items.push_back(number(v));
  return util::JsonBuilder::array(items);
}

std::string strings(const std::vector<std::string>& values) {
  std::vector<std::string> items;
  items.reserve(values.size());
  for (const std::string& v : values) items.push_back(util::JsonBuilder::quote(v));
  return util::JsonBuilder::array(items);
}

/// Flush the trace and check it with util::json_validate; "" when valid.
std::string flush_and_validate_trace(const std::string& path) {
  std::string error;
  if (!obs::Tracer::global().flush(&error)) return "trace flush: " + error;
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  if (!util::json_validate(text.str(), &error)) {
    return "trace is not valid JSON: " + error;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  if (const int worker_rc = campaign::worker_entry(argc, argv);
      worker_rc >= 0) {
    return worker_rc;
  }
  const Args args = parse_args(argc, argv);
  std::filesystem::create_directories(args.workdir);
  std::string error;
  if (!obs::Logger::global().set_file(args.workdir + "/log.jsonl", &error)) {
    usage(error.c_str());
  }
  if (!args.trace_file.empty()) obs::Tracer::global().enable(args.trace_file);

  Outcome out;
  try {
    out = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_bin: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 2;
  }
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  const double peak_rss_mb =
      static_cast<double>(static_cast<std::uint64_t>(self.ru_maxrss) +
                          out.child_rss_kb) /
      1024.0;
  if (!args.trace_file.empty()) {
    obs::Tracer::global().disable();
    const std::string trace_error = flush_and_validate_trace(args.trace_file);
    out.check(trace_error.empty(), trace_error);
  }
  obs::Logger::global().flush();
  const std::string metrics = obs::MetricsRegistry::global().snapshot().to_json();

  util::JsonBuilder host;
  host.field("cores", static_cast<std::uint64_t>(perfbench::host_cores()))
      .field("load_threads", static_cast<std::uint64_t>(perfbench::kLoadThreads))
      .field("kernel", kernels::impl_name(kernels::dispatch()))
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("git_describe", obs::RunManifest::current().git_describe);

  util::JsonBuilder j;
  j.field("workload", args.workload)
      .field("correct", out.failures.empty())
      .raw("failures", strings(out.failures))
      .field("attempted", out.attempted)
      .field("failed", out.failed)
      .raw("setup_s", numbers(out.setup_s))
      .raw("unit_ms", numbers(out.unit_ms))
      .raw("units", number(out.units))
      .raw("busy_s", number(out.busy_s))
      .raw("peak_rss_mb", number(peak_rss_mb))
      .field("log_dropped", obs::Logger::global().dropped())
      .raw("detail", out.detail.str())
      .raw("host", host.str())
      .raw("metrics", metrics);
  if (args.probe) j.raw("probe", perfbench::probe_kernels(args.seed));
  std::printf("%s\n", j.str().c_str());
  return out.failures.empty() ? 0 : 1;
}
