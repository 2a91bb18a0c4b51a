// Shared declarations of the repository benchmark binary (perfbench_bin).
//
// The binary runs one workload per process and prints one JSON object on
// its last stdout line: the workload's correctness verdict, attempted and
// failed operation counts, the raw timings (set-up repetitions and one wall
// time per unit of work), the figures each workload reads from the public
// reports, and a snapshot of the process metrics registry.  perfbench/run.py
// turns those into the metrics named in BENCHMARK.json.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

/// Load threads: the game clients of online-games and the HTTP clients of
/// serve-classify.  Two, with the daemon's loop and batch threads, stay
/// within four cores; more measures the host's scheduler.
constexpr std::size_t kLoadThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window; every workload does >= 1 unit
  std::string workdir;    ///< directory for every file the run writes
  std::string trace_file; ///< non-empty: record a Chrome trace there
  int setup_reps = 0;     ///< 0 = the workload's default repetition count
  bool smoke = false;     ///< tiny budgets, for the benchmark's own tests
  bool corrupt = false;   ///< perturb one expected output (tests only)
  bool probe = false;     ///< also run the kernel probe (see probe.cpp)
};

/// What one workload run produced.
struct Outcome {
  std::vector<std::string> failures;  ///< failed correctness checks
  std::uint64_t attempted = 0;        ///< games, requests or cells tried
  std::uint64_t failed = 0;           ///< of those, wrong/refused/failed
  std::vector<double> setup_s;        ///< one entry per set-up repetition
  std::vector<double> unit_ms;        ///< wall time of each unit of work
  double units = 0.0;   ///< work items counted by the throughput figure
  double busy_s = 0.0;  ///< wall time over which `units` completed
  /// Peak resident memory of child processes alive at the same time
  /// (campaign workers), added to this process's own peak.
  std::uint64_t child_rss_kb = 0;
  mldist::util::JsonBuilder detail;  ///< workload figures for run.py

  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

Outcome run_paper_pipeline(const Args& args);
Outcome run_online_games(const Args& args);
Outcome run_serve_classify(const Args& args);
Outcome run_campaign_grid(const Args& args);

/// GEMM peak and per-implementation Gimli throughput, as a JSON object.
std::string probe_kernels(std::uint64_t seed);

/// CPUs this process may run on (sched_getaffinity), at least 1.
std::size_t host_cores();

double median(std::vector<double> values);

}  // namespace perfbench
