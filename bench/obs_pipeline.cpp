// Obs pipeline bench (ISSUE 10): the price of worker telemetry shipping,
// with the cross-process merge contract asserted before the price is
// trusted.
//
// Paired sharded campaigns over the same toy-target grid, alternating
// telemetry shipping OFF and ON so machine drift hits both sides equally;
// best-of-K cells/sec per side tames scheduler noise.  A serial reference
// run (workers=0, which folds per-cell deltas through the same
// obs/ship.hpp codec) supplies the ground-truth campaign.worker.* totals.
//
// Acceptance, checked by the exit status (the bench runs under ctest -L
// regress): every campaign completes with zero failed cells, the ship-on
// campaign.worker.* counters (minus the wall-clock _ns/_us names) are
// bitwise identical to the serial reference, and shipping costs less than
// 2% of cells/sec.
//
// The artifact results/BENCH_obs_pipeline.json carries the
// direction-pinned metric (obs_ship_cells_per_sec up) gated against
// tools/baselines.jsonl by tools/bench_compare.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "bench_common.hpp"
#include "campaign/spec.hpp"
#include "campaign/supervisor.hpp"
#include "campaign/worker.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace mldist;

std::string fresh_state_dir(const char* tag, int repeat) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mldist-obs-pipeline-" + std::to_string(::getpid()) + "-" + tag +
        "-" + std::to_string(repeat)))
          .string();
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

/// True for wall-clock metric names, which merge deterministically but whose
/// values vary run to run (the DESIGN.md §10 suffix convention).
bool wall_clock_name(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n &&
           name.compare(name.size() - n, n, suffix) == 0;
  };
  return ends_with("_ns") || ends_with("_us");
}

/// The merged campaign.worker.* counters, minus wall-clock names.
std::map<std::string, std::uint64_t> worker_counters() {
  std::map<std::string, std::uint64_t> out;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("campaign.worker.", 0) == 0 && !wall_clock_name(name)) {
      out[name] = value;
    }
  }
  return out;
}

struct CampaignRun {
  campaign::CampaignReport report;
  double seconds = 0.0;
  std::string state_dir;
};

CampaignRun run_campaign(const campaign::CampaignSpec& spec,
                         std::size_t workers, bool ship, const char* tag,
                         int repeat) {
  CampaignRun run;
  run.state_dir = fresh_state_dir(tag, repeat);
  campaign::SupervisorOptions opt;
  opt.state_dir = run.state_dir;
  opt.workers = workers;
  opt.ship_telemetry = ship;
  opt.backoff_base_s = 0.02;
  opt.backoff_cap_s = 0.1;
  opt.poll_interval_s = 0.01;
  campaign::Supervisor sup(spec, opt);
  const util::Timer timer;
  run.report = sup.run();
  run.seconds = timer.seconds();
  std::filesystem::remove_all(run.state_dir);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  // This binary is also the worker binary the supervisor execs.
  if (const int worker_rc = campaign::worker_entry(argc, argv);
      worker_rc >= 0) {
    return worker_rc;
  }
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Obs pipeline: telemetry shipping overhead", opt);

  const std::size_t cells = opt.base(4, 8);
  const std::size_t workers = 2;
  const int repeats = opt.full ? 5 : 3;
  const double max_overhead_pct = 2.0;

  campaign::CampaignSpec spec;
  spec.name = "obs-pipeline";
  campaign::GridBlock block;
  block.targets = {"toy"};
  block.archs = {"default-mlp"};
  for (std::size_t r = 1; r <= cells; ++r) {
    block.rounds.push_back(static_cast<int>(r));
  }
  spec.blocks = {block};
  spec.base.epochs = 2;
  spec.base.batch_size = 64;
  spec.base.threads = 1;
  spec.base.offline_base_inputs = 300;
  spec.base.online_base_inputs = 150;
  spec.seed = opt.seed;

  ::unsetenv("MLDIST_CHAOS_KILL");  // the price must be unperturbed

  // Serial reference: workers=0 folds every cell's registry delta through
  // the same encode/apply codec the workers ship through, so its merged
  // campaign.worker.* totals are the ground truth for any worker count.
  obs::MetricsRegistry::global().reset();
  const CampaignRun serial =
      run_campaign(spec, /*workers=*/0, /*ship=*/true, "serial", 0);
  const std::map<std::string, std::uint64_t> serial_counters =
      worker_counters();

  bool ok = true;
  const auto require = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  require(serial.report.complete() && serial.report.cells_failed == 0,
          "serial reference campaign did not complete cleanly");
  require(!serial_counters.empty(),
          "serial reference folded no campaign.worker.* counters");

  std::printf("%-10s %3s %6s %6s %10s %14s\n", "run", "rep", "cells", "done",
              "seconds", "cells/sec");
  double off_best_cps = 0.0;
  double on_best_cps = 0.0;
  std::map<std::string, std::uint64_t> shipped_counters;
  for (int rep = 0; rep < repeats; ++rep) {
    const CampaignRun off =
        run_campaign(spec, workers, /*ship=*/false, "off", rep);
    obs::MetricsRegistry::global().reset();
    const CampaignRun on =
        run_campaign(spec, workers, /*ship=*/true, "on", rep);
    shipped_counters = worker_counters();
    require(off.report.complete() && off.report.cells_failed == 0,
            "ship-off campaign did not complete cleanly");
    require(on.report.complete() && on.report.cells_failed == 0,
            "ship-on campaign did not complete cleanly");
    require(shipped_counters == serial_counters,
            "shipped campaign.worker.* counters differ from the serial "
            "reference");
    const double off_cps = static_cast<double>(off.report.cells_done) /
                           std::max(1e-9, off.seconds);
    const double on_cps = static_cast<double>(on.report.cells_done) /
                          std::max(1e-9, on.seconds);
    off_best_cps = std::max(off_best_cps, off_cps);
    on_best_cps = std::max(on_best_cps, on_cps);
    std::printf("%-10s %3d %6zu %6zu %10.3f %14.2f\n", "ship-off", rep,
                off.report.cells_total, off.report.cells_done, off.seconds,
                off_cps);
    std::printf("%-10s %3d %6zu %6zu %10.3f %14.2f\n", "ship-on", rep,
                on.report.cells_total, on.report.cells_done, on.seconds,
                on_cps);
  }

  // Best-of-K on both sides: overhead is the gap between the best clean
  // run and the best shipping run, clamped at zero (shipping cannot make
  // the campaign faster; a negative gap is noise).
  const double overhead_pct = std::max(
      0.0, (off_best_cps - on_best_cps) / std::max(1e-9, off_best_cps) * 100.0);
  bench::print_rule();
  std::printf("best ship-off: %10.2f cells/sec\n", off_best_cps);
  std::printf("best ship-on:  %10.2f cells/sec\n", on_best_cps);
  std::printf("shipping overhead: %.2f%% (ceiling %.1f%%)\n", overhead_pct,
              max_overhead_pct);
  std::printf("merged counters: %zu (bitwise vs serial: %s)\n",
              shipped_counters.size(),
              shipped_counters == serial_counters ? "ok" : "MISMATCH");
  require(overhead_pct < max_overhead_pct,
          "telemetry shipping overhead exceeds the 2% ceiling");

  util::JsonBuilder j;
  j.raw("options", bench::options_json(opt))
      .field("cells", static_cast<std::uint64_t>(cells))
      .field("workers", static_cast<std::uint64_t>(workers))
      .field("repeats", static_cast<std::uint64_t>(repeats))
      .field("obs_ship_cells_per_sec", on_best_cps)
      .field("obs_noship_cells_per_sec", off_best_cps)
      .field("ship_overhead_pct", overhead_pct)
      .field("merged_counter_names",
             static_cast<std::uint64_t>(shipped_counters.size()))
      .field("bitwise_ok", ok);
  bench::write_bench_json("obs_pipeline", j);

  if (!ok) return 1;
  std::printf("\nshipping within budget; merged totals bitwise identical\n");
  return 0;
}
