// Workload "campaign-grid": a spec-file campaign of cheap cells across zoo
// targets (toy, speck, simon, present, gimli-hash at rounds 1-3) sharded
// over 2 worker processes at threads=1.  The workers are this binary
// re-exec'd (main() calls campaign::worker_entry first).  A cell is the
// smallest zoo MLP on 64 offline and 32 online base inputs, so leasing,
// fork+exec, the WAL and checkpoint fsyncs outweigh its arithmetic, whose
// speed follows the shared host's neighbours.
//
// Each unit is one campaign: a supervisor that stops after half the cells
// (stop_after_cells), then a second supervisor that resumes from the WAL to
// completion.  Checks: the campaign completes, no cell fails, and every
// cell appears exactly once in history.jsonl.  Set-up, repeated per
// campaign: load_spec_file and expand_grid on a freshly written spec file.
#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>

#include "campaign/journal.hpp"
#include "campaign/spec.hpp"
#include "campaign/specfile.hpp"
#include "campaign/supervisor.hpp"
#include "common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace mldist;

// With the supervisor, two workers stay within four cores with room for
// the host; more measures the scheduler.
constexpr std::size_t kWorkers = 2;
// Untimed campaigns first: the first execs of the worker binary run
// against cold OS caches and take about three times as long.
constexpr std::uint64_t kWarmups = 2;

std::string spec_text(std::uint64_t seed, bool smoke) {
  return std::string("{\n  \"name\": \"perfbench-grid\",\n") +
         "  \"seed\": " + std::to_string(seed) + ",\n" +
         "  \"defaults\": {\"epochs\": 1, \"batch_size\": 64,"
         " \"offline_base_inputs\": 64, \"online_base_inputs\": 32,"
         " \"threads\": 1, \"max_retries\": 1},\n"
         "  \"grid\": [{\"targets\": [\"toy\", \"speck\", \"simon\","
         " \"present\", \"gimli-hash\"], \"archs\": [\"MLP IV\"], \"rounds\": " +
         (smoke ? "[1, 2]" : "[1, 2, 3]") + "}]\n}\n";
}

/// history.jsonl as {cell id -> number of lines naming it}.
std::map<std::string, int> history_counts(const std::string& path) {
  std::map<std::string, int> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::string id;
    if (campaign::extract_json_string(line, "cell", id)) ++out[id];
  }
  return out;
}

/// Seconds the workers spent inside cell phases, from the shipped
/// campaign.worker.core.phase.* histograms.  "games" is left out: it
/// encloses the online collect and predict phases.
double worker_phase_seconds() {
  double ns = 0.0;
  for (const auto& [name, h] :
       obs::MetricsRegistry::global().snapshot().histograms) {
    for (const char* phase : {"offline_collect", "fit", "online_collect",
                              "predict"}) {
      if (name == std::string("campaign.worker.core.phase.") + phase +
                      ".seconds_ns") {
        ns += static_cast<double>(h.sum);
      }
    }
  }
  return ns * 1e-9;
}

}  // namespace

Outcome run_campaign_grid(const Args& args) {
  Outcome out;
  std::vector<double> parse_ms, replay_ms;
  std::uint64_t reclaims = 0, retries = 0;
  util::Timer window;
  double phase_s_before = 0.0;  // worker phase time of the warm-ups
  for (std::uint64_t i = 0; i <= kWarmups || window.seconds() < args.seconds;
       ++i) {
    const bool timed = i >= kWarmups;
    if (i == kWarmups) {
      window.reset();
      phase_s_before = worker_phase_seconds();
    }
    const std::string dir = args.workdir + "/campaign-" + std::to_string(i);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/state");
    const std::string spec_path = dir + "/grid.json";
    std::ofstream(spec_path) << spec_text(args.seed + i, args.smoke);

    std::optional<obs::Span> setup_span(std::in_place, "perfbench.setup",
                                        "perfbench");
    const util::Timer setup;
    const campaign::CampaignSpec spec = campaign::load_spec_file(spec_path);
    const double parse_s = setup.seconds();
    const std::vector<campaign::Cell> cells = campaign::expand_grid(spec);
    const double setup_s = setup.seconds();
    setup_span.reset();
    campaign::SupervisorOptions opt;
    opt.state_dir = dir + "/state";
    opt.workers = kWorkers;
    opt.stop_after_cells = cells.size() / 2;
    std::optional<obs::Span> span(std::in_place, "perfbench.campaign",
                                  "perfbench");
    const util::Timer timer;
    const campaign::CampaignReport first = campaign::Supervisor(spec, opt).run();
    opt.stop_after_cells = 0;
    const campaign::CampaignReport second =
        campaign::Supervisor(spec, opt).run();
    const double seconds = timer.seconds();
    span.reset();

    const std::size_t failed = first.cells_failed + second.cells_failed;
    out.check(first.interrupted && first.cells_done > 0,
              "the first leg did not stop part-way");
    out.check(second.complete() && !second.interrupted,
              "the resumed campaign did not complete");
    out.check(failed == 0, std::to_string(failed) + " cells failed");
    out.check(first.cells_done + second.cells_done == cells.size(),
              "cells done across both legs != grid size");
    std::map<std::string, int> expected;
    for (const campaign::Cell& c : cells) expected[c.id] = 1;
    if (args.corrupt) expected["corrupt"] = 1;
    out.check(history_counts(opt.state_dir + "/history.jsonl") == expected,
              "history does not hold every cell exactly once");

    const util::Timer replay;
    const campaign::JournalState journal =
        campaign::replay_journal(opt.state_dir + "/campaign.state.jsonl");
    const double replay_s = replay.seconds();
    out.check(journal.done_payload.size() == cells.size(),
              "WAL replay does not hold every cell");
    std::filesystem::remove_all(dir);
    if (!timed) continue;

    out.setup_s.push_back(setup_s);
    parse_ms.push_back(parse_s * 1e3);
    replay_ms.push_back(replay_s * 1e3);
    out.unit_ms.push_back(seconds * 1e3);
    out.units += static_cast<double>(cells.size());
    out.busy_s += seconds;
    out.attempted += cells.size();
    out.failed += failed;
    reclaims += first.reclaims + second.reclaims;
    retries += first.retries + second.retries;
  }
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  out.detail.field("concurrency", 1)
      .field("workers", static_cast<std::uint64_t>(kWorkers))
      .field("spec_parse_ms", median(parse_ms))
      .field("journal_replay_ms", median(replay_ms))
      .field("worker_phase_s", worker_phase_seconds() - phase_s_before)
      .field("reclaims", reclaims)
      .field("retries", retries);
  // ru_maxrss of the children is the largest worker's peak; the workers
  // run side by side.
  out.child_rss_kb = kWorkers * static_cast<std::uint64_t>(children.ru_maxrss);
  return out;
}

}  // namespace perfbench
