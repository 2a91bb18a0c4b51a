// Campaign soak (ISSUE 7): throughput and recovery cost of the sharded
// supervisor, with the determinism contract asserted on the bench's own
// outputs before any number is trusted.
//
// Three campaigns over the same toy-target grid:
//
//   serial   workers=0 — the in-process reference run whose history
//            payloads are the bitwise ground truth.
//   clean    workers=N, no faults — campaign_cells_per_sec measures the
//            supervisor's sharding overhead.
//   chaos    workers=N with MLDIST_CHAOS_KILL p=100,max=1 — every cell's
//            first lease is SIGKILLed mid-train, so every cell crosses the
//            reclaim + retry path; chaos_cells_per_sec prices the recovery
//            and campaign_reclaim_latency_ns is the mean death-detection ->
//            cell-requeued latency.
//
// Acceptance, checked by the exit status (the bench runs under ctest -L
// fault): all three campaigns complete with zero failed cells, the clean
// and chaos history payloads are byte-identical to the serial run, and the
// chaos campaign reclaims every cell once.
//
// The artifact results/BENCH_campaign.json carries the direction-pinned
// metrics (campaign_cells_per_sec up, campaign_reclaim_latency_ns down)
// gated against tools/baselines.jsonl by tools/bench_compare.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench_common.hpp"
#include "campaign/spec.hpp"
#include "campaign/supervisor.hpp"
#include "campaign/worker.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace mldist;

/// history.jsonl as {cell id -> verbatim payload bytes}.
std::map<std::string, std::string> read_history(const std::string& state_dir) {
  std::map<std::string, std::string> out;
  std::ifstream in(state_dir + "/history.jsonl");
  std::string line;
  while (in && std::getline(in, line)) {
    util::json::Value record;
    if (!util::json::parse(line, record)) continue;
    const util::json::Value* id = record.find("cell");
    const util::json::Value* payload = record.find("payload");
    if (id != nullptr && payload != nullptr) {
      out[id->text] = std::string(payload->span(line));
    }
  }
  return out;
}

std::string fresh_state_dir(const char* tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mldist-campaign-soak-" + std::to_string(::getpid()) + "-" + tag))
          .string();
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

struct CampaignRun {
  campaign::CampaignReport report;
  std::map<std::string, std::string> payloads;
  double seconds = 0.0;
  std::string state_dir;
};

CampaignRun run_campaign(const campaign::CampaignSpec& spec,
                         std::size_t workers, const char* tag) {
  CampaignRun run;
  run.state_dir = fresh_state_dir(tag);
  campaign::SupervisorOptions opt;
  opt.state_dir = run.state_dir;
  opt.workers = workers;
  opt.backoff_base_s = 0.02;
  opt.backoff_cap_s = 0.1;
  opt.poll_interval_s = 0.01;
  campaign::Supervisor sup(spec, opt);
  const util::Timer timer;
  run.report = sup.run();
  run.seconds = timer.seconds();
  run.payloads = read_history(run.state_dir);
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
  bench::print_header("Campaign soak: sharded supervisor under chaos", opt);

  const std::size_t cells = opt.base(4, 8);
  const std::size_t workers = 3;

  campaign::CampaignSpec spec;
  spec.name = "soak";
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

  ::unsetenv("MLDIST_CHAOS_KILL");  // the reference must be unperturbed
  const CampaignRun serial = run_campaign(spec, /*workers=*/0, "serial");

  const CampaignRun clean = run_campaign(spec, workers, "clean");

  ::setenv("MLDIST_CHAOS_KILL", "p=100,seed=7,max=1", 1);
  const CampaignRun chaos = run_campaign(spec, workers, "chaos");
  ::unsetenv("MLDIST_CHAOS_KILL");

  const double clean_cps = static_cast<double>(clean.report.cells_done) /
                           std::max(1e-9, clean.seconds);
  const double chaos_cps = static_cast<double>(chaos.report.cells_done) /
                           std::max(1e-9, chaos.seconds);

  std::printf("%-8s %6s %6s %8s %9s %10s %14s\n", "run", "cells", "done",
              "failed", "reclaims", "seconds", "cells/sec");
  const auto row = [](const char* name, const CampaignRun& r, double cps) {
    std::printf("%-8s %6zu %6zu %8zu %9zu %10.3f %14.2f\n", name,
                r.report.cells_total, r.report.cells_done,
                r.report.cells_failed, r.report.reclaims, r.seconds, cps);
  };
  row("serial", serial,
      static_cast<double>(serial.report.cells_done) /
          std::max(1e-9, serial.seconds));
  row("clean", clean, clean_cps);
  row("chaos", chaos, chaos_cps);
  std::printf("\nreclaim latency (chaos): %.0f ns mean over %zu reclaims\n",
              chaos.report.reclaim_latency_ns_mean, chaos.report.reclaims);

  bool ok = true;
  const auto require = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  require(serial.report.complete() && serial.report.cells_failed == 0,
          "serial reference campaign did not complete cleanly");
  require(serial.payloads.size() == cells,
          "serial history is missing cell payloads");
  require(clean.report.complete() && clean.report.cells_failed == 0,
          "clean sharded campaign did not complete cleanly");
  require(chaos.report.complete() && chaos.report.cells_failed == 0,
          "chaos campaign did not complete cleanly");
  require(chaos.report.reclaims >= cells,
          "chaos campaign must reclaim every cell's first lease");
  require(clean.payloads == serial.payloads,
          "sharded payloads differ from the serial reference");
  require(chaos.payloads == serial.payloads,
          "post-crash payloads differ from the serial reference");

  util::JsonBuilder j;
  j.raw("options", bench::options_json(opt))
      .field("cells", static_cast<std::uint64_t>(cells))
      .field("workers", static_cast<std::uint64_t>(workers))
      .field("serial_seconds", serial.seconds)
      .field("campaign_cells_per_sec", clean_cps)
      .field("chaos_cells_per_sec", chaos_cps)
      .field("campaign_reclaim_latency_ns",
             chaos.report.reclaim_latency_ns_mean)
      .field("reclaims", static_cast<std::uint64_t>(chaos.report.reclaims))
      .field("worker_restarts",
             static_cast<std::uint64_t>(chaos.report.worker_restarts))
      .field("bitwise_ok", ok);
  bench::write_bench_json("campaign", j);

  std::filesystem::remove_all(serial.state_dir);
  std::filesystem::remove_all(clean.state_dir);
  std::filesystem::remove_all(chaos.state_dir);
  if (!ok) return 1;
  std::printf("\nall campaigns complete; payloads bitwise identical\n");
  return 0;
}
