// Campaign worker (ISSUE 7): the process that actually runs cells.
//
// Workers are fork+exec'd copies of the *hosting binary* — any program
// embedding the Supervisor calls worker_entry(argc, argv) first thing in
// main(); it returns -1 for a normal invocation and otherwise takes over
// the process as a worker (reading CELL commands from the command pipe,
// reporting READY/HB/TRAINED/DONE/FAIL on the status pipe) and returns the
// exit code.  fork+exec rather than bare fork: the parent has thread-pool,
// logger and metrics-server threads whose mutexes a forked child would
// inherit in a locked, unowned state.
//
// run_cell is the single execution path for a cell, shared verbatim by
// workers and the Supervisor's in-process serial mode (workers=0) — which
// is what makes "sharded output is bitwise identical to a serial run" a
// structural property rather than a test hope.
//
// Crash-chaos injection (the process-level extension of core::FaultyOracle's
// deterministic-fault philosophy) lives HERE, in the worker loop, not in
// run_cell: serial reference runs are never perturbed.  Controlled by
// environment variables so the injection crosses the exec boundary:
//   MLDIST_CHAOS_KILL="p=P,seed=S,max=M"  raise(SIGKILL) mid-train with
//       probability P% per (cell,attempt) drawn from derive_stream_seed(S,
//       index*31+attempt), only while attempt <= M (so retries converge).
//   MLDIST_CHAOS_HANG="index:attempt"     sleep forever instead of training
//       that lease (exercises the heartbeat watchdog).
//   MLDIST_CHAOS_DIVERGE="i1,i2,..."      report FAIL diverged for those
//       cell indices on every attempt (exercises permanent failure).
#pragma once

#include <functional>
#include <string>

#include "campaign/spec.hpp"
#include "core/distinguisher.hpp"

namespace mldist::campaign {

/// Callbacks/inputs run_cell threads through a cell's execution.
struct CellHooks {
  /// Liveness + progress: called at phase starts and per training epoch.
  /// `phase` is a string literal.
  std::function<void(const char* phase, int epoch)> heartbeat;
  /// Offline phase committed: the model snapshot (if snapshot_path is set)
  /// is on disk and `train` is ready to journal.  Called once, before the
  /// online phase starts.
  std::function<void(const core::TrainReport& train)> on_trained;
  /// Non-empty: skip training, restore the model from snapshot_path and
  /// adopt this train_json() object (falls back to a full train when the
  /// object does not read back or the snapshot is missing/corrupt).
  std::string resume_train;
  /// Non-empty: where to snapshot the trained model (nn::save_params) so a
  /// later attempt can resume past the offline phase.
  std::string snapshot_path;
};

struct CellOutcome {
  bool ok = false;
  std::string fail_kind;     ///< "diverged" | "error" when !ok
  std::string fail_message;  ///< single line (tabs/newlines stripped)
  std::string payload;       ///< cell_payload_json when ok
  std::string telemetry;     ///< cell_telemetry_json when ok
};

/// Run one cell start to finish: offline collect+train (or snapshot
/// resume), then — when the distinguisher is usable — the online phase
/// against the cipher oracle.  Deterministic: the payload depends only on
/// cell.config.  Training that exhausts its retries and degrades to the
/// linear baseline is reported as fail_kind "diverged" (the campaign's
/// retry budget, not the payload, absorbs it).  Never throws.
CellOutcome run_cell(const Cell& cell, const CellHooks& hooks);

/// Worker-mode hook for main(): returns -1 when argv is not a worker
/// invocation ("<exe> --mldist-campaign-worker <cmd_fd> <status_fd>
/// <ship 0|1> <trace_dir|->", exactly as the Supervisor spawns it),
/// otherwise runs the worker loop and returns the process exit code.
int worker_entry(int argc, char** argv);

/// argv[1] of a worker invocation (exposed for the Supervisor's spawner).
extern const char kWorkerFlag[];

}  // namespace mldist::campaign
