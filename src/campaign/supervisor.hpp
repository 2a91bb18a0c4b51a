// Campaign supervisor (ISSUE 7 tentpole): crash-safe sharded execution of
// an experiment grid over N worker processes.
//
// Protocol (one cmd pipe supervisor->worker, one status pipe back, per
// worker):
//
//   lease      supervisor sends CELL<idx,attempt,config,resume?,snapshot>
//              and journals {"event":"lease"} — exactly one worker holds a
//              cell at a time.
//   heartbeat  the worker reports HB<idx,phase,epoch> at phase starts and
//              every training epoch; the supervisor tracks staleness.
//   watchdog   a worker whose heartbeat is older than cell_timeout_s is
//              SIGKILLed; waitpid-based reaping then observes the death the
//              same way it observes a SIGSEGV or an external SIGKILL.
//   reclaim    a dead/hung worker's leased cell goes back to the queue with
//              exponential backoff (backoff_base_s * 2^(attempt-1), capped)
//              until max_cell_retries attempts are spent, after which the
//              cell is journaled permanently failed — the campaign always
//              completes, with partial results if it must (graceful
//              degradation).  FAIL reports (diverged / error) follow the
//              same budget without costing a worker restart.
//   shutdown   the supervisor sends QUIT and drains each status pipe until
//              it reaches EOF, which the worker causes by exiting after its
//              final OBS delta; a worker whose pipe is still open after 2 s
//              is SIGKILLed.  Every worker is reaped with waitpid.
//
// Determinism and recovery: results are a function of the cell config only
// (seeded per cell index — see spec.hpp), every completed cell's payload is
// journaled to the campaign.state.jsonl WAL *before* its history.jsonl
// line is appended, and a relaunched supervisor replays the WAL to skip
// finished cells, re-emit any missing history lines, and resume cells whose
// offline phase was journaled (TRAINED + model snapshot) at the online
// phase.  A cell's snapshot is deleted right after its "done" record and
// history line, so the state dir holds snapshots only for cells that can
// still resume.  workers=0 runs every cell in-process through the
// identical run_cell path — the serial reference the chaos tests compare
// against.
//
// Only one supervisor may own a state dir (flock on <state_dir>/LOCK).
#pragma once

#include <cstdint>
#include <string>

#include "campaign/spec.hpp"
#include "util/json.hpp"

namespace mldist::campaign {

struct SupervisorOptions {
  /// Worker processes to shard over; 0 = run cells in-process, serially
  /// (the determinism reference, and the fallback where fork is unwanted).
  std::size_t workers = 2;
  /// Heartbeat staleness (seconds) after which a worker counts as hung and
  /// is SIGKILLed.  Must exceed the longest heartbeat gap a healthy cell
  /// can have (one data-collection phase or one training epoch).
  double cell_timeout_s = 120.0;
  /// Lease attempts per cell (first run + retries) before permanent
  /// failure.
  int max_cell_retries = 3;
  double backoff_base_s = 0.25;  ///< reschedule delay after the 1st failure
  double backoff_cap_s = 8.0;
  /// Campaign state directory (WAL, snapshots, lock).  Required.
  std::string state_dir;
  /// Per-cell result lines; default "<state_dir>/history.jsonl".
  std::string history_path;
  /// Binary to exec as workers; default util::self_exe_path().  The binary
  /// must call worker_entry() first thing in main().
  std::string worker_exe;
  double poll_interval_s = 0.05;  ///< supervisor event-loop tick
  /// Test knob simulating a supervisor crash: stop (gracefully, journaling
  /// "interrupted") once this many cells have finished.  0 = off.
  std::size_t stop_after_cells = 0;
  /// Ship each worker's metrics-registry deltas over the status pipe and
  /// fold them into this process's registry under "campaign.worker.*"
  /// (DESIGN.md §16), so /metrics and /runz show live cross-worker totals.
  /// Serial mode folds per-cell deltas through the identical codec, which
  /// is what makes the merged totals bitwise identical for any worker
  /// count on a completed campaign.
  bool ship_telemetry = true;
  /// Trace each worker into <state_dir>/obs/worker-<pid>.trace.json and
  /// merge the lanes into <state_dir>/obs/campaign.trace.json at campaign
  /// end.  Also implied by the supervisor process itself being traced
  /// (--trace / MLDIST_TRACE).
  bool trace_workers = false;
};

struct CampaignReport {
  std::size_t cells_total = 0;
  std::size_t cells_done = 0;     ///< completed this run
  std::size_t cells_failed = 0;   ///< permanently failed this run
  std::size_t cells_skipped = 0;  ///< already journaled by a previous run
  std::size_t retries = 0;        ///< re-leases after any failure kind
  std::size_t reclaims = 0;       ///< leases reclaimed from dead/hung workers
  std::size_t worker_restarts = 0;
  bool interrupted = false;       ///< stopped early (signal/stop_after_cells)
  double reclaim_latency_ns_mean = 0.0;  ///< death detection -> requeued
  double seconds = 0.0;

  /// Every cell accounted for (done now, done before, or failed)?
  bool complete() const {
    return cells_done + cells_skipped + cells_failed == cells_total;
  }
  std::string to_json() const;
};

/// Delete the files under `dir` whose names end in `suffix`, keeping the
/// `keep_newest` most recently modified; a removed file's ".tmp" sibling
/// goes too.  Returns the number removed; best-effort (an unreadable dir
/// counts as empty).  A completed campaign sweeps its cells/ directory
/// with it.
std::size_t gc_directory(const std::string& dir, const std::string& suffix,
                         std::size_t keep_newest);

class Supervisor {
 public:
  Supervisor(CampaignSpec spec, SupervisorOptions options);

  /// Run (or resume) the campaign to completion.  Throws
  /// std::invalid_argument for unusable options (no state_dir, lock held
  /// elsewhere); worker failures never throw — they are the protocol's job.
  CampaignReport run();

 private:
  CampaignSpec spec_;
  SupervisorOptions options_;
};

}  // namespace mldist::campaign
