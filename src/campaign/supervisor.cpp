#include "campaign/supervisor.hpp"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/specfile.hpp"
#include "campaign/worker.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/ship.hpp"
#include "obs/signal.hpp"
#include "obs/trace.hpp"
#include "obs/trace_merge.hpp"
#include "util/json.hpp"
#include "util/process.hpp"

namespace mldist::campaign {

namespace {

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class CellPhase {
  kPending,
  kLeased,
  kBackoff,
  kDone,
  kFailed,
  kSkipped,
};

struct CellState {
  Cell cell;
  CellPhase phase = CellPhase::kPending;
  int attempts = 0;        ///< leases consumed
  double ready_at = 0.0;   ///< backoff expiry (monotonic seconds)
  double cost = 0.0;       ///< spec.hpp cell_cost(): lease ordering + ETA
  std::string train;       ///< journaled train_json() (resume record)
};

/// Lease queue order: heterogeneous cell costs, most expensive first so the
/// long poles start while cheap cells fill the tail (classic LPT); ties
/// break on grid index for determinism.
struct CostFirst {
  bool operator()(const std::pair<double, std::size_t>& a,
                  const std::pair<double, std::size_t>& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  }
};
using ReadyQueue = std::set<std::pair<double, std::size_t>, CostFirst>;

struct WorkerSlot {
  pid_t pid = -1;
  int cmd_fd = -1;     ///< parent write end
  int status_fd = -1;  ///< parent read end, nonblocking
  std::string rx;      ///< partial status-line buffer
  std::ptrdiff_t leased = -1;  ///< grid index of the held cell, -1 = idle
  bool ready = false;          ///< READY received
  bool killing = false;        ///< we SIGKILLed it (watchdog)
  double last_heartbeat = 0.0;
};

/// Live counters behind the /runz detail provider.  Heap + shared_ptr so a
/// provider invocation racing the supervisor's teardown stays valid.
struct LiveCounters {
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> skipped{0};
  std::atomic<std::size_t> in_flight{0};
  std::atomic<std::size_t> workers{0};
};

/// Per-lease progress behind the /runz detail provider (ISSUE 8): which
/// cells are in flight, their cost estimates, and the completed-cost
/// throughput the per-cell ETA is derived from.  Mutex-protected because
/// the provider runs on the HTTP serving thread.
struct LiveDetail {
  struct Lease {
    std::string id;
    std::uint64_t index = 0;
    double cost = 0.0;
    double since = 0.0;  ///< monotonic lease time
  };
  std::mutex mu;
  std::vector<Lease> leases;
  double cost_total = 0.0;
  double cost_done = 0.0;
  double t0 = 0.0;  ///< monotonic campaign start
};

/// The whole campaign run: built fresh by Supervisor::run so the public
/// class stays a thin handle.
class Runner {
 public:
  Runner(const CampaignSpec& spec, const SupervisorOptions& options)
      : spec_(spec), options_(options) {}

  CampaignReport run();

 private:
  // --- paths ---------------------------------------------------------------
  std::string journal_path() const {
    return options_.state_dir + "/campaign.state.jsonl";
  }
  std::string cells_dir() const { return options_.state_dir + "/cells"; }
  std::string obs_dir() const { return options_.state_dir + "/obs"; }
  std::string snapshot_path(const CellState& cs) const {
    return cells_dir() + "/" + cs.cell.id + ".model";
  }

  // --- WAL -----------------------------------------------------------------
  void journal(const util::JsonBuilder& record) {
    const util::WriteResult rc = util::append_jsonl(journal_path(), record.str());
    if (!rc) {
      obs::log_error("campaign", "WAL append failed").field("error", rc.error);
    }
  }
  void journal_event(const char* event, const CellState& cs,
                     util::JsonBuilder&& extra) {
    util::JsonBuilder j;
    j.field("event", event)
        .field("cell", cs.cell.id)
        .field("index", static_cast<std::uint64_t>(cs.cell.index))
        .merge(extra);
    journal(j);
  }
  /// Journal a cell's train_json() and keep it as the cell's resume record.
  void journal_trained(CellState& cs, const std::string& train) {
    cs.train = train;
    util::JsonBuilder extra;
    extra.raw("train", train);
    journal_event("trained", cs, std::move(extra));
  }

  void append_history(const CellState& cs, const std::string& payload,
                      const std::string& telemetry) {
    util::JsonBuilder j;
    j.field("campaign", spec_.name)
        .field("cell", cs.cell.id)
        .field("index", static_cast<std::uint64_t>(cs.cell.index))
        .raw("manifest", obs::RunManifest::current().to_json())
        .raw("payload", payload)
        .raw("telemetry", telemetry.empty() ? "null" : telemetry);
    const util::WriteResult rc =
        util::append_jsonl(options_.history_path, j.str());
    if (!rc) {
      obs::log_error("campaign", "history append failed")
          .field("error", rc.error);
    }
  }

  // --- lifecycle -----------------------------------------------------------
  void load_prior_state();
  void reconcile_history();
  void run_serial();
  void run_sharded();

  // --- sharded-mode machinery ----------------------------------------------
  void spawn_worker();
  void shutdown_workers();
  void assign_ready_cells(double now);
  void pump_status(WorkerSlot& w, double now);
  void handle_status_line(WorkerSlot& w, const std::string& line, double now);
  void reap_workers(double now);
  void run_watchdog(double now);
  void promote_backoffs(double now);

  void complete_cell(CellState& cs, const std::string& payload,
                     const std::string& telemetry);
  void fail_attempt(CellState& cs, const std::string& reason, double now);

  void queue_ready(const CellState& cs) {
    ready_.insert({cs.cost, cs.cell.index});
  }
  void detail_lease(const CellState& cs, double now) {
    std::lock_guard<std::mutex> lock(detail_->mu);
    detail_->leases.push_back(
        {cs.cell.id, static_cast<std::uint64_t>(cs.cell.index), cs.cost, now});
  }
  void detail_release(const CellState& cs, bool completed) {
    std::lock_guard<std::mutex> lock(detail_->mu);
    std::erase_if(detail_->leases, [&](const LiveDetail::Lease& l) {
      return l.index == static_cast<std::uint64_t>(cs.cell.index);
    });
    if (completed) detail_->cost_done += cs.cost;
  }
  bool work_remaining() const {
    return finished_ < cells_.size();
  }
  CellState* cell_by_index(std::uint64_t index) {
    return index < cells_.size() ? &cells_[index] : nullptr;
  }

  void gc_state_dir();

  CampaignSpec spec_;
  SupervisorOptions options_;
  std::vector<CellState> cells_;
  std::map<std::string, std::string> done_payloads_;   ///< WAL replay, by id
  std::map<std::string, std::string> done_telemetry_;
  ReadyQueue ready_;  ///< leaseable cells, most expensive first
  std::vector<WorkerSlot> workers_;
  CampaignReport report_;
  std::string grid_crc_;  ///< fingerprint of the expanded grid
  std::shared_ptr<LiveCounters> live_ = std::make_shared<LiveCounters>();
  std::shared_ptr<LiveDetail> detail_ = std::make_shared<LiveDetail>();
  std::size_t finished_ = 0;  ///< cells in a terminal phase
  bool stop_requested_ = false;
  double reclaim_latency_ns_sum_ = 0.0;
  std::string worker_trace_dir_;  ///< "" = worker tracing off
};

CampaignReport Runner::run() {
  if (options_.state_dir.empty()) {
    throw std::invalid_argument("campaign: state_dir is required");
  }
  std::filesystem::create_directories(cells_dir());
  if (options_.history_path.empty()) {
    options_.history_path = options_.state_dir + "/history.jsonl";
  }
  if (options_.worker_exe.empty()) {
    options_.worker_exe = util::self_exe_path();
  }
  options_.max_cell_retries = std::max(0, options_.max_cell_retries);
  if (options_.trace_workers || !obs::Tracer::global().path().empty()) {
    // A traced campaign traces its workers too: one lane per process,
    // merged below once the campaign ends.
    worker_trace_dir_ = obs_dir();
    std::filesystem::create_directories(worker_trace_dir_);
  }

  util::FileLock lock;
  std::string lock_error;
  if (!lock.acquire(options_.state_dir + "/LOCK", &lock_error)) {
    throw std::invalid_argument("campaign: " + lock_error);
  }

  const std::vector<Cell> grid = expand_grid(spec_);
  grid_crc_ = grid_crc(grid);
  cells_.reserve(grid.size());
  double cost_total = 0.0;
  for (const Cell& cell : grid) {
    CellState cs;
    cs.cell = cell;
    cs.cost = cell_cost(cs.cell.config);
    cost_total += cs.cost;
    cells_.push_back(std::move(cs));
  }
  report_.cells_total = cells_.size();

  load_prior_state();
  reconcile_history();

  {
    util::JsonBuilder j;
    j.field("event", "start")
        .field("campaign", spec_.name)
        .field("cells", static_cast<std::uint64_t>(cells_.size()))
        .field("seed", spec_.seed)
        .field("grid", grid_crc_)
        .field("workers", static_cast<std::uint64_t>(options_.workers))
        .raw("manifest", obs::RunManifest::current().to_json());
    journal(j);
  }

  // /runz: fold campaign progress into the live status endpoint, with
  // per-lease cost/ETA derived from completed-cost throughput.
  {
    std::lock_guard<std::mutex> lock(detail_->mu);
    detail_->cost_total = cost_total;
    detail_->t0 = mono_s();
  }
  {
    auto live = live_;
    auto detail = detail_;
    const std::string name = spec_.name;
    const std::uint64_t total = cells_.size();
    obs::RunStatus::global().set_detail_provider([live, detail, name, total] {
      util::JsonBuilder j;
      j.field("campaign", name)
          .field("cells_total", total)
          .field("cells_done", static_cast<std::uint64_t>(live->done.load()))
          .field("cells_failed",
                 static_cast<std::uint64_t>(live->failed.load()))
          .field("cells_skipped",
                 static_cast<std::uint64_t>(live->skipped.load()))
          .field("in_flight",
                 static_cast<std::uint64_t>(live->in_flight.load()))
          .field("workers", static_cast<std::uint64_t>(live->workers.load()));
      {
        std::lock_guard<std::mutex> lock(detail->mu);
        const double now = mono_s();
        const double elapsed = std::max(1e-9, now - detail->t0);
        // Unitless cost per wall second, from completed cells only; 0 until
        // the first completion (ETAs render as null until then).
        const double rate = detail->cost_done / elapsed;
        j.field("cost_total", detail->cost_total)
            .field("cost_done", detail->cost_done)
            .field("cost_rate", rate);
        std::vector<std::string> leases;
        leases.reserve(detail->leases.size());
        for (const LiveDetail::Lease& l : detail->leases) {
          util::JsonBuilder e;
          e.field("cell", l.id)
              .field("index", l.index)
              .field("cost", l.cost)
              .field("running_s", now - l.since);
          if (rate > 0.0) {
            e.field("eta_s", l.cost / rate);
          } else {
            e.raw("eta_s", "null");
          }
          leases.push_back(e.str());
        }
        j.raw("leases", util::JsonBuilder::array(leases));
      }
      return j.str();
    });
  }
  obs::RunStatus::global().set_phase("campaign");

  const double t0 = mono_s();
  if (options_.workers == 0) {
    run_serial();
  } else {
    run_sharded();
  }
  report_.seconds = mono_s() - t0;

  if (!worker_trace_dir_.empty()) {
    // Stitch the per-worker lanes (including the truncated lane a
    // chaos-killed worker left behind) into one Perfetto-loadable timeline.
    const std::vector<std::string> lanes =
        obs::list_trace_files(worker_trace_dir_);
    if (!lanes.empty()) {
      obs::TraceMergeResult merged;
      std::string error;
      const std::string out = worker_trace_dir_ + "/campaign.trace.json";
      if (obs::merge_trace_files(lanes, out, &merged, &error)) {
        obs::log_info("campaign", "merged worker traces")
            .field("path", out)
            .field("lanes", static_cast<std::uint64_t>(merged.lanes))
            .field("events", static_cast<std::uint64_t>(merged.events));
      } else {
        obs::log_warn("campaign", "trace merge failed").field("error", error);
      }
    }
  }

  if (report_.reclaims > 0) {
    report_.reclaim_latency_ns_mean =
        reclaim_latency_ns_sum_ / static_cast<double>(report_.reclaims);
  }

  if (report_.interrupted) {
    util::JsonBuilder j;
    j.field("event", "interrupted");
    journal(j);
  } else {
    gc_state_dir();
  }
  {
    util::JsonBuilder j;
    j.field("event", "end")
        .field("done", static_cast<std::uint64_t>(report_.cells_done))
        .field("failed", static_cast<std::uint64_t>(report_.cells_failed))
        .field("skipped", static_cast<std::uint64_t>(report_.cells_skipped));
    journal(j);
  }
  obs::RunStatus::global().set_detail_provider(nullptr);
  obs::RunStatus::global().set_phase("idle");
  obs::Logger::global().flush();
  return report_;
}

void Runner::load_prior_state() {
  const JournalState prior = replay_journal(journal_path());
  // Spec-change guard: an edit that alters the expanded grid invalidates the
  // journal's by-id bookkeeping (ids could collide with different configs).
  // A start record without the fingerprint cannot prove its grid either.
  if (prior.saw_start && prior.grid_crc != grid_crc_) {
    throw std::invalid_argument(
        "campaign: the spec's expanded grid (crc " + grid_crc_ +
        ") does not match the existing journal (crc " +
        (prior.grid_crc.empty() ? "missing" : prior.grid_crc) +
        "); resume with the original spec or point state_dir at a fresh "
        "directory");
  }
  for (CellState& cs : cells_) {
    if (prior.done_payload.count(cs.cell.id) != 0) {
      cs.phase = CellPhase::kSkipped;
      ++report_.cells_skipped;
      ++finished_;
      live_->skipped.fetch_add(1);
    } else if (prior.failed.count(cs.cell.id) != 0) {
      // Permanently failed in a previous run: recovery is deterministic, so
      // re-running would fail identically — keep the verdict.
      cs.phase = CellPhase::kFailed;
      ++report_.cells_failed;
      ++finished_;
      live_->failed.fetch_add(1);
    } else {
      if (const auto it = prior.trained.find(cs.cell.id);
          it != prior.trained.end()) {
        // Resume at the online phase.  Re-rendered, because the WAL may
        // hold any JSON whitespace and a tab would split the CELL line; a
        // report that does not read back is dropped, and the cell retrains.
        try {
          cs.train = train_json(read_train_json(it->second));
        } catch (const SpecError&) {
        }
      }
      queue_ready(cs);
    }
  }
  // Stash the journaled payloads for history reconciliation.
  done_payloads_ = prior.done_payload;
  done_telemetry_ = prior.done_telemetry;
}

void Runner::reconcile_history() {
  // Exactly-once history lines: the WAL "done" record is the commit point;
  // a crash between it and the history append is healed here by re-emitting
  // the missing line with the journaled payload bytes, verbatim.
  std::set<std::string> present;
  {
    std::ifstream in(options_.history_path);
    std::string line;
    while (in && std::getline(in, line)) {
      std::string id;
      if (extract_json_string(line, "cell", id)) present.insert(id);
    }
  }
  for (const CellState& cs : cells_) {
    if (cs.phase != CellPhase::kSkipped) continue;
    if (present.count(cs.cell.id) != 0) continue;
    const auto payload = done_payloads_.find(cs.cell.id);
    if (payload == done_payloads_.end()) continue;
    const auto telemetry = done_telemetry_.find(cs.cell.id);
    append_history(cs, payload->second,
                   telemetry != done_telemetry_.end() ? telemetry->second
                                                      : std::string());
    obs::count("campaign.history_reconciled");
  }
}

void Runner::complete_cell(CellState& cs, const std::string& payload,
                           const std::string& telemetry) {
  journal_event("done", cs, [&] {
    util::JsonBuilder extra;
    extra.raw("payload", payload)
        .raw("telemetry", telemetry.empty() ? "null" : telemetry);
    return extra;
  }());
  append_history(cs, payload, telemetry);
  // The done record makes the snapshot dead weight: a done cell never
  // resumes.
  std::error_code ec;
  std::filesystem::remove(snapshot_path(cs), ec);
  cs.phase = CellPhase::kDone;
  ++report_.cells_done;
  ++finished_;
  live_->done.fetch_add(1);
  detail_release(cs, /*completed=*/true);
  obs::count("campaign.cells_done");
}

void Runner::fail_attempt(CellState& cs, const std::string& reason,
                          double now) {
  detail_release(cs, /*completed=*/false);
  const int max_attempts = 1 + options_.max_cell_retries;
  if (cs.attempts >= max_attempts) {
    journal_event("failed", cs, [&] {
      util::JsonBuilder extra;
      extra.field("attempts", cs.attempts).field("reason", reason);
      return extra;
    }());
    cs.phase = CellPhase::kFailed;
    ++report_.cells_failed;
    ++finished_;
    live_->failed.fetch_add(1);
    obs::count("campaign.cells_failed");
    obs::log_warn("campaign", "cell permanently failed")
        .field("cell", cs.cell.id)
        .field("index", static_cast<std::uint64_t>(cs.cell.index))
        .field("attempts", cs.attempts)
        .field("reason", reason);
    return;
  }
  // Exponential backoff before the next lease, capped.
  const double delay = std::min(
      options_.backoff_cap_s,
      options_.backoff_base_s * std::pow(2.0, std::max(0, cs.attempts - 1)));
  cs.phase = CellPhase::kBackoff;
  cs.ready_at = now + delay;
  ++report_.retries;
  obs::count("campaign.retries");
}

void Runner::promote_backoffs(double now) {
  for (CellState& cs : cells_) {
    if (cs.phase == CellPhase::kBackoff && now >= cs.ready_at) {
      cs.phase = CellPhase::kPending;
      queue_ready(cs);
    }
  }
}

// --- serial mode -----------------------------------------------------------

void Runner::run_serial() {
  // In-process reference execution: the identical run_cell path the workers
  // use, minus processes — this is what "sharded == serial, bitwise" is
  // measured against.
  while (work_remaining() && !stop_requested_) {
    if (obs::interrupt_requested() ||
        (options_.stop_after_cells > 0 &&
         report_.cells_done + report_.cells_failed >=
             options_.stop_after_cells)) {
      report_.interrupted = true;
      return;
    }
    const double now = mono_s();
    promote_backoffs(now);
    if (ready_.empty()) {
      // Everything live is in backoff; sleep until the earliest expiry.
      double next = now + 1.0;
      for (const CellState& cs : cells_) {
        if (cs.phase == CellPhase::kBackoff) next = std::min(next, cs.ready_at);
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.0, next - now)));
      continue;
    }
    CellState& cs = cells_[ready_.begin()->second];
    ready_.erase(ready_.begin());
    ++cs.attempts;
    cs.phase = CellPhase::kLeased;
    live_->in_flight.store(1);
    detail_lease(cs, now);
    journal_event("lease", cs, [&] {
      util::JsonBuilder extra;
      extra.field("attempt", cs.attempts).field("worker", 0);
      return extra;
    }());
    obs::count("campaign.leases");

    CellHooks hooks;
    hooks.resume_train = cs.train;
    hooks.snapshot_path = snapshot_path(cs);
    hooks.on_trained = [&](const core::TrainReport& train) {
      journal_trained(cs, train_json(train));
    };
    obs::MetricsSnapshot before;
    if (options_.ship_telemetry) {
      before = obs::MetricsRegistry::global().snapshot();
    }
    const CellOutcome outcome = run_cell(cs.cell, hooks);
    if (options_.ship_telemetry) {
      // Fold the cell's delta through the same encode/apply codec the
      // sharded path uses: structurally the same arithmetic, so the
      // campaign.worker.* totals of a completed campaign are bitwise
      // identical for any worker count (run_cell itself never touches the
      // campaign.worker.* names, so there is no double count).
      const std::string delta = obs::encode_metrics_delta(
          before, obs::MetricsRegistry::global().snapshot());
      if (!delta.empty()) obs::apply_metrics_delta(delta, "campaign.worker.");
    }
    live_->in_flight.store(0);
    if (outcome.ok) {
      complete_cell(cs, outcome.payload, outcome.telemetry);
    } else {
      fail_attempt(cs, outcome.fail_kind + ": " + outcome.fail_message,
                   mono_s());
    }
  }
}

// --- sharded mode ----------------------------------------------------------

void Runner::spawn_worker() {
  WorkerSlot w;
  // cmd pipe: parent keeps the write end (CLOEXEC, so no sibling worker
  // inherits it and the child sees EOF the moment the supervisor dies).
  const util::Pipe cmd = util::make_pipe(/*parent_keeps_read=*/false);
  // status pipe: parent keeps the read end.
  const util::Pipe status = util::make_pipe(/*parent_keeps_read=*/true);
  const std::vector<std::string> argv = {
      options_.worker_exe,
      kWorkerFlag,
      std::to_string(cmd.read_fd),
      std::to_string(status.write_fd),
      options_.ship_telemetry ? "1" : "0",
      worker_trace_dir_.empty() ? "-" : worker_trace_dir_};
  w.pid = util::spawn_process(argv);
  util::close_fd(cmd.read_fd);      // child's ends, parent copies
  util::close_fd(status.write_fd);
  w.cmd_fd = cmd.write_fd;
  w.status_fd = status.read_fd;
  util::set_nonblocking(w.status_fd, true);
  w.last_heartbeat = mono_s();
  workers_.push_back(std::move(w));
  live_->workers.fetch_add(1);
}

void Runner::shutdown_workers() {
  for (WorkerSlot& w : workers_) {
    if (w.pid < 0) continue;
    util::write_all(w.cmd_fd, "QUIT\n");
    util::close_fd(w.cmd_fd);  // EOF doubles as quit for a mid-read worker
    w.cmd_fd = -1;
  }
  // A status pipe reaches EOF only when its worker exits, after its final
  // OBS delta.  Drain every pipe until then: the tail OBS records keep the
  // merged totals whole (the §16 invariance contract), and a full pipe
  // would block the worker from ever reaching exit.
  const double deadline = mono_s() + 2.0;
  for (;;) {
    std::vector<pollfd> fds;
    for (const WorkerSlot& w : workers_) {
      if (w.pid >= 0 && w.status_fd >= 0) {
        fds.push_back(pollfd{w.status_fd, POLLIN, 0});
      }
    }
    const double left_ms = (deadline - mono_s()) * 1000.0;
    if (fds.empty() || left_ms <= 0.0) break;
    ::poll(fds.data(), fds.size(), static_cast<int>(std::ceil(left_ms)));
    for (WorkerSlot& w : workers_) {
      if (w.pid >= 0) pump_status(w, mono_s());
    }
  }
  for (WorkerSlot& w : workers_) {
    if (w.pid < 0) continue;
    if (w.status_fd >= 0) {
      // Still open at the deadline: hung, or mid-cell past the budget.
      util::kill_process(w.pid, SIGKILL);
      util::close_fd(w.status_fd);
      w.status_fd = -1;
    }
    util::wait_child(w.pid);
    w.pid = -1;
  }
  live_->workers.store(0);
  live_->in_flight.store(0);
}

void Runner::assign_ready_cells(double now) {
  for (WorkerSlot& w : workers_) {
    if (ready_.empty()) return;
    if (w.pid < 0 || !w.ready || w.leased >= 0 || w.killing) continue;
    CellState& cs = cells_[ready_.begin()->second];
    ready_.erase(ready_.begin());
    ++cs.attempts;
    cs.phase = CellPhase::kLeased;
    w.leased = static_cast<std::ptrdiff_t>(cs.cell.index);
    w.last_heartbeat = now;
    live_->in_flight.fetch_add(1);
    detail_lease(cs, now);
    journal_event("lease", cs, [&] {
      util::JsonBuilder extra;
      extra.field("attempt", cs.attempts)
          .field("worker", static_cast<std::uint64_t>(w.pid));
      return extra;
    }());
    obs::count("campaign.leases");
    const std::string line =
        "CELL\t" + std::to_string(cs.cell.index) + "\t" +
        std::to_string(cs.attempts) + "\t" + cs.cell.config.to_json() +
        "\t" + (cs.train.empty() ? "-" : cs.train) + "\t" +
        snapshot_path(cs) + "\n";
    if (!util::write_all(w.cmd_fd, line)) {
      // Worker died between spawn and lease; the reaper reclaims the cell.
      obs::log_warn("campaign", "lease write failed; worker presumed dead")
          .field("worker", static_cast<std::uint64_t>(w.pid));
    }
  }
}

void Runner::handle_status_line(WorkerSlot& w, const std::string& line,
                                double now) {
  std::vector<std::string> f;
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == '\t') {
        f.emplace_back(line.substr(start, i - start));
        start = i + 1;
      }
    }
  }
  if (f.empty()) return;
  w.last_heartbeat = now;
  if (f[0] == "READY") {
    w.ready = true;
    return;
  }
  if (f[0] == "OBS" && f.size() >= 2) {
    // Worker registry delta: fold into this process's registry under the
    // campaign.worker.* namespace so /metrics and /runz aggregate live
    // across workers.  Malformed payloads are dropped inside apply.
    obs::apply_metrics_delta(f[1], "campaign.worker.");
    return;
  }
  std::uint64_t index = 0;
  if (f.size() < 2 || util::json::parse_u64(f[1], index) != std::errc()) {
    return;
  }
  CellState* cs = cell_by_index(index);
  if (cs == nullptr) return;
  if (f[0] == "HB") {
    return;  // the timestamp update above is the whole point
  }
  if (f[0] == "TRAINED" && f.size() >= 3) {
    // Journaled raw, but only as an object: anything else would corrupt the
    // WAL line.  A report the worker cannot read back costs a retrain.
    util::json::Value train;
    if (util::json::parse(f[2], train) &&
        train.kind == util::json::Value::Kind::kObject) {
      journal_trained(*cs, f[2]);
    }
    return;
  }
  if (f[0] == "DONE" && f.size() >= 4) {
    complete_cell(*cs, f[2], f[3]);
    if (w.leased == static_cast<std::ptrdiff_t>(index)) {
      w.leased = -1;
      live_->in_flight.fetch_sub(1);
    }
    return;
  }
  if (f[0] == "FAIL" && f.size() >= 4) {
    fail_attempt(*cs, f[2] + ": " + f[3], now);
    if (w.leased == static_cast<std::ptrdiff_t>(index)) {
      w.leased = -1;
      live_->in_flight.fetch_sub(1);
    }
    return;
  }
}

void Runner::pump_status(WorkerSlot& w, double now) {
  if (w.status_fd < 0) return;
  const bool open = util::read_available(w.status_fd, w.rx);
  std::size_t nl;
  while ((nl = w.rx.find('\n')) != std::string::npos) {
    const std::string line = w.rx.substr(0, nl);
    w.rx.erase(0, nl + 1);
    handle_status_line(w, line, now);
  }
  if (!open) {
    util::close_fd(w.status_fd);
    w.status_fd = -1;  // EOF; the reaper handles the rest
  }
}

void Runner::reap_workers(double now) {
  for (WorkerSlot& w : workers_) {
    if (w.pid < 0) continue;
    const util::ChildStatus st = util::poll_child(w.pid);
    if (st.state == util::ChildState::kRunning) continue;
    // Drain any status lines the worker managed to write before dying
    // (e.g. DONE immediately followed by exit).
    pump_status(w, now);
    const bool signaled = st.state == util::ChildState::kSignaled;
    obs::log_warn("campaign", "worker exited")
        .field("worker", static_cast<std::uint64_t>(w.pid))
        .field("how", signaled ? "signal" : "exit")
        .field("code", st.code);
    if (w.leased >= 0) {
      CellState& cs = cells_[static_cast<std::size_t>(w.leased)];
      const std::string reason =
          w.killing ? "hung"
                    : (signaled ? "died: signal " + std::to_string(st.code)
                                : "died: exit " + std::to_string(st.code));
      journal_event("reclaim", cs, [&] {
        util::JsonBuilder extra;
        extra.field("attempt", cs.attempts).field("reason", reason);
        return extra;
      }());
      fail_attempt(cs, reason, now);
      ++report_.reclaims;
      // Latency of this reclaim: death observation -> cell requeued.  The
      // whole sequence (journal append + bookkeeping) happens inline here.
      reclaim_latency_ns_sum_ += (mono_s() - now) * 1e9;
      obs::count("campaign.reclaims");
      live_->in_flight.fetch_sub(1);
      w.leased = -1;
    }
    util::close_fd(w.cmd_fd);
    util::close_fd(w.status_fd);
    w.cmd_fd = w.status_fd = -1;
    w.pid = -1;
    w.ready = false;
    live_->workers.fetch_sub(1);
  }
  // Respawn up to the configured width while leasable work remains.
  std::erase_if(workers_, [](const WorkerSlot& w) { return w.pid < 0; });
  std::size_t leasable = ready_.size();
  for (const CellState& cs : cells_) {
    if (cs.phase == CellPhase::kBackoff) ++leasable;
  }
  while (workers_.size() < options_.workers &&
         workers_.size() < leasable + live_->in_flight.load()) {
    spawn_worker();
    ++report_.worker_restarts;
    obs::count("campaign.worker_restarts");
  }
}

void Runner::run_watchdog(double now) {
  for (WorkerSlot& w : workers_) {
    if (w.pid < 0 || w.leased < 0 || w.killing) continue;
    if (now - w.last_heartbeat > options_.cell_timeout_s) {
      obs::log_warn("campaign", "heartbeat stale; killing worker")
          .field("worker", static_cast<std::uint64_t>(w.pid))
          .field("cell", cells_[static_cast<std::size_t>(w.leased)].cell.id)
          .field("stale_s", now - w.last_heartbeat);
      w.killing = true;
      util::kill_process(w.pid, SIGKILL);
      obs::count("campaign.watchdog_kills");
    }
  }
}

void Runner::run_sharded() {
  // A worker death mid-write must surface as EPIPE on write(2), not as a
  // process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  const std::size_t width = std::min(options_.workers, ready_.size());
  for (std::size_t i = 0; i < width; ++i) spawn_worker();

  while (work_remaining()) {
    if (obs::interrupt_requested() ||
        (options_.stop_after_cells > 0 &&
         report_.cells_done + report_.cells_failed >=
             options_.stop_after_cells)) {
      report_.interrupted = true;
      break;
    }
    double now = mono_s();
    promote_backoffs(now);
    assign_ready_cells(now);

    // Sleep on the status pipes: wakes early on any worker message.
    std::vector<pollfd> fds;
    fds.reserve(workers_.size());
    for (const WorkerSlot& w : workers_) {
      if (w.status_fd >= 0) {
        fds.push_back(pollfd{w.status_fd, POLLIN, 0});
      }
    }
    const int timeout_ms =
        std::max(1, static_cast<int>(options_.poll_interval_s * 1000.0));
    if (!fds.empty()) {
      ::poll(fds.data(), fds.size(), timeout_ms);
    } else {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.poll_interval_s));
    }

    now = mono_s();
    for (WorkerSlot& w : workers_) pump_status(w, now);
    reap_workers(now);
    run_watchdog(now);
  }
  shutdown_workers();
}

void Runner::gc_state_dir() {
  // Completed campaign: done cells dropped their snapshots as they
  // finished; sweep what a crash or a failed cell left behind.
  gc_directory(cells_dir(), ".model", 0);
  gc_directory(cells_dir(), ".tmp", 0);
}

}  // namespace

std::size_t gc_directory(const std::string& dir, const std::string& suffix,
                         std::size_t keep_newest) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::pair<fs::file_time_type, fs::path>> matches;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    matches.emplace_back(entry.last_write_time(ec), entry.path());
  }
  if (matches.size() <= keep_newest) return 0;
  std::sort(matches.begin(), matches.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::size_t removed = 0;
  for (std::size_t i = keep_newest; i < matches.size(); ++i) {
    if (fs::remove(matches[i].second, ec)) ++removed;
    fs::remove(matches[i].second.string() + ".tmp", ec);
  }
  obs::count("campaign.gc_removed", removed);
  return removed;
}

std::string CampaignReport::to_json() const {
  util::JsonBuilder j;
  j.field("cells_total", static_cast<std::uint64_t>(cells_total))
      .field("cells_done", static_cast<std::uint64_t>(cells_done))
      .field("cells_failed", static_cast<std::uint64_t>(cells_failed))
      .field("cells_skipped", static_cast<std::uint64_t>(cells_skipped))
      .field("retries", static_cast<std::uint64_t>(retries))
      .field("reclaims", static_cast<std::uint64_t>(reclaims))
      .field("worker_restarts", static_cast<std::uint64_t>(worker_restarts))
      .field("interrupted", interrupted)
      .field("complete", complete())
      .field("reclaim_latency_ns_mean", reclaim_latency_ns_mean)
      .field("seconds", seconds);
  return j.str();
}

Supervisor::Supervisor(CampaignSpec spec, SupervisorOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {}

CampaignReport Supervisor::run() {
  Runner runner(spec_, options_);
  return runner.run();
}

}  // namespace mldist::campaign
