#include "campaign/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "campaign/specfile.hpp"
#include "core/oracle.hpp"
#include "core/targets.hpp"
#include "nn/serialize.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/ship.hpp"
#include "obs/signal.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/process.hpp"
#include "util/rng.hpp"

namespace mldist::campaign {

const char kWorkerFlag[] = "--mldist-campaign-worker";

namespace {

/// One line, tabs/newlines flattened so it can ride a tab-framed protocol
/// message.
std::string sanitize_message(std::string text) {
  for (char& c : text) {
    if (c == '\t' || c == '\n' || c == '\r') c = ' ';
  }
  return text;
}

}  // namespace

CellOutcome run_cell(const Cell& cell, const CellHooks& hooks) {
  CellOutcome out;
  const auto hb = [&](const char* phase, int epoch) {
    if (hooks.heartbeat) hooks.heartbeat(phase, epoch);
  };
  try {
    core::ExperimentConfig config = cell.config;
    config.on_epoch = [&](const nn::EpochStats& s) { hb("fit", s.epoch); };
    const std::unique_ptr<core::Target> target = config.make_target();

    std::unique_ptr<core::MLDistinguisher> dist;
    core::TrainReport train;
    bool resumed = false;

    if (!hooks.resume_train.empty() && !hooks.snapshot_path.empty()) {
      // Phase-granular resume: a previous attempt journaled its offline
      // result and snapshotted the trained parameters.  Restoring the
      // snapshot (exact f32 round-trip, CRC-checked) and adopting the
      // bit-exact train report reproduces the distinguisher state an
      // uninterrupted run would be in right after train() — only the
      // (deterministic) online phase is re-run.
      try {
        const core::TrainReport recorded = read_train_json(hooks.resume_train);
        hb("resume", 0);
        auto candidate =
            std::make_unique<core::MLDistinguisher>(*target, config);
        nn::load_params(candidate->model(), hooks.snapshot_path);
        candidate->adopt_train_report(recorded, target->num_differences());
        train = recorded;
        dist = std::move(candidate);
        resumed = true;
        obs::count("campaign.cells_resumed");
      } catch (const std::exception& e) {
        // An unreadable train report or a missing or corrupt snapshot:
        // fall back to a full (and equally deterministic) retrain.
        obs::log_warn("campaign.worker", "resume failed; retraining")
            .field("cell", cell.id)
            .field("error", e.what());
      }
    }

    if (!resumed) {
      hb("train", 0);
      dist = std::make_unique<core::MLDistinguisher>(*target, config);
      train = dist->train(*target, config.offline_base_inputs);
      if (dist->degraded()) {
        // Retries inside train() are exhausted; surface the divergence to
        // the supervisor's (process-level) retry budget instead of
        // publishing a baseline-classifier payload.
        out.fail_kind = "diverged";
        out.fail_message = sanitize_message(
            train.robustness.last_fault.empty()
                ? "training diverged; retries exhausted"
                : train.robustness.last_fault);
        return out;
      }
      if (!hooks.snapshot_path.empty()) {
        // Durable snapshot publish (fsync'd tmp + rename): the supervisor
        // only trusts this file once the TRAINED record it journals from
        // on_trained is on the WAL, so a crash mid-write is harmless.
        const std::string tmp = hooks.snapshot_path + ".tmp";
        nn::save_params(dist->model(), tmp);
        util::fsync_file(tmp);
        std::filesystem::rename(tmp, hooks.snapshot_path);
        util::fsync_parent_dir(hooks.snapshot_path);
      }
      if (hooks.on_trained) hooks.on_trained(train);
    }

    const core::OnlineReport* online_ptr = nullptr;
    core::OnlineReport online;
    if (train.usable) {
      hb("online", 0);
      const core::CipherOracle oracle(*target);
      online = dist->test(oracle, config.online_base_inputs);
      online_ptr = &online;
    }
    out.payload = cell_payload_json(cell, train, online_ptr);
    out.telemetry = cell_telemetry_json(train, online_ptr);
    out.ok = true;
    return out;
  } catch (const std::exception& e) {
    out.ok = false;
    out.fail_kind = "error";
    out.fail_message = sanitize_message(e.what());
    return out;
  } catch (...) {
    out.ok = false;
    out.fail_kind = "error";
    out.fail_message = "unknown exception";
    return out;
  }
}

namespace {

struct ChaosConfig {
  bool kill_enabled = false;
  int kill_pct = 0;
  std::uint64_t kill_seed = 0;
  int kill_max_attempt = 0;
  bool hang_enabled = false;
  std::size_t hang_index = 0;
  int hang_attempt = 0;
  std::set<std::size_t> diverge;
};

ChaosConfig read_chaos_env() {
  ChaosConfig chaos;
  if (const char* env = std::getenv("MLDIST_CHAOS_KILL");
      env != nullptr && env[0] != '\0') {
    int pct = 0, max_attempt = 0;
    unsigned long long seed = 0;
    if (std::sscanf(env, "p=%d,seed=%llu,max=%d", &pct, &seed,
                    &max_attempt) == 3) {
      chaos.kill_enabled = true;
      chaos.kill_pct = pct;
      chaos.kill_seed = seed;
      chaos.kill_max_attempt = max_attempt;
    }
  }
  if (const char* env = std::getenv("MLDIST_CHAOS_HANG");
      env != nullptr && env[0] != '\0') {
    unsigned long long index = 0;
    int attempt = 0;
    if (std::sscanf(env, "%llu:%d", &index, &attempt) == 2) {
      chaos.hang_enabled = true;
      chaos.hang_index = static_cast<std::size_t>(index);
      chaos.hang_attempt = attempt;
    }
  }
  if (const char* env = std::getenv("MLDIST_CHAOS_DIVERGE");
      env != nullptr && env[0] != '\0') {
    const char* p = env;
    while (*p != '\0') {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(p, &end, 10);
      if (end == p) break;
      chaos.diverge.insert(static_cast<std::size_t>(v));
      p = *end == ',' ? end + 1 : end;
    }
  }
  return chaos;
}

/// Blocking read of one '\n'-terminated line from `fd` (buffered in `buf`
/// across calls).  False on EOF/error with no complete line.
bool read_line(int fd, std::string& buf, std::string& line) {
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      if (obs::interrupt_requested()) return false;
      continue;
    }
    return false;  // EOF or hard error: the supervisor is gone
  }
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      out.emplace_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

}  // namespace

int worker_entry(int argc, char** argv) {
  if (argc != 6 || std::strcmp(argv[1], kWorkerFlag) != 0) return -1;
  // <cmd_fd> <status_fd> <ship telemetry 0|1> <trace directory or "-">
  const int cmd_fd = std::atoi(argv[2]);
  const int status_fd = std::atoi(argv[3]);
  const bool ship_telemetry = std::strcmp(argv[4], "0") != 0;
  const std::string trace_dir = std::strcmp(argv[5], "-") != 0 ? argv[5] : "";
  // Immediate mode: a SIGTERM'd worker stamps "interrupted", drains the
  // logger ring and dies with the conventional signal wait status (which is
  // exactly what the supervisor's reclaim logic keys on).
  obs::install_interrupt_handlers(/*exit_immediately=*/true);
  const ChaosConfig chaos = read_chaos_env();

  if (!trace_dir.empty()) {
    // One lane per worker process; the supervisor merges the lanes into
    // obs/campaign.trace.json at campaign end (obs/trace_merge.hpp).
    obs::Tracer::global().enable(trace_dir + "/worker-" +
                                 std::to_string(::getpid()) + ".trace.json");
  }

  const auto send = [&](const std::string& line) {
    return util::write_all(status_fd, line + "\n");
  };

  // Telemetry shipping state (DESIGN.md §16): the worker's registry is
  // sampled against the previous sample and only the delta rides the
  // status pipe, so a long campaign's OBS records stay O(changed metrics).
  obs::MetricsSnapshot shipped;
  const auto ship_obs = [&] {
    if (!ship_telemetry) return;
    obs::MetricsSnapshot cur = obs::MetricsRegistry::global().snapshot();
    const std::string delta = obs::encode_metrics_delta(shipped, cur);
    if (!delta.empty()) send("OBS\t" + delta);
    shipped = std::move(cur);
  };
  auto last_ship = std::chrono::steady_clock::now();
  const auto ship_obs_throttled = [&] {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_ship < std::chrono::milliseconds(500)) return;
    last_ship = now;
    ship_obs();
    // Same cadence for the trace lane: a SIGKILLed worker then leaves a
    // truncated-but-valid file at most one throttle window stale.
    if (!trace_dir.empty()) obs::Tracer::global().flush();
  };

  if (!send("READY")) return 1;

  std::string buf;
  std::string line;
  while (read_line(cmd_fd, buf, line)) {
    if (line == "QUIT") break;
    const std::vector<std::string> f = split_tabs(line);
    std::uint64_t index = 0;
    std::uint64_t attempt_no = 0;
    // CELL <index> <attempt> <config JSON> <train JSON|-> <snapshot|->
    if (f.size() != 6 || f[0] != "CELL" ||
        util::json::parse_u64(f[1], index) != std::errc() ||
        util::json::parse_u64(f[2], attempt_no) != std::errc() ||
        attempt_no > INT_MAX) {
      obs::log_warn("campaign.worker", "malformed command").field("line", line);
      continue;
    }
    Cell cell;
    cell.index = static_cast<std::size_t>(index);
    const int attempt = static_cast<int>(attempt_no);
    try {
      cell.config = read_config_json(f[3]);
    } catch (const SpecError& e) {
      send("FAIL\t" + f[1] + "\terror\tundecodable cell config: " +
           sanitize_message(e.what()));
      continue;
    }
    cell.id = cell_id(cell.config);
    const std::string index_text = std::to_string(cell.index);

    if (chaos.diverge.count(cell.index) != 0) {
      send("FAIL\t" + index_text + "\tdiverged\tchaos: injected divergence");
      continue;
    }
    if (chaos.hang_enabled && chaos.hang_index == cell.index &&
        chaos.hang_attempt == attempt) {
      // Never heartbeat for this lease: the supervisor's watchdog must
      // notice the staleness and SIGKILL us.
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }

    // Deterministic mid-train SIGKILL, keyed on (cell, attempt) so the
    // schedule is reproducible and retries past `max` always converge.
    bool kill_this_lease = false;
    int kill_epoch = 0;
    if (chaos.kill_enabled && attempt <= chaos.kill_max_attempt) {
      const std::uint64_t h = util::derive_stream_seed(
          chaos.kill_seed,
          static_cast<std::uint64_t>(cell.index) * 31 +
              static_cast<std::uint64_t>(attempt));
      if (h % 100 < static_cast<std::uint64_t>(chaos.kill_pct)) {
        kill_this_lease = true;
        const int epochs = std::max(1, cell.config.epochs);
        kill_epoch = 1 + static_cast<int>((h >> 8) % static_cast<std::uint64_t>(epochs));
      }
    }

    CellHooks hooks;
    hooks.resume_train = f[4] == "-" ? "" : f[4];
    hooks.snapshot_path = f[5] == "-" ? "" : f[5];
    hooks.heartbeat = [&](const char* phase, int epoch) {
      send("HB\t" + index_text + "\t" + phase + "\t" + std::to_string(epoch));
      ship_obs_throttled();
      if (kill_this_lease && std::strcmp(phase, "fit") == 0 &&
          epoch == kill_epoch) {
        obs::Logger::global().flush();
        // Leave the last-flushed (valid) trace lane behind; the merged
        // campaign trace then shows this worker's truncated timeline.
        if (!trace_dir.empty()) obs::Tracer::global().flush();
        ::kill(::getpid(), SIGKILL);  // the chaos crash: no cleanup, no exit
      }
    };
    hooks.on_trained = [&](const core::TrainReport& train) {
      send("TRAINED\t" + index_text + "\t" + train_json(train));
    };

    const CellOutcome outcome = run_cell(cell, hooks);
    obs::Logger::global().flush();
    // Unthrottled: the cell's full delta must precede its DONE/FAIL so a
    // completed campaign's merged totals never miss a tail (the bitwise
    // invariance contract of DESIGN.md §16).
    ship_obs();
    if (outcome.ok) {
      if (!send("DONE\t" + index_text + "\t" + outcome.payload + "\t" +
                outcome.telemetry)) {
        break;
      }
    } else {
      if (!send("FAIL\t" + index_text + "\t" + outcome.fail_kind + "\t" +
                outcome.fail_message)) {
        break;
      }
    }
  }
  ship_obs();
  obs::Logger::global().flush();
  if (!trace_dir.empty()) obs::Tracer::global().flush();
  return 0;
}

}  // namespace mldist::campaign
