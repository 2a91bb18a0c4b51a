// Campaign subsystem tests (ISSUE 7, -L fault): append_jsonl multi-process
// atomicity, grid expansion determinism, the cell records' exact JSON round
// trip, WAL replay, sharded-vs-serial bitwise payload equality, chaos
// SIGKILL recovery, the heartbeat watchdog, the shutdown deadline,
// diverged-cell graceful degradation, supervisor resume, snapshot lifetime
// and state-dir GC, and the /runz detail provider.
//
// This binary doubles as its own campaign worker: main() calls
// campaign::worker_entry first, exactly like mldist_cli, so the Supervisor
// can exec copies of the test executable.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/journal.hpp"
#include "campaign/spec.hpp"
#include "campaign/specfile.hpp"
#include "campaign/supervisor.hpp"
#include "campaign/worker.hpp"
#include "core/experiment.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_merge.hpp"
#include "util/json.hpp"
#include "util/process.hpp"
#include "util/rng.hpp"

namespace {

using namespace mldist;

// --- helpers ---------------------------------------------------------------

/// Fresh private directory under the system temp dir; removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const char* tag) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("mldist-campaign-" + std::to_string(::getpid()) + "-" +
              std::to_string(counter++) + "-" + tag))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// setenv on construction, unsetenv on destruction — chaos knobs must never
/// leak into the next test (or into a serial reference run).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

/// A grid of `cells` toy-target cells sized for sub-second training.
campaign::CampaignSpec tiny_spec(int cells) {
  campaign::CampaignSpec spec;
  spec.name = "test-campaign";
  campaign::GridBlock block;
  block.targets = {"toy"};
  block.archs = {"default-mlp"};
  for (int r = 1; r <= cells; ++r) block.rounds.push_back(r);
  spec.blocks = {block};
  spec.base.epochs = 2;
  spec.base.batch_size = 64;
  spec.base.threads = 1;
  spec.base.offline_base_inputs = 300;
  spec.base.online_base_inputs = 150;
  spec.base.max_retries = 1;
  spec.seed = 0xc0ffee;
  return spec;
}

campaign::SupervisorOptions options_for(const TempDir& dir,
                                        std::size_t workers) {
  campaign::SupervisorOptions opt;
  opt.state_dir = dir.path();
  opt.workers = workers;
  opt.backoff_base_s = 0.02;  // fast retries: these are tests
  opt.backoff_cap_s = 0.1;
  opt.poll_interval_s = 0.01;
  return opt;
}

/// history.jsonl as {cell id -> verbatim payload object bytes}.
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

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (in && std::getline(in, line)) ++n;
  return n;
}

/// Uninterrupted single-process reference run: the bitwise ground truth the
/// sharded and chaos campaigns are compared against.
std::map<std::string, std::string> serial_reference(
    const campaign::CampaignSpec& spec, const TempDir& dir) {
  campaign::Supervisor sup(spec, options_for(dir, /*workers=*/0));
  const campaign::CampaignReport rep = sup.run();
  EXPECT_TRUE(rep.complete());
  EXPECT_EQ(rep.cells_failed, 0u);
  return read_history(dir.path());
}

/// The object `json` with member `key`'s value replaced by the JSON text
/// `value`.
std::string with_member(const std::string& json, const std::string& key,
                        const std::string& value) {
  util::json::Value object;
  EXPECT_TRUE(util::json::parse(json, object)) << json;
  const util::json::Value* member = object.find(key);
  EXPECT_NE(member, nullptr) << key;
  if (member == nullptr) return json;
  return json.substr(0, member->begin) + value + json.substr(member->end);
}

/// Every field to_json() renders, compared exactly.
void expect_same_config(const core::ExperimentConfig& got,
                        const core::ExperimentConfig& want) {
  EXPECT_EQ(got.target, want.target);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.diff_site, want.diff_site);
  EXPECT_EQ(got.diffs, want.diffs);
  EXPECT_EQ(got.arch, want.arch);
  EXPECT_EQ(got.epochs, want.epochs);
  EXPECT_EQ(got.batch_size, want.batch_size);
  EXPECT_EQ(got.learning_rate, want.learning_rate);
  EXPECT_EQ(got.validation_fraction, want.validation_fraction);
  EXPECT_EQ(got.z_threshold, want.z_threshold);
  EXPECT_EQ(got.seed, want.seed);
  EXPECT_EQ(got.threads, want.threads);
  EXPECT_EQ(got.offline_base_inputs, want.offline_base_inputs);
  EXPECT_EQ(got.online_base_inputs, want.online_base_inputs);
  EXPECT_EQ(got.games, want.games);
  EXPECT_EQ(got.max_retries, want.max_retries);
  EXPECT_EQ(got.lr_backoff, want.lr_backoff);
}

/// Values no real field may take: JSON has no NaN or infinity, 1e999 is
/// past every type's range, and a number in a string (blank or not) is a
/// string.
const std::vector<std::string> kBadReals = {
    "nan", "inf", "-inf", "1e999", "-1e999", "null", "\"0.5\"", "\" 0.5\""};

// --- util::append_jsonl under multi-process concurrency --------------------

TEST(AppendJsonl, MultiProcessStressKeepsLinesWhole) {
  TempDir dir("jsonl");
  const std::string path = dir.path() + "/stress.jsonl";
  constexpr int kWriters = 4;
  constexpr int kLines = 200;
  // Payload long enough that a torn write(2) would interleave visibly.
  const std::string pad(128, 'x');

  std::vector<pid_t> children;
  for (int w = 0; w < kWriters; ++w) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: nothing but open/write/close syscalls — fork-safe.
      for (int n = 0; n < kLines; ++n) {
        util::JsonBuilder j;
        j.field("w", static_cast<std::uint64_t>(w))
            .field("n", static_cast<std::uint64_t>(n))
            .field("pad", pad);
        if (!util::append_jsonl(path, j.str())) ::_exit(2);
      }
      ::_exit(0);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  // Every line must be whole (valid JSON, full pad) and every (w, n) pair
  // must appear exactly once — no torn or interleaved records.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  std::string line;
  while (std::getline(in, line)) {
    util::json::Value record;
    util::json::Error err;
    ASSERT_TRUE(util::json::parse(line, record, &err))
        << err.str() << "\n" << line;
    std::uint64_t w = 0;
    std::uint64_t n = 0;
    ASSERT_TRUE(record.find("w") && record.find("w")->as_u64(w));
    ASSERT_TRUE(record.find("n") && record.find("n")->as_u64(n));
    ASSERT_TRUE(record.find("pad"));
    ASSERT_EQ(record.find("pad")->text, pad);
    ASSERT_TRUE(seen.emplace(w, n).second) << "duplicate " << w << "," << n;
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kWriters) * kLines);
}

// --- grid expansion --------------------------------------------------------

TEST(CampaignSpec, GridExpansionIsDeterministic) {
  campaign::CampaignSpec spec = tiny_spec(3);
  spec.blocks[0].targets = {"toy", "speck"};
  const std::vector<campaign::Cell> a = campaign::expand_grid(spec);
  const std::vector<campaign::Cell> b = campaign::expand_grid(spec);
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(a.size(), b.size());
  std::set<std::string> ids;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, i);
    EXPECT_EQ(a[i].id, b[i].id);
    // The cell's stream is derived from (campaign seed, cell index) — never
    // from whichever worker happens to run it.
    EXPECT_EQ(a[i].config.seed, util::derive_stream_seed(spec.seed, i));
    ids.insert(a[i].id);
  }
  EXPECT_EQ(ids.size(), a.size()) << "cell ids must be unique across the grid";
}

TEST(CampaignSpec, CellIdFollowsTheConfig) {
  core::ExperimentConfig config;
  const std::string bare = campaign::cell_id(config);
  config.rounds += 1;
  EXPECT_NE(campaign::cell_id(config), bare);
}

// --- cell records: the config and train report as exact JSON -------------

TEST(CampaignCodec, ConfigRoundTripsBitwise) {
  core::ExperimentConfig c;
  c.target = "gimli-hash";
  c.rounds = 9;
  c.arch = "MLP II";
  c.epochs = 7;
  c.batch_size = 96;
  c.learning_rate = 1e-3f;
  c.validation_fraction = 0.1;  // not exactly representable: the text
  c.z_threshold = std::nextafter(3.0, 4.0);  // must not round it
  c.seed = 0xdeadbeefcafef00dULL;
  c.threads = 3;
  c.offline_base_inputs = 4321;
  c.online_base_inputs = 1234;
  c.games = 5;
  c.max_retries = 2;
  c.lr_backoff = 0.3f;

  const std::string wire = c.to_json();
  const core::ExperimentConfig d = campaign::read_config_json(wire);
  expect_same_config(d, c);
  // Bitwise stability: re-rendering the read config is a fixed point.
  EXPECT_EQ(d.to_json(), wire);

  EXPECT_THROW(campaign::read_config_json(""), campaign::SpecError);
  // A record short of keys, such as a spec file's `defaults`.
  EXPECT_THROW(campaign::read_config_json(R"({"target":"toy","rounds":2})"),
               campaign::SpecError);
  EXPECT_THROW(campaign::read_config_json(
                   with_member(wire, "seed", "1,\"extra\":1")),
               campaign::SpecError);

  // Integers take util::json::parse_u64 digits only.
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"batch_size", "-1"},                    // strtoull wrapped it
      {"seed", "010"},                         // base-0 strtoull read octal 8
      {"threads", "\" 7\""},                   // strtoull skipped the blank
      {"offline_base_inputs", "+7"},
      {"games", "18446744073709551616"},       // 2^64: strtoull clamped it
      {"epochs", "4294967297"},                // a cast truncated it to 1
      {"max_retries", "2147483648"},           // INT_MAX + 1
      {"rounds", "-2147483649"},               // INT_MIN - 1
      {"rounds", "--1"},
      {"diffs", R"(["0x40","-1"])"},
      {"diffs", R"(["0x"])"},
  };
  for (const auto& [key, text] : rejected) {
    EXPECT_THROW(campaign::read_config_json(with_member(wire, key, text)),
                 campaign::SpecError)
        << key << " = " << text;
  }
  for (const char* key :
       {"learning_rate", "validation_fraction", "z_threshold", "lr_backoff"}) {
    for (const std::string& text : kBadReals) {
      EXPECT_THROW(campaign::read_config_json(with_member(wire, key, text)),
                   campaign::SpecError)
          << key << " = " << text;
    }
  }
  // A float field refuses a real past a float's range.
  EXPECT_THROW(
      campaign::read_config_json(with_member(wire, "learning_rate", "1e39")),
      campaign::SpecError);

  // The ends of every range still round-trip.
  c.rounds = std::numeric_limits<int>::min();
  c.epochs = std::numeric_limits<int>::max();
  c.seed = ~0ULL;
  c.diffs = {0, ~0ULL};
  expect_same_config(campaign::read_config_json(c.to_json()), c);
}

TEST(CampaignCodec, TrainResultRoundTripsBitwise) {
  core::TrainReport r;
  r.train_accuracy = 0.987654321;
  r.val_accuracy = std::nextafter(0.75, 1.0);
  r.train_loss = 0.0123456789;
  r.samples = 12000;
  r.log2_data = 13.551;
  r.usable = true;
  r.robustness.attempts = 2;
  r.robustness.divergences = 1;
  r.robustness.rollbacks = 1;

  const std::string wire = campaign::train_json(r);
  const core::TrainReport d = campaign::read_train_json(wire);
  EXPECT_EQ(d.train_accuracy, r.train_accuracy);
  EXPECT_EQ(d.val_accuracy, r.val_accuracy);
  EXPECT_EQ(d.train_loss, r.train_loss);
  EXPECT_EQ(d.samples, r.samples);
  EXPECT_EQ(d.log2_data, r.log2_data);
  EXPECT_EQ(d.usable, r.usable);
  EXPECT_EQ(d.robustness.attempts, r.robustness.attempts);
  EXPECT_EQ(d.robustness.divergences, r.robustness.divergences);
  EXPECT_EQ(d.robustness.rollbacks, r.robustness.rollbacks);
  EXPECT_EQ(campaign::train_json(d), wire);

  EXPECT_THROW(campaign::read_train_json("not a record"), campaign::SpecError);
  EXPECT_THROW(campaign::read_train_json(R"("a string")"), campaign::SpecError);
  const std::vector<std::pair<std::string, std::string>> rejected = {
      {"samples", "-1"},          {"samples", "0x10"},
      {"attempts", "4294967298"}, {"divergences", "\" 1\""},
      {"rollbacks", "-2147483649"}, {"attempts", "02"},
      {"usable", "1"}};
  for (const auto& [key, text] : rejected) {
    EXPECT_THROW(campaign::read_train_json(with_member(wire, key, text)),
                 campaign::SpecError)
        << key << " = " << text;
  }
  for (const char* key :
       {"train_accuracy", "val_accuracy", "train_loss", "log2_data"}) {
    for (const std::string& text : kBadReals) {
      EXPECT_THROW(campaign::read_train_json(with_member(wire, key, text)),
                   campaign::SpecError)
          << key << " = " << text;
    }
  }
  // Nine keys exactly: a report carrying a tenth (a checkpoint accuracy
  // nothing reads) or lacking one is refused, and the worker retrains.
  const std::string nine =
      R"({"train_accuracy":0.75,"val_accuracy":0.71875,"train_loss":0.0625,)"
      R"("samples":12000,"log2_data":13.5,"usable":true,"attempts":2,)"
      R"("divergences":1,"rollbacks":1})";
  EXPECT_EQ(campaign::read_train_json(nine).samples, 12000u);
  EXPECT_THROW(campaign::read_train_json(
                   with_member(nine, "rollbacks", "1,\"checkpoint\":0.71875")),
               campaign::SpecError);
  EXPECT_THROW(campaign::read_train_json(
                   R"({"train_accuracy":0.75,"val_accuracy":0.71875,)"
                   R"("train_loss":0.0625,"samples":12000,"log2_data":13.5,)"
                   R"("usable":true,"attempts":2,"divergences":1})"),
               campaign::SpecError);
}

// --- WAL field extraction + replay ----------------------------------------

TEST(CampaignJournal, ExtractsStringsNumbersAndObjects) {
  const std::string line =
      R"({"event":"done","cell":"ab12cd34","index":7,)"
      R"("note":"tab\there é","payload":{"cell":"ab12cd34",)"
      R"("nested":{"s":"a}b{"},"n":3},"telemetry":null})";
  std::string s;
  ASSERT_TRUE(campaign::extract_json_string(line, "event", s));
  EXPECT_EQ(s, "done");
  ASSERT_TRUE(campaign::extract_json_string(line, "note", s));
  EXPECT_EQ(s, "tab\there \xc3\xa9");
  util::json::Value record;
  ASSERT_TRUE(util::json::parse(line, record));
  std::uint64_t n = 0;
  ASSERT_TRUE(record.find("index")->as_u64(n));
  EXPECT_EQ(n, 7u);
  // Verbatim bytes, braces balanced through nested objects and strings
  // containing brace characters.
  EXPECT_EQ(record.find("payload")->span(line),
            R"({"cell":"ab12cd34","nested":{"s":"a}b{"},"n":3})");
  EXPECT_FALSE(campaign::extract_json_string(line, "absent", s));
  EXPECT_FALSE(record.find("cell")->as_u64(n));
  EXPECT_EQ(record.find("telemetry")->kind, util::json::Value::Kind::kNull);
  // Top-level keys only: "s" exists only inside the payload.
  EXPECT_FALSE(campaign::extract_json_string(line, "s", s));
}

TEST(CampaignJournal, ReplayAppliesLaterRecordsOverEarlier) {
  TempDir dir("journal");
  const std::string path = dir.path() + "/campaign.state.jsonl";
  const auto put = [&](const std::string& line) {
    ASSERT_TRUE(util::append_jsonl(path, line));
  };
  put(R"({"event":"start","campaign":"t","cells":3})");
  put(R"({"event":"lease","cell":"aaaa","index":0,"attempt":1,"worker":11})");
  put(R"({"event":"trained","cell":"aaaa","index":0,"train":{"n":1}})");
  put(R"({"event":"failed","cell":"bbbb","index":1,"attempts":4,)"
      R"("reason":"diverged"})");
  put(R"({"event":"done","cell":"cccc","index":2,"payload":{"cell":"cccc"},)"
      R"("telemetry":{"x":1}})");
  // A later "done" supersedes both the trained record and a failed verdict.
  put(R"({"event":"done","cell":"aaaa","index":0,"payload":{"cell":"aaaa"},)"
      R"("telemetry":null})");

  const campaign::JournalState state = campaign::replay_journal(path);
  EXPECT_TRUE(state.saw_start);
  EXPECT_EQ(state.done_payload.size(), 2u);
  EXPECT_EQ(state.done_payload.at("aaaa"), R"({"cell":"aaaa"})");
  EXPECT_EQ(state.done_payload.at("cccc"), R"({"cell":"cccc"})");
  EXPECT_EQ(state.done_telemetry.at("cccc"), R"({"x":1})");
  EXPECT_TRUE(state.trained.empty());
  EXPECT_EQ(state.failed.count("bbbb"), 1u);

  const campaign::JournalState missing =
      campaign::replay_journal(dir.path() + "/nope.jsonl");
  EXPECT_FALSE(missing.saw_start);
  EXPECT_TRUE(missing.done_payload.empty());
}

TEST(CampaignJournal, TrainedRecordKeepsOnlyAnObject) {
  TempDir dir("trained");
  const std::string path = dir.path() + "/campaign.state.jsonl";
  ASSERT_TRUE(util::append_jsonl(
      path, R"({"event":"trained","cell":"aaaa","index":0,"train":"0x1p-1"})"));
  ASSERT_TRUE(util::append_jsonl(
      path, R"({"event":"trained","cell":"bbbb","index":1,"train": {"a": 1.5}})"));
  const campaign::JournalState state = campaign::replay_journal(path);
  EXPECT_EQ(state.trained.count("aaaa"), 0u);
  EXPECT_EQ(state.trained.at("bbbb"), R"({"a": 1.5})");  // its exact bytes
}

// --- run_cell determinism + phase-granular resume --------------------------

TEST(CampaignWorker, ResumeFromSnapshotReproducesPayloadBitwise) {
  // A gohr-net's snapshot must carry BatchNorm's running statistics too; it
  // trains long enough to be usable, so its online phase runs.
  campaign::CampaignSpec gohr = tiny_spec(1);
  gohr.blocks[0].archs = {"gohr-net/1"};
  gohr.base.epochs = 3;
  gohr.base.offline_base_inputs = 1000;
  for (const campaign::CampaignSpec& spec : {tiny_spec(1), gohr}) {
    const std::string arch = spec.blocks[0].archs[0];
    SCOPED_TRACE(arch);
    TempDir dir("resume");
    const std::vector<campaign::Cell> cells = campaign::expand_grid(spec);
    ASSERT_EQ(cells.size(), 1u);

    campaign::CellHooks full;
    full.snapshot_path = dir.path() + "/cell.model";
    std::string trained;
    full.on_trained = [&](const core::TrainReport& r) {
      trained = campaign::train_json(r);
    };
    const campaign::CellOutcome reference =
        campaign::run_cell(cells[0], full);
    ASSERT_TRUE(reference.ok) << reference.fail_message;
    ASSERT_FALSE(trained.empty());
    ASSERT_TRUE(std::filesystem::exists(full.snapshot_path));
    if (arch == "gohr-net/1") {
      ASSERT_NE(reference.payload.find("\"online\":{"), std::string::npos)
          << reference.payload;
    }

    // Resume path: restore the snapshot + adopt the journaled train record,
    // re-run only the online phase.  Payload must be byte-identical.
    campaign::CellHooks resume;
    resume.snapshot_path = full.snapshot_path;
    resume.resume_train = trained;
    bool retrained = false;
    resume.on_trained = [&](const core::TrainReport&) { retrained = true; };
    const campaign::CellOutcome resumed =
        campaign::run_cell(cells[0], resume);
    ASSERT_TRUE(resumed.ok) << resumed.fail_message;
    EXPECT_FALSE(retrained) << "resume must skip the offline phase";
    EXPECT_EQ(resumed.payload, reference.payload);

    // Corrupt snapshot: falls back to a full retrain — same payload again.
    {
      std::ofstream out(full.snapshot_path, std::ios::trunc);
      out << "garbage";
    }
    const campaign::CellOutcome refit = campaign::run_cell(cells[0], resume);
    ASSERT_TRUE(refit.ok) << refit.fail_message;
    EXPECT_EQ(refit.payload, reference.payload);
  }
}

// --- supervisor: sharded == serial, bitwise --------------------------------

TEST(CampaignSupervisor, ShardedMatchesSerialBitwise) {
  const campaign::CampaignSpec spec = tiny_spec(3);
  TempDir serial_dir("serial");
  const std::map<std::string, std::string> reference =
      serial_reference(spec, serial_dir);
  ASSERT_EQ(reference.size(), 3u);

  TempDir sharded_dir("sharded");
  campaign::Supervisor sup(spec, options_for(sharded_dir, /*workers=*/2));
  const campaign::CampaignReport rep = sup.run();
  EXPECT_TRUE(rep.complete());
  EXPECT_EQ(rep.cells_done, 3u);
  EXPECT_EQ(rep.cells_failed, 0u);
  EXPECT_FALSE(rep.interrupted);

  EXPECT_EQ(read_history(sharded_dir.path()), reference)
      << "sharded payloads must be bitwise identical to the serial run";
}

// --- supervisor: chaos SIGKILL recovery (the ISSUE 7 acceptance pin) -------

TEST(CampaignSupervisor, SurvivesWorkerSigkillsWithBitwisePayloads) {
  const campaign::CampaignSpec spec = tiny_spec(3);
  TempDir serial_dir("chaos-ref");
  const std::map<std::string, std::string> reference =
      serial_reference(spec, serial_dir);

  TempDir chaos_dir("chaos");
  campaign::CampaignReport rep;
  {
    // Every first attempt of every cell is SIGKILLed mid-train (p=100,
    // max=1); second attempts run clean, so the campaign must recover every
    // cell through the reclaim + retry path.
    ScopedEnv chaos("MLDIST_CHAOS_KILL", "p=100,seed=7,max=1");
    campaign::Supervisor sup(spec, options_for(chaos_dir, /*workers=*/2));
    rep = sup.run();
  }
  EXPECT_TRUE(rep.complete());
  EXPECT_EQ(rep.cells_done, 3u);
  EXPECT_EQ(rep.cells_failed, 0u);
  EXPECT_GE(rep.reclaims, 3u) << "each cell's first lease must be reclaimed";
  EXPECT_GE(rep.retries, 3u);
  EXPECT_GE(rep.worker_restarts, 1u);

  EXPECT_EQ(read_history(chaos_dir.path()), reference)
      << "payloads after SIGKILL recovery must be bitwise identical to an "
         "uninterrupted single-process run";
}

// --- supervisor: watchdog reclaims hung workers ----------------------------

TEST(CampaignSupervisor, WatchdogReclaimsHungWorker) {
  const campaign::CampaignSpec spec = tiny_spec(2);
  TempDir dir("hang");
  campaign::CampaignReport rep;
  {
    // Cell 0's first lease never heartbeats; the watchdog must SIGKILL the
    // worker once the heartbeat goes stale and re-lease the cell.
    ScopedEnv chaos("MLDIST_CHAOS_HANG", "0:1");
    campaign::SupervisorOptions opt = options_for(dir, /*workers=*/2);
    opt.cell_timeout_s = 1.5;
    campaign::Supervisor sup(spec, opt);
    rep = sup.run();
  }
  EXPECT_TRUE(rep.complete());
  EXPECT_EQ(rep.cells_done, 2u);
  EXPECT_EQ(rep.cells_failed, 0u);
  EXPECT_GE(rep.reclaims, 1u);
  EXPECT_GT(rep.reclaim_latency_ns_mean, 0.0);
}

// --- supervisor: shutdown deadline ----------------------------------------

TEST(CampaignSupervisor, ShutdownKillsAWorkerThatNeverQuits) {
  // Cell 0's first lease hangs, and the watchdog is a minute away: when the
  // leg stops after one cell, only the shutdown's 2 s deadline can end the
  // hung worker.
  const campaign::CampaignSpec spec = tiny_spec(2);
  TempDir dir("shutdown");
  {
    ScopedEnv chaos("MLDIST_CHAOS_HANG", "0:1");
    campaign::SupervisorOptions opt = options_for(dir, /*workers=*/2);
    opt.cell_timeout_s = 60.0;
    opt.stop_after_cells = 1;
    const auto t0 = std::chrono::steady_clock::now();
    const campaign::CampaignReport rep = campaign::Supervisor(spec, opt).run();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    EXPECT_TRUE(rep.interrupted);
    EXPECT_EQ(rep.cells_done, 1u);
    EXPECT_GE(seconds, 2.0);
    EXPECT_LT(seconds, 15.0);
  }
  // The relaunch finishes the hung cell; history names each cell once.
  const campaign::CampaignReport rep =
      campaign::Supervisor(spec, options_for(dir, /*workers=*/2)).run();
  EXPECT_TRUE(rep.complete());
  EXPECT_EQ(rep.cells_skipped, 1u);
  EXPECT_EQ(rep.cells_done, 1u);
  EXPECT_EQ(count_lines(dir.path() + "/history.jsonl"), 2u);
  EXPECT_EQ(read_history(dir.path()).size(), 2u);
}

// --- supervisor: a done cell's snapshot goes with its done record ----------

TEST(CampaignSupervisor, DoneCellsLeaveNoSnapshot) {
  const campaign::CampaignSpec spec = tiny_spec(4);
  TempDir serial_dir("snapshot-ref");
  const std::map<std::string, std::string> reference =
      serial_reference(spec, serial_dir);

  TempDir dir("snapshot");
  {
    campaign::SupervisorOptions opt = options_for(dir, /*workers=*/2);
    opt.stop_after_cells = 2;
    EXPECT_TRUE(campaign::Supervisor(spec, opt).run().interrupted);
  }
  const campaign::JournalState journal =
      campaign::replay_journal(dir.path() + "/campaign.state.jsonl");
  EXPECT_GE(journal.done_payload.size(), 2u);
  for (const auto& [id, payload] : journal.done_payload) {
    EXPECT_FALSE(
        std::filesystem::exists(dir.path() + "/cells/" + id + ".model"))
        << "cell " << id << " is done but kept its snapshot";
  }

  const campaign::CampaignReport rep =
      campaign::Supervisor(spec, options_for(dir, /*workers=*/2)).run();
  EXPECT_TRUE(rep.complete());
  EXPECT_EQ(rep.cells_failed, 0u);
  EXPECT_EQ(read_history(dir.path()), reference);
}

// --- supervisor: diverged cells fail gracefully ----------------------------

TEST(CampaignSupervisor, DivergedCellFailsGracefullyOthersComplete) {
  const campaign::CampaignSpec spec = tiny_spec(3);
  TempDir dir("diverge");
  campaign::SupervisorOptions opt = options_for(dir, /*workers=*/2);
  opt.max_cell_retries = 1;  // 2 attempts, both diverge -> permanent failure
  campaign::CampaignReport rep;
  {
    ScopedEnv chaos("MLDIST_CHAOS_DIVERGE", "1");
    campaign::Supervisor sup(spec, opt);
    rep = sup.run();
  }
  // Graceful degradation: the campaign still completes, with cell 1 as a
  // journaled permanent failure and the other two done.
  EXPECT_TRUE(rep.complete());
  EXPECT_EQ(rep.cells_done, 2u);
  EXPECT_EQ(rep.cells_failed, 1u);
  EXPECT_GE(rep.retries, 1u);
  EXPECT_EQ(read_history(dir.path()).size(), 2u);

  const campaign::JournalState state =
      campaign::replay_journal(dir.path() + "/campaign.state.jsonl");
  EXPECT_EQ(state.failed.size(), 1u);
}

// --- supervisor: resume skips journaled cells ------------------------------

TEST(CampaignSupervisor, ResumeSkipsJournaledCellsWithoutDuplicates) {
  const campaign::CampaignSpec spec = tiny_spec(3);
  TempDir serial_dir("resume-ref");
  const std::map<std::string, std::string> reference =
      serial_reference(spec, serial_dir);

  TempDir dir("resume-run");
  {
    // Simulated supervisor crash after the first finished cell.
    campaign::SupervisorOptions opt = options_for(dir, /*workers=*/0);
    opt.stop_after_cells = 1;
    campaign::Supervisor sup(spec, opt);
    const campaign::CampaignReport first = sup.run();
    EXPECT_TRUE(first.interrupted);
    EXPECT_EQ(first.cells_done, 1u);
  }
  // Relaunch over the same state dir: journaled cells are skipped, the rest
  // run to completion, and history gains no duplicate lines.
  campaign::Supervisor sup(spec, options_for(dir, /*workers=*/2));
  const campaign::CampaignReport second = sup.run();
  EXPECT_TRUE(second.complete());
  EXPECT_FALSE(second.interrupted);
  EXPECT_EQ(second.cells_skipped, 1u);
  EXPECT_EQ(second.cells_done, 2u);
  EXPECT_EQ(second.cells_failed, 0u);

  EXPECT_EQ(count_lines(dir.path() + "/history.jsonl"), 3u);
  EXPECT_EQ(read_history(dir.path()), reference)
      << "a resumed campaign must end with the same payloads as one "
         "uninterrupted run";
}

TEST(CampaignSupervisor, ResumesJournaledTrainReportsThroughWorkers) {
  // The WAL's "trained" objects cross the worker pipe: a relaunch whose
  // journal holds a trained but unfinished cell re-runs only its online
  // phase, in a worker, and ends with the serial payload, whatever JSON
  // whitespace the record holds.  A "trained" record whose train is a
  // string is ignored, and that cell retrains.
  const campaign::CampaignSpec spec = tiny_spec(2);
  TempDir ref_dir("trained-ref");
  const std::map<std::string, std::string> reference =
      serial_reference(spec, ref_dir);

  // The state a supervisor leaves when it dies with both cells trained and
  // neither done: each snapshot on disk, each train report on the WAL.
  TempDir dir("trained-resume");
  const std::vector<campaign::Cell> cells = campaign::expand_grid(spec);
  std::filesystem::create_directories(dir.path() + "/cells");
  const std::string journal = dir.path() + "/campaign.state.jsonl";
  ASSERT_TRUE(util::append_jsonl(
      journal, R"({"event":"start","campaign":"test-campaign","cells":2,)"
               R"("grid":")" + campaign::grid_crc(cells) + "\"}"));
  for (const campaign::Cell& cell : cells) {
    campaign::CellHooks hooks;
    hooks.snapshot_path = dir.path() + "/cells/" + cell.id + ".model";
    std::string train;
    hooks.on_trained = [&](const core::TrainReport& r) {
      train = campaign::train_json(r);
    };
    ASSERT_TRUE(campaign::run_cell(cell, hooks).ok);
    // Cell 0's object as another JSON writer might lay it out; cell 1's
    // record is a string, as the retired 0x1f codec wrote it.
    train = cell.index == 0 ? "{\t " + train.substr(1)
                            : R"("0x1.8p-1\u001f0x1.7p-1")";
    util::JsonBuilder record;
    record.field("event", "trained")
        .field("cell", cell.id)
        .field("index", static_cast<std::uint64_t>(cell.index))
        .raw("train", train);
    ASSERT_TRUE(util::append_jsonl(journal, record.str()));
  }

  campaign::SupervisorOptions opt = options_for(dir, /*workers=*/2);
  opt.cell_timeout_s = 20.0;  // a worker refusing its CELL line fails fast
  const campaign::CampaignReport rep = campaign::Supervisor(spec, opt).run();
  EXPECT_TRUE(rep.complete());
  EXPECT_EQ(rep.cells_done, 2u);
  EXPECT_EQ(rep.reclaims, 0u);
  EXPECT_EQ(read_history(dir.path()), reference);

  // Only the retrained cell journals a second "trained" record.
  std::map<std::string, int> trained_records;
  std::ifstream in(journal);
  for (std::string line; std::getline(in, line);) {
    util::json::Value record;
    ASSERT_TRUE(util::json::parse(line, record)) << line;
    if (record.find("event")->text == "trained") {
      ++trained_records[record.find("cell")->text];
    }
  }
  EXPECT_EQ(trained_records[cells[0].id], 1) << "cell 0 must resume";
  EXPECT_EQ(trained_records[cells[1].id], 2) << "cell 1 must retrain";
}

TEST(CampaignSupervisor, HistoryConfigReadsBackToItsCell) {
  // Reals no six-digit rendering keeps: every history line's config must
  // read back to its cell's config exactly.
  campaign::CampaignSpec spec = tiny_spec(2);
  spec.base.learning_rate = 0.0012345678f;
  spec.base.z_threshold = std::nextafter(2.5, 3.0);
  TempDir dir("exact-config");
  ASSERT_TRUE(
      campaign::Supervisor(spec, options_for(dir, /*workers=*/0)).run()
          .complete());
  const std::vector<campaign::Cell> cells = campaign::expand_grid(spec);
  std::ifstream in(dir.path() + "/history.jsonl");
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line); ++lines) {
    util::json::Value record;
    ASSERT_TRUE(util::json::parse(line, record)) << line;
    std::uint64_t index = 0;
    ASSERT_TRUE(record.find("index")->as_u64(index));
    ASSERT_LT(index, cells.size());
    const util::json::Value* config = record.find("payload")->find("config");
    ASSERT_NE(config, nullptr) << line;
    const core::ExperimentConfig got =
        campaign::read_config_json(config->span(line));
    expect_same_config(got, cells[index].config);
    EXPECT_EQ(campaign::cell_id(got), cells[index].id);
  }
  EXPECT_EQ(lines, cells.size());
}

TEST(CampaignSupervisor, StartRecordWithoutGridIsRefused) {
  // A journal whose start record carries no grid fingerprint cannot prove
  // it belongs to this spec: refused like a grid mismatch, before any lease.
  const campaign::CampaignSpec spec = tiny_spec(1);
  TempDir dir("no-grid");
  const std::string journal = dir.path() + "/campaign.state.jsonl";
  ASSERT_TRUE(util::append_jsonl(
      journal, R"({"event":"start","campaign":"test-campaign","cells":1})"));
  try {
    (void)campaign::Supervisor(spec, options_for(dir, /*workers=*/0)).run();
    FAIL() << "expected the resume guard to refuse the journal";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does not match the existing journal (crc missing)"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(count_lines(journal), 1u);
}

TEST(CampaignSupervisor, StateDirLockRejectsSecondSupervisor) {
  const campaign::CampaignSpec spec = tiny_spec(1);
  TempDir dir("lock");
  util::FileLock lock;
  ASSERT_TRUE(lock.acquire(dir.path() + "/LOCK"));
  campaign::Supervisor sup(spec, options_for(dir, /*workers=*/0));
  EXPECT_THROW(sup.run(), std::invalid_argument);
}

TEST(CampaignSupervisor, RequiresStateDir) {
  campaign::SupervisorOptions opt;
  opt.state_dir.clear();
  campaign::Supervisor sup(tiny_spec(1), opt);
  EXPECT_THROW(sup.run(), std::invalid_argument);
}

// --- state-dir GC ----------------------------------------------------------

TEST(CheckpointGc, KeepsNewestRemovesRestAndTmpSiblings) {
  TempDir dir("gc");
  const auto touch = [&](const std::string& name) {
    std::ofstream out(dir.path() + "/" + name);
    out << "x";
  };
  touch("a.model");
  touch("b.model");
  touch("c.model");
  touch("a.model.tmp");
  touch("keep.other");
  // Pin distinct mtimes (fast writes on tmpfs can tie): c is the newest.
  const auto now = std::filesystem::file_time_type::clock::now();
  std::filesystem::last_write_time(dir.path() + "/a.model",
                                   now - std::chrono::seconds(3));
  std::filesystem::last_write_time(dir.path() + "/b.model",
                                   now - std::chrono::seconds(2));
  std::filesystem::last_write_time(dir.path() + "/c.model",
                                   now - std::chrono::seconds(1));
  const std::size_t removed =
      campaign::gc_directory(dir.path(), ".model", /*keep_newest=*/1);
  EXPECT_EQ(removed, 2u);
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/c.model"));
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/a.model"));
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/b.model"));
  EXPECT_TRUE(std::filesystem::exists(dir.path() + "/keep.other"));
  // The tmp sibling of a *removed* snapshot goes with it.
  EXPECT_FALSE(std::filesystem::exists(dir.path() + "/a.model.tmp"));
}

// --- telemetry shipping: merged totals are worker-count invariant ----------

/// The merged campaign.worker.* counters, minus the wall-clock names whose
/// values legitimately vary run to run (the DESIGN.md §10 suffix rule).
std::map<std::string, std::uint64_t> merged_worker_counters() {
  std::map<std::string, std::uint64_t> out;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : snap.counters) {
    // reset() keeps registered names at value 0; only live totals count.
    if (value == 0 || name.rfind("campaign.worker.", 0) != 0) continue;
    const auto ends_with = [&](const char* s) {
      const std::size_t n = std::char_traits<char>::length(s);
      return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
    };
    if (ends_with("_ns") || ends_with("_us")) continue;
    out[name] = value;
  }
  return out;
}

TEST(CampaignTelemetry, MergedCountersBitwiseIdenticalAcrossWorkerCounts) {
  const campaign::CampaignSpec spec = tiny_spec(3);
  std::map<std::string, std::uint64_t> reference;
  for (const std::size_t workers : {0u, 1u, 2u, 3u}) {
    TempDir dir("obs-invariance");
    obs::MetricsRegistry::global().reset();
    campaign::Supervisor sup(spec, options_for(dir, workers));
    const campaign::CampaignReport rep = sup.run();
    ASSERT_TRUE(rep.complete());
    ASSERT_EQ(rep.cells_failed, 0u);
    const std::map<std::string, std::uint64_t> merged =
        merged_worker_counters();
    ASSERT_FALSE(merged.empty())
        << "no campaign.worker.* counters were merged at workers=" << workers;
    if (workers == 0) {
      reference = merged;  // serial fold through the same ship codec
      continue;
    }
    EXPECT_EQ(merged, reference)
        << "merged worker counters must be bitwise identical for any worker "
           "count (workers="
        << workers << ")";
  }
}

TEST(CampaignTelemetry, ShipTelemetryOffLeavesRegistryClean) {
  const campaign::CampaignSpec spec = tiny_spec(1);
  TempDir dir("obs-off");
  obs::MetricsRegistry::global().reset();
  campaign::SupervisorOptions opt = options_for(dir, /*workers=*/1);
  opt.ship_telemetry = false;
  campaign::Supervisor sup(spec, opt);
  const campaign::CampaignReport rep = sup.run();
  ASSERT_TRUE(rep.complete());
  EXPECT_TRUE(merged_worker_counters().empty())
      << "ship_telemetry=false must not fold any campaign.worker.* counters";
}

// --- worker tracing: chaos-killed lanes still merge into a valid trace -----

TEST(CampaignTelemetry, ChaosKilledWorkersLeaveValidMergedTrace) {
  const campaign::CampaignSpec spec = tiny_spec(3);
  TempDir dir("obs-trace");
  campaign::CampaignReport rep;
  {
    // Every cell's first lease dies mid-train; the chaos path flushes the
    // worker tracer before the SIGKILL, so each killed worker leaves a
    // truncated-but-valid lane behind.
    ScopedEnv chaos("MLDIST_CHAOS_KILL", "p=100,seed=7,max=1");
    campaign::SupervisorOptions opt = options_for(dir, /*workers=*/2);
    opt.trace_workers = true;
    campaign::Supervisor sup(spec, opt);
    rep = sup.run();
  }
  ASSERT_TRUE(rep.complete());
  ASSERT_EQ(rep.cells_failed, 0u);
  ASSERT_GE(rep.worker_restarts, 1u);

  const std::string obs_dir = dir.path() + "/obs";
  EXPECT_GE(obs::list_trace_files(obs_dir).size(), 2u)
      << "each worker process must leave its own trace lane";
  const std::string merged_path = obs_dir + "/campaign.trace.json";
  ASSERT_TRUE(std::filesystem::exists(merged_path))
      << "the supervisor must merge worker lanes after the campaign";
  std::ifstream in(merged_path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string error;
  EXPECT_TRUE(util::json_validate(text, &error)) << error;
  EXPECT_NE(text.find("\"process_name\""), std::string::npos)
      << "merged trace must name its per-worker lanes";
  util::json::Value merged;
  ASSERT_TRUE(util::json::parse(text, merged));
  const util::json::Value* other = merged.find("otherData");
  ASSERT_NE(other, nullptr);
  std::uint64_t lanes = 0;
  ASSERT_TRUE(other->find("lanes") && other->find("lanes")->as_u64(lanes));
  EXPECT_GE(lanes, 2u)
      << "killed workers' lanes must survive into the merged trace";
}

// --- /runz detail provider -------------------------------------------------

TEST(RunStatusDetail, ProviderRendersAndClears) {
  obs::RunStatus::global().set_detail_provider(
      [] { return std::string(R"({"cells_done":2,"workers":4})"); });
  const std::string with = obs::RunStatus::global().to_json();
  EXPECT_NE(with.find(R"("detail":{"cells_done":2,"workers":4})"),
            std::string::npos)
      << with;
  obs::RunStatus::global().set_detail_provider(nullptr);
  const std::string without = obs::RunStatus::global().to_json();
  EXPECT_EQ(without.find("\"detail\""), std::string::npos) << without;
}

}  // namespace

// The test binary is also the campaign worker binary (the Supervisor execs
// /proc/self/exe): dispatch worker invocations before gtest sees argv.
int main(int argc, char** argv) {
  if (const int worker_rc = mldist::campaign::worker_entry(argc, argv);
      worker_rc >= 0) {
    return worker_rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
