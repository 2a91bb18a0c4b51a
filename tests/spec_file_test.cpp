// Spec-file tests (PR 8): the declarative campaign grid.  Golden
// parse -> expand_grid snapshot, error reporting with origin:line context,
// and the resume guard that rejects a spec edit which changes the expanded
// grid against an existing campaign.state.jsonl.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "campaign/specfile.hpp"
#include "campaign/supervisor.hpp"
#include "core/experiment.hpp"

namespace {

using namespace mldist;
using campaign::Cell;
using campaign::CampaignSpec;
using campaign::SpecError;

const char* kGoldenSpec = R"({
  "name": "golden",
  "seed": 99,
  "defaults": {
    "epochs": 2,
    "offline_base_inputs": 128,
    "online_base_inputs": 64,
    "threads": 1
  },
  "grid": [
    {
      "targets": ["simon", "simeck"],
      "rounds": [7, 8],
      "archs": ["default-mlp"]
    },
    {
      "targets": ["present"],
      "rounds": [4],
      "diff_sites": ["plaintext", "related-key"],
      "diff_sets": [["0x1", "0x10"]],
      "offline_base_inputs": [64, 256],
      "overrides": { "epochs": 1, "games": 3 }
    }
  ]
})";

// --- golden expansion -------------------------------------------------------

TEST(SpecFile, GoldenExpansionSnapshot) {
  const CampaignSpec spec = campaign::parse_spec_text(kGoldenSpec, "golden");
  EXPECT_EQ(spec.name, "golden");
  EXPECT_EQ(spec.seed, 99u);
  const std::vector<Cell> cells = campaign::expand_grid(spec);
  ASSERT_EQ(cells.size(), 8u);

  // Block 1: target-major, then rounds, inheriting the defaults.
  const std::vector<std::pair<std::string, int>> block1 = {
      {"simon", 7}, {"simon", 8}, {"simeck", 7}, {"simeck", 8}};
  for (std::size_t i = 0; i < block1.size(); ++i) {
    EXPECT_EQ(cells[i].config.target, block1[i].first) << "cell " << i;
    EXPECT_EQ(cells[i].config.rounds, block1[i].second) << "cell " << i;
    EXPECT_EQ(cells[i].config.arch, "default-mlp") << "cell " << i;
    EXPECT_EQ(cells[i].config.diff_site, "plaintext") << "cell " << i;
    EXPECT_TRUE(cells[i].config.diffs.empty()) << "cell " << i;
    EXPECT_EQ(cells[i].config.epochs, 2) << "cell " << i;
    EXPECT_EQ(cells[i].config.offline_base_inputs, 128u) << "cell " << i;
    EXPECT_EQ(cells[i].index, i) << "cell " << i;
  }

  // Block 2: diff_site varies before the budget axis; the block overrides
  // (epochs 1, games 3) apply to every cell of the block only.
  const std::vector<std::pair<std::string, std::size_t>> block2 = {
      {"plaintext", 64}, {"plaintext", 256},
      {"related-key", 64}, {"related-key", 256}};
  for (std::size_t i = 0; i < block2.size(); ++i) {
    const Cell& cell = cells[4 + i];
    EXPECT_EQ(cell.config.target, "present") << "cell " << 4 + i;
    EXPECT_EQ(cell.config.diff_site, block2[i].first) << "cell " << 4 + i;
    EXPECT_EQ(cell.config.offline_base_inputs, block2[i].second)
        << "cell " << 4 + i;
    EXPECT_EQ(cell.config.diffs,
              (std::vector<std::uint64_t>{0x1ULL, 0x10ULL}))
        << "cell " << 4 + i;
    EXPECT_EQ(cell.config.epochs, 1) << "cell " << 4 + i;
    EXPECT_EQ(cell.config.games, 3u) << "cell " << 4 + i;
    EXPECT_EQ(cell.index, 4 + i) << "cell " << 4 + i;
  }

  // Per-cell identity: id = cell_id(config), derived per-index seeds, and a
  // stable grid fingerprint over the whole expansion.
  for (const Cell& cell : cells) {
    EXPECT_EQ(cell.id, campaign::cell_id(cell.config));
  }
  EXPECT_NE(cells[0].config.seed, cells[1].config.seed);
  EXPECT_EQ(campaign::grid_crc(cells),
            campaign::grid_crc(campaign::expand_grid(spec)));
}

// A cell's id is the CRC-32 of its config JSON and keys every WAL record,
// history line and snapshot, so the committed paper grid's fingerprint must
// not move: existing paper-grid state dirs must still resume.
TEST(SpecFile, PaperGridFingerprintIsPinned) {
  const std::vector<Cell> cells = campaign::expand_grid(
      campaign::load_spec_file(MLDIST_SOURCE_DIR "/examples/paper_grid.json"));
  EXPECT_EQ(cells.size(), 22u);
  // A removed config key moves every cell id: this value replaced 6d45da2d
  // when checkpoint_path left ExperimentConfig::to_json().
  EXPECT_EQ(campaign::grid_crc(cells), "c4068200");
}

TEST(SpecFile, CostOrdersHeavyArchitecturesFirst) {
  // cell_cost drives the lease order: an LSTM cell must cost more than the
  // same-budget MLP cell, and a bigger budget more than a smaller one.
  core::ExperimentConfig mlp;
  mlp.arch = "default-mlp";
  core::ExperimentConfig lstm = mlp;
  lstm.arch = "LSTM I";
  EXPECT_GT(campaign::cell_cost(lstm), campaign::cell_cost(mlp));
  core::ExperimentConfig big = mlp;
  big.offline_base_inputs = mlp.offline_base_inputs * 4;
  EXPECT_GT(campaign::cell_cost(big), campaign::cell_cost(mlp));
}

// --- error reporting --------------------------------------------------------

/// Expect parse_spec_text to throw a SpecError whose message contains
/// `needle` and whose line matches.
void expect_error(const std::string& text, int line,
                  const std::string& needle) {
  try {
    (void)campaign::parse_spec_text(text, "spec.json");
    FAIL() << "expected SpecError containing \"" << needle << "\"";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos) << what;
    EXPECT_NE(what.find("spec.json:" + std::to_string(line)),
              std::string::npos)
        << what;
    EXPECT_EQ(e.line(), line) << what;
  }
}

TEST(SpecFile, UnknownKeysReportLineAndCandidates) {
  expect_error("{\n \"nmae\": \"x\"\n}", 2,
               "unknown key \"nmae\" in the spec");
  expect_error("{\n \"grid\": [\n  {\"tragets\": [\"toy\"]}\n ]\n}", 3,
               "known keys: targets, rounds, archs, diff_sites");
  expect_error(
      "{\n \"defaults\": {\n  \"epoch\": 3\n },\n \"grid\": []\n}", 3,
      "unknown key \"epoch\" in defaults");
  expect_error(
      "{\n \"grid\": [\n  {\"overrides\":\n   {\"seed\": 1}\n  }\n ]\n}", 4,
      "unknown key \"seed\" in overrides");
}

TEST(SpecFile, BadValuesReportLineAndExpectation) {
  expect_error("{\n \"seed\": \"not a number\"\n}", 2,
               "not a valid integer");
  expect_error("{\n \"seed\": 1.5\n}", 2, "non-negative integer");
  expect_error("{\n \"grid\": [\n  {\"rounds\": [\"five\"]}\n ]\n}", 3,
               "must be a number");
  expect_error("{\n \"grid\": [\n  {\"diff_sites\": [\"both\"]}\n ]\n}", 3,
               "both");
  expect_error("{\n \"grid\": 3\n}", 2, "must be an array");
}

// Regression (satellite fix): the numeric converters used strtol/strtod
// with a null end pointer, so an out-of-range literal was silently
// truncated (or wrapped) into the config instead of failing the parse.
// Every malformed numeric must now surface as a SpecError naming the key
// and the spec file:line.
TEST(SpecFile, MalformedNumericsAreSpecErrorsNotSilentTruncation) {
  const auto with_grid = [](const std::string& defaults_line) {
    return "{\n \"defaults\": {\n  " + defaults_line +
           "\n },\n \"grid\": [ {\"targets\": [\"toy\"], \"rounds\": [1]} "
           "]\n}";
  };
  expect_error(with_grid("\"epochs\": 99999999999"), 3,
               "out of integer range");
  expect_error(with_grid("\"epochs\": -99999999999"), 3,
               "out of integer range");
  expect_error(with_grid("\"z_threshold\": 1e999"), 3, "out of range");
  expect_error(with_grid("\"learning_rate\": 1e999"), 3, "out of range");
  // Unsigned fields take decimal digits or a 0x hex string, nothing else:
  // no sign, no octal, no whitespace, no wrap-around past 2^64-1.
  expect_error(with_grid("\"games\": \"-1\""), 3, "not a valid integer");
  expect_error(with_grid("\"games\": 99999999999999999999"), 3,
               "out of range");
  expect_error(with_grid("\"diffs\": [\"0x1ffffffffffffffff\"]"), 3,
               "out of range");
  expect_error(with_grid("\"games\": 010"), 3, "leading zero");
  expect_error(with_grid("\"games\": \"010\""), 3, "not a valid integer");
  expect_error(with_grid("\"games\": \" 7\""), 3, "not a valid integer");
  // In range still parses exactly.
  const CampaignSpec ok = campaign::parse_spec_text(
      with_grid("\"z_threshold\": 2.5"), "spec.json");
  EXPECT_DOUBLE_EQ(ok.base.z_threshold, 2.5);
}

// Regression (satellite fix): cell_cost ranked "gohr-net/<depth>" with an
// unchecked strtod of the suffix; a malformed depth now falls back to the
// generic heavy-architecture weight instead of feeding garbage into the
// schedule.
TEST(SpecFile, CellCostHandlesMalformedGohrDepth) {
  core::ExperimentConfig deep;
  deep.target = "toy";
  deep.arch = "gohr-net/3";
  core::ExperimentConfig shallow = deep;
  shallow.arch = "gohr-net/1";
  EXPECT_GT(campaign::cell_cost(deep), campaign::cell_cost(shallow));
  core::ExperimentConfig bogus = deep;
  bogus.arch = "gohr-net/x";
  EXPECT_GT(campaign::cell_cost(bogus), 0.0);  // fallback weight, no throw
}

TEST(SpecFile, DefaultsRejectWhatTheCampaignSets) {
  // A cell's seed derives from the campaign seed and its index, and its
  // checkpoint path from the state dir: `defaults` takes neither, although
  // the cell config reader shares its mapper.
  expect_error("{\n \"defaults\": {\n  \"seed\": 3\n },\n \"grid\": []\n}", 3,
               "unknown key \"seed\" in defaults");
  expect_error(
      "{\n \"defaults\": {\n  \"checkpoint_path\": \"x\"\n },\n \"grid\": []\n}",
      3, "unknown key \"checkpoint_path\" in defaults");
  // A float field refuses a real past a float's range.
  expect_error("{\n \"defaults\": {\n  \"lr_backoff\": 1e39\n },\n \"grid\": []\n}",
               3, "\"lr_backoff\" is out of range");
}

TEST(SpecFile, SyntaxErrorsReportLine) {
  expect_error("{\n \"name\": \"x\",\n}", 3, "expected a quoted object key");
  expect_error("{\n \"name\": \"x\"\n} trailing", 3, "trailing content");
  expect_error("{\n \"name\": \"unterminated\n}", 2, "unterminated string");
  // Nesting is capped, so a hostile spec cannot recurse the reader off the
  // stack.
  expect_error("{\"grid\":" + std::string(1000000, '['), 1,
               "nesting deeper than 256");
}

TEST(SpecFile, ValidationCatchesImpossibleCells) {
  // Structurally valid JSON whose cells cannot be instantiated must fail at
  // parse time (naming the cell), not in a worker.
  const char* bad_target = R"({
    "grid": [ {"targets": ["no-such-cipher"], "rounds": [3]} ]
  })";
  EXPECT_THROW((void)campaign::parse_spec_text(bad_target, "s"), SpecError);
  const char* bad_site = R"({
    "grid": [ {"targets": ["gimli-hash"], "rounds": [6],
               "diff_sites": ["related-key"]} ]
  })";
  EXPECT_THROW((void)campaign::parse_spec_text(bad_site, "s"), SpecError);
  const char* empty_grid = R"({ "name": "x", "grid": [] })";
  EXPECT_THROW((void)campaign::parse_spec_text(empty_grid, "s"), SpecError);
}

// --- resume guard -----------------------------------------------------------

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("mldist-specfile-" + std::to_string(::getpid()) + "-" +
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

CampaignSpec tiny_toy_spec(const char* rounds_json) {
  const std::string text = std::string(R"({
    "name": "resume-guard",
    "seed": 5,
    "defaults": {"epochs": 1, "batch_size": 32, "threads": 1,
                 "offline_base_inputs": 64, "online_base_inputs": 32,
                 "games": 2, "max_retries": 0},
    "grid": [ {"targets": ["toy"], "rounds": )") +
                           rounds_json + "} ]\n}";
  return campaign::parse_spec_text(text, "resume.json");
}

TEST(SpecFile, GridChangeRejectedOnResume) {
  TempDir dir("resume");
  campaign::SupervisorOptions opt;
  opt.state_dir = dir.path();
  opt.workers = 0;

  const CampaignSpec original = tiny_toy_spec("[1, 2]");
  const campaign::CampaignReport first =
      campaign::Supervisor(original, opt).run();
  ASSERT_EQ(first.cells_done, 2u);

  // Same spec resumes cleanly (everything already done -> skipped).
  const campaign::CampaignReport again =
      campaign::Supervisor(original, opt).run();
  EXPECT_EQ(again.cells_skipped, 2u);
  EXPECT_EQ(again.cells_done, 0u);

  // An edited grid (extra rounds cell) must be rejected against the
  // existing journal, with both fingerprints named in the error.
  const CampaignSpec edited = tiny_toy_spec("[1, 2, 3]");
  try {
    (void)campaign::Supervisor(edited, opt).run();
    FAIL() << "expected the resume guard to reject the edited grid";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does not match the existing journal"),
              std::string::npos)
        << what;
  }
}

}  // namespace
