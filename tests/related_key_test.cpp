// Related-key difference injection (PR 8): the key-schedule difference must
// actually land (nonzero ciphertext-difference distribution, zero mask ==
// zero difference), related-key datasets must stay invariant to worker
// thread counts and to the sample_batch slab size, and the new diff_site /
// diffs config fields must round-trip through the config JSON a worker
// reads, WAL records, and the RunManifest config hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "campaign/journal.hpp"
#include "campaign/spec.hpp"
#include "campaign/specfile.hpp"
#include "campaign/supervisor.hpp"
#include "campaign/worker.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/targets.hpp"
#include "obs/manifest.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace mldist;
using core::DiffSite;
using mldist::util::Xoshiro256;

// --- the key-schedule difference lands -------------------------------------

bool all_zero(const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

// A related-key difference re-runs the key schedule, so the ciphertext
// difference distribution must be overwhelmingly nonzero (a zero output
// difference for a keyed permutation pair happens with probability ~2^-32
// per 4-byte observable).  Run every related-key-capable target.
TEST(RelatedKey, KeyScheduleDifferenceLands) {
  const std::vector<std::unique_ptr<core::Target>> targets = [] {
    std::vector<std::unique_ptr<core::Target>> t;
    t.push_back(std::make_unique<core::SpeckTarget>(
        5, std::vector<std::uint32_t>{0x00400000u, 0x00102000u},
        DiffSite::kRelatedKey));
    t.push_back(std::make_unique<core::SimonTarget>(
        7, std::vector<std::uint64_t>{0x40ULL, 0x4000ULL},
        DiffSite::kRelatedKey));
    t.push_back(std::make_unique<core::SimeckTarget>(
        7, std::vector<std::uint64_t>{0x40ULL, 0x4000ULL},
        DiffSite::kRelatedKey));
    t.push_back(std::make_unique<core::PresentTarget>(
        4, std::vector<std::uint64_t>{0x1ULL, 0x10ULL},
        DiffSite::kRelatedKey));
    t.push_back(std::make_unique<core::ChaskeyTarget>(
        3, std::vector<std::uint64_t>{0x1ULL, 0x80000000ULL},
        DiffSite::kRelatedKey));
    return t;
  }();
  for (const auto& target : targets) {
    Xoshiro256 rng(0x1234ULL);
    std::size_t nonzero = 0;
    std::size_t total = 0;
    std::vector<std::vector<std::uint8_t>> diffs;
    for (int s = 0; s < 64; ++s) {
      target->sample(rng, diffs);
      ASSERT_EQ(diffs.size(), target->num_differences()) << target->name();
      for (const auto& d : diffs) {
        ASSERT_EQ(d.size(), target->output_bytes()) << target->name();
        nonzero += !all_zero(d);
        ++total;
      }
    }
    EXPECT_EQ(nonzero, total) << target->name()
                              << ": related-key diffs must be nonzero";
  }
}

// The converse control: a zero key mask means both keys are identical, so
// the "difference" is E_K(P) ^ E_K(P) = 0 — exactly zero, every sample.
// This pins the related-key game's shape (same plaintext, XORed key).
TEST(RelatedKey, ZeroKeyMaskGivesZeroDifference) {
  const core::SimonTarget target(7, {0x0ULL, 0x4000ULL},
                                 DiffSite::kRelatedKey);
  Xoshiro256 rng(0x5678ULL);
  std::vector<std::vector<std::uint8_t>> diffs;
  for (int s = 0; s < 32; ++s) {
    target.sample(rng, diffs);
    EXPECT_TRUE(all_zero(diffs[0])) << "zero mask must give zero difference";
    EXPECT_FALSE(all_zero(diffs[1])) << "nonzero mask must not";
  }
}

/// Byte-level equality of two float matrices (bit features are canonical
/// 0.0f/1.0f, so this is exact).
bool mat_equal(const nn::Mat& a, const nn::Mat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.data(), a.data() + a.size(), b.data());
}

// Plaintext and related-key sites with the same masks must be different
// games: the collected datasets may not coincide.
TEST(RelatedKey, SiteChangesTheDataset) {
  const core::SimonTarget pt(7, {0x40ULL, 0x4000ULL}, DiffSite::kPlaintext);
  const core::SimonTarget rk(7, {0x40ULL, 0x4000ULL}, DiffSite::kRelatedKey);
  core::CollectOptions options;
  options.seed = 0x2a75eedULL;
  const nn::Dataset a = core::collect_dataset(pt, 32, options);
  const nn::Dataset b = core::collect_dataset(rk, 32, options);
  EXPECT_FALSE(mat_equal(a.x, b.x));
  EXPECT_EQ(pt.name(), "simon32-64/7r");
  EXPECT_EQ(rk.name(), "simon32-64/7r-rk");
}

// --- invariance ------------------------------------------------------------

// Thread-count invariance: the parallel collection engine must produce the
// identical byte image for 1, 2 and 5 workers (the chunk grid, not the
// worker count, owns the RNG streams).
TEST(RelatedKey, DatasetThreadInvariance) {
  const core::SimonTarget target(7, {0x40ULL, 0x4000ULL},
                                 DiffSite::kRelatedKey);
  core::CollectOptions base;
  base.seed = 0xabcdefULL;
  base.threads = 1;
  const nn::Dataset reference = core::collect_dataset(target, 96, base);
  for (const std::size_t threads : {2u, 5u}) {
    core::CollectOptions options = base;
    options.threads = threads;
    const nn::Dataset got = core::collect_dataset(target, 96, options);
    ASSERT_TRUE(mat_equal(got.x, reference.x)) << "threads=" << threads;
    ASSERT_EQ(got.y, reference.y) << "threads=" << threads;
  }
}

// Slab-size invariance at the Target layer: sample_batch must consume the
// RNG in the per-sample order of the scalar loop whatever the batch size
// (the collect_span slab loop relies on this).
TEST(RelatedKey, SampleBatchSlabInvariance) {
  const core::PresentTarget target(4, {0x1ULL, 0x10ULL},
                                   DiffSite::kRelatedKey);
  Xoshiro256 scalar_rng(0x777ULL);
  core::DiffBatch expected(17);
  for (auto& s : expected) target.sample(scalar_rng, s);
  for (const std::size_t slab : {1u, 5u, 17u}) {
    Xoshiro256 rng(0x777ULL);
    core::DiffBatch got;
    std::size_t done = 0;
    while (done < expected.size()) {
      const std::size_t n = std::min(slab, expected.size() - done);
      core::DiffBatch chunk;
      target.sample_batch(rng, n, chunk);
      for (auto& s : chunk) got.push_back(std::move(s));
      done += n;
    }
    ASSERT_EQ(got, expected) << "slab=" << slab;
  }
}

// --- config plumbing -------------------------------------------------------

// diff_site + diffs through the config JSON a campaign worker reads,
// including the empty-diffs ("target defaults") case and 64-bit hex masks.
TEST(RelatedKey, ConfigCodecRoundTrip) {
  core::ExperimentConfig config;
  config.target = "simon";
  config.rounds = 9;
  config.diff_site = "related-key";
  config.diffs = {0x40ULL, 0x4000ULL, 0x8000000000000001ULL};
  config.arch = "MLP III";
  config.seed = 0xdeadbeefULL;
  const core::ExperimentConfig decoded =
      campaign::read_config_json(config.to_json());
  EXPECT_EQ(decoded.diff_site, "related-key");
  EXPECT_EQ(decoded.diffs, config.diffs);
  EXPECT_EQ(decoded.target, "simon");
  EXPECT_EQ(decoded.rounds, 9);

  config.diffs.clear();
  const core::ExperimentConfig empty_decoded =
      campaign::read_config_json(config.to_json());
  EXPECT_TRUE(empty_decoded.diffs.empty());
  EXPECT_EQ(empty_decoded.diff_site, "related-key");
}

// The config JSON (what cell payloads, history lines, and the manifest
// hash all consume) must carry both fields — and two configs differing
// only in diff_site must key to different RunManifest config hashes.
TEST(RelatedKey, ConfigJsonAndManifestHash) {
  core::ExperimentConfig config;
  config.target = "present";
  config.diff_site = "related-key";
  config.diffs = {0x1ULL, 0x10ULL};
  const std::string json = config.to_json();
  EXPECT_NE(json.find("\"diff_site\":\"related-key\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"diffs\":[\"0x1\",\"0x10\"]"), std::string::npos)
      << json;

  core::ExperimentConfig plaintext = config;
  plaintext.diff_site = "plaintext";
  obs::RunManifest m;
  m.set_config(config.to_json(), config.seed);
  const std::string rk_hash = m.config_hash;
  m.set_config(plaintext.to_json(), plaintext.seed);
  EXPECT_NE(m.config_hash, rk_hash);
}

// Unsupported combinations must fail loudly at make_target, not silently
// fall back to the plaintext game.
TEST(RelatedKey, UnsupportedTargetsReject) {
  core::ExperimentConfig config;
  config.target = "gimli-hash";
  config.diff_site = "related-key";
  EXPECT_THROW((void)config.make_target(), std::invalid_argument);
  config.target = "salsa";
  EXPECT_THROW((void)config.make_target(), std::invalid_argument);
  config.target = "toy";
  EXPECT_THROW((void)config.make_target(), std::invalid_argument);
  config.diff_site = "no-such-site";
  config.target = "simon";
  EXPECT_THROW((void)config.make_target(), std::invalid_argument);
}

// --- WAL round-trip --------------------------------------------------------

class TempDir {
 public:
  explicit TempDir(const char* tag) {
    static int counter = 0;
    path_ = (std::filesystem::temp_directory_path() /
             ("mldist-rk-" + std::to_string(::getpid()) + "-" +
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

// A serial related-key campaign cell: the WAL "done" record and the history
// line must both carry the diff_site through their embedded config JSON,
// and journal replay must key the cell under its site-suffixed id.
TEST(RelatedKey, DiffSiteFlowsThroughWalAndHistory) {
  TempDir dir("wal");
  campaign::CampaignSpec spec;
  spec.name = "rk-wal";
  campaign::GridBlock block;
  block.targets = {"simon"};
  block.rounds = {5};
  block.archs = {"default-mlp"};
  spec.blocks = {block};
  spec.base.diff_site = "related-key";
  spec.base.epochs = 1;
  spec.base.batch_size = 32;
  spec.base.threads = 1;
  spec.base.offline_base_inputs = 96;
  spec.base.online_base_inputs = 48;
  spec.base.games = 2;
  spec.base.max_retries = 0;
  spec.seed = 0xf00dULL;

  campaign::SupervisorOptions opt;
  opt.state_dir = dir.path();
  opt.workers = 0;
  const campaign::CampaignReport rep =
      campaign::Supervisor(spec, opt).run();
  ASSERT_EQ(rep.cells_done, 1u);

  const campaign::JournalState replayed =
      campaign::replay_journal(dir.path() + "/campaign.state.jsonl");
  ASSERT_EQ(replayed.done_payload.size(), 1u);
  const std::string& payload = replayed.done_payload.begin()->second;
  EXPECT_NE(payload.find("\"diff_site\":\"related-key\""), std::string::npos)
      << payload;

  std::ifstream history(dir.path() + "/history.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(history, line));
  EXPECT_NE(line.find("\"diff_site\":\"related-key\""), std::string::npos)
      << line;
}

}  // namespace

// This binary embeds the Supervisor, so it must be exec-able as its own
// campaign worker — mirror mldist_cli's main().
int main(int argc, char** argv) {
  if (const int worker_rc = mldist::campaign::worker_entry(argc, argv);
      worker_rc >= 0) {
    return worker_rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
