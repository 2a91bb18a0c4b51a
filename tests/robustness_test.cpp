// Fault-tolerance tests (ISSUE 2): numeric-health guards, checkpoint
// rollback + LR-backoff retry, graceful degradation to the linear baseline,
// corrupt-model-file detection, and FaultyOracle determinism.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/arch_zoo.hpp"
#include "core/checkpoint.hpp"
#include "core/dataset.hpp"
#include "core/distinguisher.hpp"
#include "core/experiment.hpp"
#include "core/fault_injection.hpp"
#include "core/model_io.hpp"
#include "core/oracle.hpp"
#include "core/targets.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/health.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace {

using namespace mldist;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("mldist-robustness-") + std::to_string(::getpid()) +
           "-" + name))
      .string();
}

// --- util::crc32 ----------------------------------------------------------

TEST(Crc32, KnownAnswerAndChaining) {
  const char* s = "123456789";
  EXPECT_EQ(util::crc32(s, 9), 0xcbf43926u);  // the classic CRC-32 KAT
  // Chained updates equal one shot.
  util::Crc32 inc;
  inc.update(s, 4);
  inc.update(s + 4, 5);
  EXPECT_EQ(inc.value(), 0xcbf43926u);
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);
}

// The byte-at-a-time loop util::crc32 used before slicing-by-8.
std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t n,
                             std::uint32_t crc = 0) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xedb88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return ~crc;
}

TEST(Crc32, SlicedMatchesBytewiseReference) {
  util::Xoshiro256 rng(0xc3c32);
  std::vector<std::uint8_t> buf(300001);
  rng.fill_bytes(buf.data(), buf.size());
  // Every length from 0 to 64 at every alignment, so the 8-byte steps and
  // the byte-wise tail meet at each split.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      ASSERT_EQ(util::crc32(buf.data() + offset, len),
                crc32_bytewise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;
    }
  }
  // Random unaligned (offset, length) pairs, and one large buffer.
  for (int i = 0; i < 64; ++i) {
    const std::size_t offset = rng.next_below(4096);
    const std::size_t len = rng.next_below(65);
    ASSERT_EQ(util::crc32(buf.data() + offset, len),
              crc32_bytewise(buf.data() + offset, len))
        << "offset " << offset << " length " << len;
  }
  const std::uint32_t whole = crc32_bytewise(buf.data() + 3, buf.size() - 3);
  EXPECT_EQ(util::crc32(buf.data() + 3, buf.size() - 3), whole);
  // Chained calls over random cuts equal the one-shot value.
  for (int trial = 0; trial < 16; ++trial) {
    util::Crc32 inc;
    std::size_t at = 3;
    while (at < buf.size()) {
      const std::size_t step =
          std::min<std::size_t>(buf.size() - at, rng.next_below(2 * 4096));
      inc.update(buf.data() + at, step);
      at += step;
    }
    EXPECT_EQ(inc.value(), whole) << "trial " << trial;
  }
}

// --- nn::HealthMonitor ----------------------------------------------------

TEST(HealthMonitor, RaisesTypedConditions) {
  nn::HealthOptions opts;
  opts.grad_norm_limit = 10.0;
  nn::HealthMonitor monitor(opts);
  monitor.check_batch(1, 0.7, 1.0);  // healthy

  try {
    monitor.check_batch(2, std::nan(""), 1.0);
    FAIL() << "non-finite loss not detected";
  } catch (const nn::TrainingDiverged& e) {
    EXPECT_EQ(e.issue(), nn::HealthIssue::kNonFiniteLoss);
    EXPECT_EQ(e.epoch(), 2);
  }
  EXPECT_THROW(monitor.check_batch(2, 0.7, 100.0), nn::TrainingDiverged);

  // Loss explosion against the rolling baseline of healthy epochs.
  nn::HealthMonitor epochs((nn::HealthOptions()));
  epochs.check_epoch(1, 0.5, {});
  epochs.check_epoch(2, 0.45, {});
  epochs.check_epoch(3, 0.6, {});  // within 10x baseline: fine
  try {
    epochs.check_epoch(4, 50.0, {});
    FAIL() << "loss explosion not detected";
  } catch (const nn::TrainingDiverged& e) {
    EXPECT_EQ(e.issue(), nn::HealthIssue::kLossExplosion);
  }
}

TEST(HealthMonitor, DetectsNonFiniteWeights) {
  util::Xoshiro256 rng(1);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(4, 2, rng));
  const auto params = model.params();
  nn::HealthMonitor monitor;
  monitor.check_epoch(1, 0.5, params);  // healthy weights pass
  params.front().value[0] = std::numeric_limits<float>::infinity();
  try {
    monitor.check_epoch(2, 0.5, params);
    FAIL() << "non-finite weight not detected";
  } catch (const nn::TrainingDiverged& e) {
    EXPECT_EQ(e.issue(), nn::HealthIssue::kNonFiniteWeight);
  }
}

// --- core::CheckpointManager ----------------------------------------------

TEST(CheckpointManager, KeepsBestAndRestores) {
  util::Xoshiro256 rng(2);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(3, 2, rng));
  core::CheckpointManager ckpt;
  EXPECT_FALSE(ckpt.has_checkpoint());
  EXPECT_THROW(ckpt.restore(model), std::runtime_error);

  const float best_w = model.params().front().value[0];
  EXPECT_TRUE(ckpt.update(model, 0.8));
  // Worse validation accuracy must not overwrite the snapshot.
  model.params().front().value[0] = 123.0f;
  EXPECT_FALSE(ckpt.update(model, 0.7));
  EXPECT_DOUBLE_EQ(ckpt.best_val_accuracy(), 0.8);

  ckpt.restore(model);
  EXPECT_FLOAT_EQ(model.params().front().value[0], best_w);
}

TEST(CheckpointManager, RestoresBatchNormRunningStatistics) {
  // BatchNorm's running mean and variance are state, not params: a
  // rollback must put them back with the weights, bit for bit.
  util::Xoshiro256 rng(3);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(4, 3, rng));
  auto bn_layer = std::make_unique<nn::BatchNorm>(3);
  const nn::BatchNorm* bn = bn_layer.get();
  model.add(std::move(bn_layer));
  nn::Mat x(8, 4);
  for (std::size_t i = 0; i < 8 * 4; ++i) {
    x.data()[i] = static_cast<float>(i % 5) - 2.0f;
  }
  (void)model.forward(x, /*training=*/true);  // moves the statistics
  const std::vector<float> mean = bn->running_mean();
  const std::vector<float> var = bn->running_var();

  core::CheckpointManager ckpt;
  ASSERT_TRUE(ckpt.update(model, 0.9));
  for (const auto& s : model.state()) {
    std::fill(s.begin(), s.end(), std::numeric_limits<float>::quiet_NaN());
  }
  ckpt.restore(model);
  EXPECT_EQ(bn->running_mean(), mean);
  EXPECT_EQ(bn->running_var(), var);

  // A model of another shape does not take the copy.
  nn::Sequential other;
  other.add(std::make_unique<nn::Dense>(4, 3, rng));
  EXPECT_THROW(ckpt.restore(other), std::runtime_error);
}

// --- corrupt model files through save_model/load_model --------------------

class ModelFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("model.nnb");
    util::Xoshiro256 rng(7);
    auto model = core::build_default_mlp(16, 2, rng);
    core::save_model(*model, "default-mlp", 16, 2, path_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_;
};

TEST_F(ModelFileTest, RoundTripsThroughCrcFooter) {
  const core::LoadedModel loaded = core::load_model(path_);
  EXPECT_EQ(loaded.arch, "default-mlp");
  EXPECT_EQ(loaded.input_bits, 16u);
  EXPECT_EQ(loaded.classes, 2u);
  ASSERT_NE(loaded.model, nullptr);
}

TEST_F(ModelFileTest, BitFlipInTensorsIsDetected) {
  // Flip a bit in the tensor payload (well past the text header, before the
  // 8-byte CRC footer).
  core::flip_file_bit(path_, std::filesystem::file_size(path_) - 100, 5);
  try {
    (void)core::load_model(path_);
    FAIL() << "corrupt model file loaded silently";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC32 mismatch"), std::string::npos)
        << e.what();
  }
}

TEST_F(ModelFileTest, TruncationIsDetected) {
  core::truncate_file(path_, std::filesystem::file_size(path_) / 2);
  EXPECT_THROW((void)core::load_model(path_), std::runtime_error);
}

TEST_F(ModelFileTest, BadMagicIsDetected) {
  core::overwrite_file_prefix(path_, "XXXXX");
  try {
    (void)core::load_model(path_);
    FAIL() << "bad-magic model file loaded silently";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad header"), std::string::npos)
        << e.what();
  }
}

TEST_F(ModelFileTest, FileCutAtFooterIsRejected) {
  // Chopping exactly the 8-byte footer leaves every tensor intact; the
  // missing CRC footer alone must fail the load.
  core::truncate_file(path_, std::filesystem::file_size(path_) - 8);
  try {
    (void)core::load_model(path_);
    FAIL() << "footer-less model file loaded silently";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad CRC footer"), std::string::npos)
        << e.what();
  }
}

// --- core::FaultyOracle ---------------------------------------------------

TEST(FaultyOracle, SameSeedSameFaultSchedule) {
  util::FaultConfig faults;
  faults.bit_flip_prob = 0.3;
  faults.drop_prob = 0.2;

  const core::RandomOracle inner(2, 16);
  core::CollectOptions copt;
  copt.seed = 0xfa117;
  copt.chunk_base_inputs = 32;

  const auto run = [&](std::size_t threads) {
    core::FaultyOracle oracle(inner, faults);
    copt.threads = threads;
    const nn::Dataset ds = core::collect_dataset(oracle, 256, copt);
    return std::make_pair(ds, oracle.counters());
  };
  const auto [ds1, c1] = run(1);
  const auto [ds4, c4] = run(4);

  // Same seed ⇒ same data and same fault schedule, for any worker count.
  ASSERT_EQ(ds1.size(), ds4.size());
  ASSERT_EQ(ds1.x.rows(), ds4.x.rows());
  for (std::size_t r = 0; r < ds1.x.rows(); ++r) {
    for (std::size_t c = 0; c < ds1.x.cols(); ++c) {
      ASSERT_EQ(ds1.x.at(r, c), ds4.x.at(r, c)) << "row " << r;
    }
  }
  EXPECT_EQ(ds1.y, ds4.y);
  EXPECT_EQ(c1.queries, c4.queries);
  EXPECT_EQ(c1.drops, c4.drops);
  EXPECT_EQ(c1.bit_flips, c4.bit_flips);
  EXPECT_GT(c1.drops, 0u);
  EXPECT_GT(c1.bit_flips, 0u);

  // A different seed yields a different schedule (overwhelmingly likely).
  core::FaultyOracle other(inner, faults);
  copt.seed = 0xdead;
  copt.threads = 1;
  (void)core::collect_dataset(other, 256, copt);
  EXPECT_NE(other.counters().drops + other.counters().bit_flips,
            c1.drops + c1.bit_flips);
}

TEST(FaultyOracle, ForwardsShapeAndCounts) {
  const core::RandomOracle inner(3, 8);
  util::FaultConfig faults;
  faults.latency_spike_prob = 1.0;
  faults.latency_spike_us = 1;
  core::FaultyOracle oracle(inner, faults);
  EXPECT_EQ(oracle.num_differences(), 3u);
  EXPECT_EQ(oracle.output_bytes(), 8u);

  util::Xoshiro256 rng(5);
  std::vector<std::vector<std::uint8_t>> diffs;
  oracle.query(rng, diffs);
  ASSERT_EQ(diffs.size(), 3u);
  EXPECT_EQ(diffs[0].size(), 8u);
  EXPECT_EQ(oracle.counters().latency_spikes, 1u);
  oracle.reset_counters();
  EXPECT_EQ(oracle.counters().queries, 0u);
}

// --- divergence → rollback → retry → recovery -----------------------------

TEST(RetryPolicy, ForcedNaNRecoversViaRollbackAndBackoff) {
  core::ExperimentConfig config;
  config.target = "gimli-hash";
  config.rounds = 2;
  config.epochs = 4;
  config.seed = 99;
  config.threads = 1;
  const auto target = config.make_target();

  config.faults.poison_weight_epoch = 2;  // NaN a weight after epoch 2 ...
  config.faults.poison_max_attempts = 1;  // ... on the first attempt only
  config.max_retries = 3;

  core::MLDistinguisher dist(*target, config);
  const core::TrainReport rep = dist.train(*target, 400);

  // Attempt 1 diverged at epoch 3, rolled back to the epoch-2 checkpoint,
  // attempt 2 ran clean at half the learning rate.
  EXPECT_EQ(rep.robustness.attempts, 2);
  EXPECT_EQ(rep.robustness.divergences, 1);
  EXPECT_EQ(rep.robustness.rollbacks, 1);
  EXPECT_FALSE(rep.robustness.degraded_to_baseline);
  EXPECT_NE(rep.robustness.last_fault.find("non-finite"), std::string::npos)
      << rep.robustness.last_fault;

  // The recovered distinguisher is usable: finite weights, sane accuracy,
  // and a working online phase.
  EXPECT_TRUE(rep.usable);
  EXPECT_GT(rep.val_accuracy, 0.6);
  for (const auto& p : dist.model().params()) {
    for (std::size_t i = 0; i < p.size; ++i) {
      ASSERT_TRUE(std::isfinite(p.value[i]));
    }
  }
  const core::CipherOracle oracle(*target);
  const core::OnlineReport online = dist.test(oracle, 300);
  EXPECT_EQ(online.verdict, core::Verdict::kCipher);
}

TEST(RetryPolicy, GohrNetRollbackRestoresRunningStatistics) {
  // A residual BatchNorm net: the NaN weight poisons the running statistics
  // of the diverging epoch too, so a rollback that restored only params()
  // left the retry predicting from NaN statistics (val 0.5, unusable).
  core::ExperimentConfig config;
  config.target = "speck";
  config.rounds = 3;
  config.arch = "gohr-net/1";
  config.epochs = 4;
  config.seed = 99;
  config.threads = 1;
  const auto target = config.make_target();

  config.faults.poison_weight_epoch = 2;
  config.faults.poison_max_attempts = 1;

  core::MLDistinguisher dist(*target, config);
  const core::TrainReport rep = dist.train(*target, 2000);
  EXPECT_EQ(rep.robustness.attempts, 2);
  EXPECT_EQ(rep.robustness.rollbacks, 1);
  EXPECT_FALSE(rep.robustness.degraded_to_baseline);
  EXPECT_TRUE(rep.usable);
  EXPECT_GT(rep.val_accuracy, 0.9);
  for (const auto& s : dist.model().state()) {
    for (const float v : s) ASSERT_TRUE(std::isfinite(v));
  }
  const core::CipherOracle oracle(*target);
  EXPECT_EQ(dist.test(oracle, 500).verdict, core::Verdict::kCipher);
}

TEST(RetryPolicy, ExhaustedRetriesDegradeToLinearBaseline) {
  core::ExperimentConfig config;
  config.target = "gimli-hash";
  config.rounds = 2;
  config.epochs = 3;
  config.seed = 123;
  config.threads = 1;
  const auto target = config.make_target();

  config.faults.poison_weight_epoch = 1;
  config.faults.poison_max_attempts = 8;  // poison outlives the retry budget
  config.max_retries = 2;

  core::MLDistinguisher dist(*target, config);
  const core::TrainReport rep = dist.train(*target, 300);

  EXPECT_EQ(rep.robustness.attempts, 2);
  EXPECT_EQ(rep.robustness.divergences, 2);
  EXPECT_TRUE(rep.robustness.degraded_to_baseline);
  EXPECT_TRUE(dist.degraded());

  // The online game still returns a verdict instead of aborting.
  const core::CipherOracle oracle(*target);
  const core::OnlineReport online = dist.test(oracle, 300);
  EXPECT_GT(online.samples, 0u);
  EXPECT_TRUE(online.verdict == core::Verdict::kCipher ||
              online.verdict == core::Verdict::kRandom ||
              online.verdict == core::Verdict::kInconclusive);

  // The telemetry record serialises the degradation flag.
  const std::string json = rep.robustness.to_json();
  EXPECT_NE(json.find("\"degraded_to_baseline\":true"), std::string::npos)
      << json;
}

TEST(RetryPolicy, CleanRunIsUntouchedByTheGuards) {
  // With no injected faults the robust path must reproduce the plain run:
  // one attempt, no divergences, and health checks that never fire.
  core::ExperimentConfig config;
  config.target = "gimli-hash";
  config.rounds = 2;
  config.epochs = 1;
  config.seed = 77;
  config.threads = 1;
  const auto target = config.make_target();
  core::MLDistinguisher dist(*target, config);
  const core::TrainReport rep = dist.train(*target, 300);
  EXPECT_EQ(rep.robustness.attempts, 1);
  EXPECT_EQ(rep.robustness.divergences, 0);
  EXPECT_FALSE(rep.robustness.degraded_to_baseline);
  EXPECT_FALSE(dist.degraded());
}

}  // namespace
