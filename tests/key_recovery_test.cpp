// Tests for the Gohr-style last-round key recovery extension.
#include <gtest/gtest.h>

#include <memory>

#include "core/arch_zoo.hpp"
#include "core/distinguisher.hpp"
#include "core/key_recovery.hpp"
#include "core/targets.hpp"
#include "util/rng.hpp"

namespace {

using namespace mldist::core;
using mldist::util::Xoshiro256;

/// Train a distinguisher for (rounds)-round SPECK; shared by the tests.
std::unique_ptr<MLDistinguisher> train_speck_model(int rounds,
                                                   std::size_t base_inputs) {
  Xoshiro256 rng(101);
  auto model = build_default_mlp(32, 2, rng);
  ExperimentConfig opt;
  opt.epochs = 5;
  opt.seed = 0xabcd;
  auto dist = std::make_unique<MLDistinguisher>(std::move(model), opt);
  const SpeckTarget target(rounds);
  (void)dist->train(target, base_inputs);
  return dist;
}

TEST(KeyRecovery, RecoversTrueKeyAmongSampledCandidates) {
  // 4-round attack with a 3-round distinguisher; 255 random wrong
  // candidates + the true key.  The true key must rank at or near the top.
  auto dist = train_speck_model(3, 3000);
  ASSERT_GT(dist->last_train().val_accuracy, 0.75);

  KeyRecoveryOptions opt;
  opt.total_rounds = 4;
  opt.base_inputs = 64;
  opt.seed = 0x5eed01;
  Xoshiro256 rng(7);
  for (int i = 0; i < 255; ++i) {
    opt.candidates.push_back(static_cast<std::uint16_t>(rng.next_u32()));
  }
  const KeyRecoveryResult res = speck_last_round_key_recovery(
      dist->model(), std::vector<std::uint32_t>{0x00400000u, 0x00102000u},
      opt);
  EXPECT_LE(res.true_rank, 3u);
  EXPECT_GT(res.true_score, res.mean_wrong_score + 0.1);
}

TEST(KeyRecovery, TrueKeyInjectedWhenMissingFromCandidates) {
  auto dist = train_speck_model(3, 800);
  KeyRecoveryOptions opt;
  opt.total_rounds = 4;
  opt.base_inputs = 16;
  opt.candidates = {0x0001, 0x0002, 0x0003};  // almost surely not the key
  const KeyRecoveryResult res = speck_last_round_key_recovery(
      dist->model(), std::vector<std::uint32_t>{0x00400000u, 0x00102000u},
      opt);
  // The true key was scored even though the list omitted it.
  EXPECT_GE(res.candidates_scored, 4u);
  EXPECT_GT(res.true_score, 0.0);
}

TEST(KeyRecovery, WrongKeysScoreBetweenBaselineAndTrueKey) {
  // SPECK's inverse round leaves the y word key-independent
  // (y = (y' ^ x') >>> 2), so even a wrong candidate hands the model the
  // correct 3-round y-half difference: wrong scores sit well ABOVE the
  // 1/t = 0.5 floor.  Ranking works because only the true key also fixes
  // the x-half.  This is a structural property worth pinning down.
  auto dist = train_speck_model(3, 3000);
  KeyRecoveryOptions opt;
  opt.total_rounds = 4;
  opt.base_inputs = 64;
  Xoshiro256 rng(8);
  for (int i = 0; i < 128; ++i) {
    opt.candidates.push_back(static_cast<std::uint16_t>(rng.next_u32()));
  }
  const KeyRecoveryResult res = speck_last_round_key_recovery(
      dist->model(), std::vector<std::uint32_t>{0x00400000u, 0x00102000u},
      opt);
  EXPECT_GT(res.mean_wrong_score, 0.55);             // above the 1/t floor
  EXPECT_GT(res.true_score, res.mean_wrong_score + 0.1);  // but separable
}

TEST(KeyRecovery, DeterministicGivenSeed) {
  auto dist = train_speck_model(3, 800);
  KeyRecoveryOptions opt;
  opt.total_rounds = 4;
  opt.base_inputs = 24;
  opt.candidates = {1, 2, 3, 4, 5};
  const std::vector<std::uint32_t> diffs = {0x00400000u, 0x00102000u};
  const KeyRecoveryResult a =
      speck_last_round_key_recovery(dist->model(), diffs, opt);
  const KeyRecoveryResult b =
      speck_last_round_key_recovery(dist->model(), diffs, opt);
  EXPECT_EQ(a.true_subkey, b.true_subkey);
  EXPECT_EQ(a.best_guess, b.best_guess);
  EXPECT_DOUBLE_EQ(a.true_score, b.true_score);
}

}  // namespace
