// Cross-module integration: the full Algorithm 2 pipeline — offline data
// collection, training, model persistence between phases (the paper's ".h5"
// hand-off), the online oracle game, and the SVM baseline plugged into the
// same data path.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/arch_zoo.hpp"
#include "core/dataset.hpp"
#include "core/distinguisher.hpp"
#include "core/linear_baseline.hpp"
#include "core/online_game.hpp"
#include "core/targets.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace {

using namespace mldist::core;
using mldist::util::Xoshiro256;

TEST(Integration, OfflineOnlineWithModelPersistence) {
  // Offline phase: train on 3-round Gimli-Hash, save the model.
  Xoshiro256 rng(1);
  const GimliHashTarget target(3);
  const std::string path =
      (std::filesystem::temp_directory_path() / "mldist_offline.nnb").string();
  double train_acc = 0.0;
  {
    auto model = build_default_mlp(128, 2, rng);
    ExperimentConfig opt;
    opt.epochs = 3;
    MLDistinguisher dist(std::move(model), opt);
    const TrainReport rep = dist.train(target, 500);
    ASSERT_TRUE(rep.usable);
    train_acc = rep.val_accuracy;
    mldist::nn::save_params(dist.model(), path);
  }

  // Online phase in a "fresh process": rebuild the architecture, load the
  // weights, classify oracle data.
  {
    Xoshiro256 rng2(999);
    auto model = build_default_mlp(128, 2, rng2);
    mldist::nn::load_params(*model, path);

    const CipherOracle cipher(target);
    Xoshiro256 online_rng(7);
    const auto online = collect_dataset(cipher, 300, online_rng);
    const auto pred = model->predict(online.x);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < pred.size(); ++i) {
      if (pred[i] == online.y[i]) ++hits;
    }
    const double online_acc =
        static_cast<double>(hits) / static_cast<double>(pred.size());
    // a' must track a (the paper's CIPHER decision condition).
    EXPECT_NEAR(online_acc, train_acc, 0.1);
    EXPECT_GT(online_acc, 0.8);
  }
  std::remove(path.c_str());
}

TEST(Integration, OracleGameMostlyWonOnEasyTarget) {
  Xoshiro256 rng(2);
  auto model = build_default_mlp(128, 2, rng);
  ExperimentConfig opt;
  opt.epochs = 3;
  MLDistinguisher dist(std::move(model), opt);
  const GimliHashTarget target(2);
  (void)dist.train(target, 500);

  const GameReport rep = play_games(dist, target, 12, 150, /*seed=*/0xfeed);
  EXPECT_GE(rep.success_rate, 0.9);
  EXPECT_GT(rep.mean_cipher_accuracy, 0.9);
  EXPECT_NEAR(rep.mean_random_accuracy, 0.5, 0.1);
  // Accounting invariants (see GameReport docs): a game lands in at most
  // one of correct / inconclusive, and success_rate's denominator is games.
  EXPECT_LE(rep.correct + rep.inconclusive, rep.games);
  EXPECT_DOUBLE_EQ(
      rep.success_rate,
      static_cast<double>(rep.correct) / static_cast<double>(rep.games));
}

TEST(Integration, GameReportCountsInconclusiveAgainstSuccessRate) {
  // Pin the GameReport accounting: an inconclusive game increments
  // `inconclusive` AND counts against `success_rate` (denominator stays
  // `games`, numerator only counts correct calls).
  //
  // With online_base_inputs = 1 each game scores t = 2 rows.  decide() is
  // then always underpowered (3*se ~ 1.06 exceeds the largest possible
  // training advantage 0.5) and the z-vs-random escape hatch cannot fire
  // either (2 hits out of 2 gives z ~ 1.41 < 3), so every game is
  // deterministically inconclusive regardless of the referee's coins.
  Xoshiro256 rng(5);
  auto model = build_default_mlp(128, 2, rng);
  ExperimentConfig opt;
  opt.epochs = 1;
  MLDistinguisher dist(std::move(model), opt);
  const GimliHashTarget target(2);
  (void)dist.train(target, 200);

  const GameReport rep =
      play_games(dist, target, 6, /*online_base_inputs=*/1, /*seed=*/0xabcd);
  EXPECT_EQ(rep.games, 6u);
  EXPECT_EQ(rep.inconclusive, 6u);
  EXPECT_EQ(rep.correct, 0u);
  EXPECT_DOUBLE_EQ(rep.success_rate, 0.0);
  EXPECT_LE(rep.correct + rep.inconclusive, rep.games);
}

TEST(Integration, SvmBaselineWorksOnVeryLowRounds) {
  // §6: an SVM can replace the neural network.  On 2-round Gimli-Hash the
  // structure is strong enough for a linear model.
  Xoshiro256 rng(3);
  const GimliHashTarget target(2);
  const auto train = collect_dataset(target, 500, rng);
  const auto test = collect_dataset(target, 200, rng);
  LinearSvm svm(128, 2);
  (void)svm.fit(train, {});
  EXPECT_GT(svm.accuracy(test), 0.8);
}

TEST(Integration, SpeckDistinguisherAtFiveRounds) {
  Xoshiro256 rng(4);
  auto model = build_default_mlp(32, 2, rng);
  ExperimentConfig opt;
  opt.epochs = 5;
  MLDistinguisher dist(std::move(model), opt);
  const SpeckTarget target(5);
  const TrainReport rep = dist.train(target, 2000);
  EXPECT_TRUE(rep.usable);
  EXPECT_GT(rep.val_accuracy, 0.55);

  const CipherOracle cipher(target);
  EXPECT_EQ(dist.test(cipher, 1500).verdict, Verdict::kCipher);
  const RandomOracle random(2, 4);
  EXPECT_EQ(dist.test(random, 1500).verdict, Verdict::kRandom);
}

TEST(Integration, AccuracyDecreasesWithRounds) {
  // The Table-2 shape on a small budget: more rounds, less signal.
  double prev = 1.1;
  for (int rounds : {2, 4, 6}) {
    Xoshiro256 rng(5);
    auto model = build_default_mlp(128, 2, rng);
    ExperimentConfig opt;
    opt.epochs = 3;
    opt.seed = 0x5eed + static_cast<std::uint64_t>(rounds);
    MLDistinguisher dist(std::move(model), opt);
    const GimliHashTarget target(rounds);
    const TrainReport rep = dist.train(target, 400);
    EXPECT_LT(rep.val_accuracy, prev + 0.05) << rounds << " rounds";
    prev = rep.val_accuracy;
  }
}

TEST(Integration, FourDifferenceVariantTrainsAndLabels) {
  // t = 4 differences: labels and the 1/t baseline adjust accordingly.
  Xoshiro256 rng(6);
  const GimliHashTarget target(2, {1, 4, 8, 12});
  EXPECT_EQ(target.num_differences(), 4u);
  auto model = build_default_mlp(128, 4, rng);
  ExperimentConfig opt;
  opt.epochs = 3;
  MLDistinguisher dist(std::move(model), opt);
  const TrainReport rep = dist.train(target, 400);
  EXPECT_GT(rep.val_accuracy, 0.5);  // far above 1/t = 0.25
  EXPECT_TRUE(rep.usable);
}

}  // namespace
