// Tests for probability combining (core/combiner.hpp) and the toy-cipher
// all-in-one ceiling.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/toy_gift.hpp"
#include "core/arch_zoo.hpp"
#include "core/combiner.hpp"
#include "core/distinguisher.hpp"
#include "nn/optimizer.hpp"
#include "core/real_random.hpp"
#include "core/targets.hpp"
#include "util/rng.hpp"

namespace {

using namespace mldist::core;
using mldist::util::Xoshiro256;

TEST(ToyAllInOne, DistributionsSumToOne) {
  for (std::uint8_t din : {0x32, 0x23, 0x01, 0xff}) {
    const auto dist = mldist::analysis::toy_diff_distribution(din);
    double sum = 0.0;
    for (double p : dist) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(ToyAllInOne, ZeroDifferenceIsDegenerate) {
  const auto dist = mldist::analysis::toy_diff_distribution(0x00);
  EXPECT_DOUBLE_EQ(dist[0], 1.0);
}

TEST(ToyAllInOne, BayesAccuracyBounds) {
  const double acc = mldist::analysis::toy_allinone_bayes_accuracy(0x32, 0x23);
  EXPECT_GE(acc, 0.5);   // never worse than guessing
  EXPECT_LE(acc, 1.0);
  EXPECT_GT(acc, 0.6);   // two rounds leak a lot on 8 bits
}

TEST(ToyAllInOne, IdenticalDifferencesAreIndistinguishable) {
  EXPECT_NEAR(mldist::analysis::toy_allinone_bayes_accuracy(0x32, 0x32), 0.5,
              1e-12);
}

TEST(ToyAllInOne, MlApproachesBayesCeiling) {
  // The paper's central claim in miniature: the trained model reaches the
  // exact all-in-one accuracy on an enumerable cipher.
  const ToyGiftTarget target;
  const double bayes = mldist::analysis::toy_allinone_bayes_accuracy(
      target.diffs()[0], target.diffs()[1]);
  Xoshiro256 rng(1);
  auto model = build_default_mlp(8, 2, rng);
  ExperimentConfig opt;
  opt.epochs = 10;
  MLDistinguisher dist(std::move(model), opt);
  const TrainReport rep = dist.train(target, 6000);
  EXPECT_NEAR(rep.val_accuracy, bayes, 0.04);
  EXPECT_LE(rep.val_accuracy, bayes + 0.04);  // cannot beat the ceiling
}

TEST(Combiner, PredictGroupMatchesSingleForOneRow) {
  Xoshiro256 rng(2);
  auto model = build_default_mlp(8, 2, rng);
  mldist::nn::Mat x(1, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    x.data()[i] = static_cast<float>(rng.next_u64() & 1);
  }
  EXPECT_EQ(predict_group(*model, x), model->predict(x)[0]);
}

TEST(Combiner, CombiningBoostsWeakDistinguisher) {
  // 5-round toy-free setting: 7-round Gimli-Cipher at a modest budget has
  // per-sample accuracy well below 1; combining k = 16 must push the
  // grouped accuracy close to 1.
  const GimliCipherTarget target(7);
  Xoshiro256 rng(3);
  auto model = build_default_mlp(128, 2, rng);
  ExperimentConfig opt;
  opt.epochs = 3;
  MLDistinguisher dist(std::move(model), opt);
  const TrainReport rep = dist.train(target, 3000);
  ASSERT_GT(rep.val_accuracy, 0.55);
  ASSERT_LT(rep.val_accuracy, 0.95);

  const CipherOracle oracle(target);
  Xoshiro256 orng(4);
  const CombinedReport k1 =
      combined_accuracy(dist.model(), oracle, 200, 1, orng);
  const CombinedReport k16 =
      combined_accuracy(dist.model(), oracle, 80, 16, orng);
  EXPECT_GT(k16.accuracy, k1.accuracy + 0.05);
  EXPECT_GT(k16.accuracy, 0.9);
}

TEST(Combiner, RandomOracleStaysAtBaseline) {
  const GimliCipherTarget target(7);
  Xoshiro256 rng(5);
  auto model = build_default_mlp(128, 2, rng);
  ExperimentConfig opt;
  opt.epochs = 2;
  MLDistinguisher dist(std::move(model), opt);
  (void)dist.train(target, 1500);

  const RandomOracle oracle(2, 16);
  Xoshiro256 orng(6);
  const CombinedReport rep =
      combined_accuracy(dist.model(), oracle, 150, 8, orng);
  EXPECT_NEAR(rep.accuracy, 0.5, 0.12);
}

TEST(Combiner, ReportAccounting) {
  const GimliCipherTarget target(2);
  Xoshiro256 rng(7);
  auto model = build_default_mlp(128, 2, rng);
  ExperimentConfig opt;
  opt.epochs = 1;
  MLDistinguisher dist(std::move(model), opt);
  (void)dist.train(target, 100);

  const CipherOracle oracle(target);
  Xoshiro256 orng(8);
  const CombinedReport rep =
      combined_accuracy(dist.model(), oracle, 10, 4, orng);
  EXPECT_EQ(rep.groups, 10u);
  EXPECT_EQ(rep.k, 4u);
  EXPECT_NEAR(rep.log2_queries, std::log2(10.0 * 4.0 * 3.0), 1e-9);
}


// ---------------------------------------------------------------------------
// Gohr-style real-vs-random data sets
// ---------------------------------------------------------------------------

TEST(RealRandom, BalancedShapesAndLabels) {
  const GimliHashTarget target(6);
  Xoshiro256 rng(9);
  const auto ds = collect_real_random_dataset(target, 50, rng);
  ASSERT_EQ(ds.size(), 100u);
  EXPECT_EQ(ds.x.cols(), 128u);
  std::size_t real = 0;
  for (int y : ds.y) real += (y == 1);
  EXPECT_EQ(real, 50u);
  for (std::size_t i = 0; i < ds.x.size(); ++i) {
    EXPECT_TRUE(ds.x.data()[i] == 0.0f || ds.x.data()[i] == 1.0f);
  }
}

TEST(RealRandom, TrainableAtLowRounds) {
  const GimliHashTarget target(4);
  Xoshiro256 rng(10);
  const auto train = collect_real_random_dataset(target, 1500, rng);
  const auto val = collect_real_random_dataset(target, 300, rng);
  auto model = build_default_mlp(128, 2, rng);
  mldist::nn::Adam adam(1e-3f);
  mldist::nn::FitOptions fit;
  fit.epochs = 3;
  fit.batch_size = 128;
  (void)model->fit(train, adam, fit);
  EXPECT_GT(model->evaluate(val).accuracy, 0.85);
}

TEST(RealRandom, RandomClassIsActuallyUniform) {
  const GimliHashTarget target(2);
  Xoshiro256 rng(11);
  const auto ds = collect_real_random_dataset(target, 200, rng);
  // Mean bit value of the random class should be ~0.5.
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (ds.y[i] != 0) continue;
    const float* row = ds.x.row(i);
    for (std::size_t j = 0; j < ds.x.cols(); ++j) sum += row[j];
    count += ds.x.cols();
  }
  EXPECT_NEAR(sum / static_cast<double>(count), 0.5, 0.02);
}

}  // namespace
