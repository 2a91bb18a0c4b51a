// Quickstart: train an ML-assisted differential distinguisher on 6-round
// Gimli-Cipher and use it to identify an unknown oracle — the whole
// Algorithm 2 pipeline in ~40 lines of user code.
//
//   $ ./quickstart
#include <cstdio>
#include <memory>

#include "core/arch_zoo.hpp"
#include "core/distinguisher.hpp"
#include "core/online_game.hpp"
#include "core/targets.hpp"

int main() {
  using namespace mldist;

  // 1. Pick the target: 6-round Gimli-Cipher, nonce differences at the
  //    paper's byte positions 4 and 12 (t = 2 classes).
  const core::GimliCipherTarget target(/*total_rounds=*/6);

  // 2. Build a model: the paper's three-layer MLP (128, 1024, 2).
  util::Xoshiro256 rng(42);
  auto model = core::build_default_mlp(target.output_bytes() * 8,
                                       target.num_differences(), rng);

  // 3. Offline phase: collect labelled output differences and train.
  core::ExperimentConfig config;
  config.epochs = 3;
  config.on_epoch = [](const nn::EpochStats& s) {
    std::printf("  epoch %d: train acc %.4f, val acc %.4f\n", s.epoch,
                s.train_accuracy, s.val_accuracy.value_or(0.0));
  };
  core::MLDistinguisher dist(std::move(model), config);
  std::printf("offline phase (training)...\n");
  const core::TrainReport train = dist.train(target, /*base_inputs=*/4000);
  std::printf("training accuracy a = %.4f (baseline 1/t = 0.5) -> %s\n\n",
              train.val_accuracy,
              train.usable ? "proceed to online phase" : "abort");
  if (!train.usable) return 1;

  // 4. Online phase: query an unknown oracle and decide cipher, random or
  //    (when the game is underpowered) inconclusive.
  const core::CipherOracle cipher_oracle(target);
  const core::OnlineReport r1 = dist.test(cipher_oracle, 1000);
  std::printf("oracle #1: a' = %.4f, z = %.1f -> %s\n", r1.accuracy,
              r1.z_vs_random, core::verdict_name(r1.verdict));

  const core::RandomOracle random_oracle(target.num_differences(),
                                         target.output_bytes());
  const core::OnlineReport r2 = dist.test(random_oracle, 1000);
  std::printf("oracle #2: a' = %.4f, z = %.1f -> %s\n", r2.accuracy,
              r2.z_vs_random, core::verdict_name(r2.verdict));
  return 0;
}
