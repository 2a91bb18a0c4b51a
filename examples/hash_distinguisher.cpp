// The paper's §4 Gimli-Hash scenario, end to end, with the model persisted
// between the offline and online phases (the paper stores a Keras ".h5";
// we store a ".nnb").
//
//   $ ./hash_distinguisher [rounds]        (default 7)
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/arch_zoo.hpp"
#include "core/distinguisher.hpp"
#include "core/targets.hpp"
#include "nn/serialize.hpp"

int main(int argc, char** argv) {
  using namespace mldist;
  const int rounds = argc > 1 ? std::atoi(argv[1]) : 7;
  if (rounds < 1 || rounds > 24) {
    std::fprintf(stderr, "rounds must be in [1, 24]\n");
    return 1;
  }

  // Data collection exactly as in §4: zero-padded single-block message,
  // flip the LSB of message byte 4 or byte 12, observe the first 128 hash
  // bits.
  const core::GimliHashTarget target(rounds);
  std::printf("target: %s, differences at message bytes 4 and 12\n",
              target.name().c_str());

  util::Xoshiro256 rng(7);
  auto model = core::build_default_mlp(128, 2, rng);
  core::ExperimentConfig config;
  config.epochs = 3;
  core::MLDistinguisher dist(std::move(model), config);

  std::printf("offline phase: 5000 base messages (x3 hash queries each)\n");
  const core::TrainReport train = dist.train(target, 5000);
  std::printf("training accuracy a = %.4f (2^%.1f offline queries)\n",
              train.val_accuracy, train.log2_data);
  if (!train.usable) {
    std::printf("a is not significantly above 1/2: Algorithm 2 aborts.\n");
    return 0;
  }

  // Persist the model — the hand-off between offline and online phases.
  const std::string path = "gimli_hash_distinguisher.nnb";
  nn::save_params(dist.model(), path);
  std::printf("model saved to %s (%zu parameters)\n\n", path.c_str(),
              dist.model().param_count());

  // A "fresh" attacker process would rebuild the architecture, reload the
  // weights, and classify online oracle data with them:
  util::Xoshiro256 rng2(1234);
  auto online_model = core::build_default_mlp(128, 2, rng2);
  nn::load_params(*online_model, path);
  std::printf("model reloaded; running the online phase...\n");

  const core::CipherOracle oracle(target);
  const core::OnlineReport rep = dist.test(oracle, 2000);
  std::printf("online phase: a' = %.4f over 2^%.1f queries -> verdict: %s\n",
              rep.accuracy, rep.log2_data, core::verdict_name(rep.verdict));
  std::remove(path.c_str());
  return 0;
}
