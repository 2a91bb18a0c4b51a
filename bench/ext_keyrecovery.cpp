// Extension bench: the §6 "future research" item — key recovery — built
// from the paper's own distinguisher (see core/key_recovery.hpp).
//
// Attack: recover the last-round subkey of 4-round SPECK-32/64 with a
// 3-round distinguisher.  Reports the rank of the true subkey among the
// scored candidates and the score separation (true vs mean wrong =
// wrong-key randomisation).
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "core/distinguisher.hpp"
#include "core/key_recovery.hpp"
#include "core/targets.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mldist;
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header("Extension - last-round key recovery on 4-round "
                      "SPECK-32/64", opt);

  const std::vector<std::uint32_t> diffs = {0x00400000u, 0x00102000u};
  const std::size_t train_base = opt.base(4000, 30000);
  const int epochs = opt.epochs(5, 10);

  util::Xoshiro256 rng(opt.seed);
  auto model = core::build_default_mlp(32, 2, rng);
  core::ExperimentConfig config;
  config.epochs = epochs;
  config.seed = opt.seed ^ 0x4ec0;
  core::MLDistinguisher dist(std::move(model), config);
  const core::SpeckTarget target(3, diffs);
  util::Timer timer;
  const core::TrainReport train = dist.train(target, train_base);
  std::printf("3-round distinguisher: accuracy a = %.4f (%.1fs)\n\n",
              train.val_accuracy, timer.seconds());

  core::KeyRecoveryOptions kopt;
  kopt.total_rounds = 4;
  kopt.base_inputs = opt.full ? 96 : 64;
  kopt.seed = opt.seed ^ 0xf00d;
  if (!opt.full) {
    // Quick mode scores 2^12 random candidates + the true key; --full
    // scores the whole 2^16 space.
    util::Xoshiro256 crng(opt.seed ^ 0xcad);
    for (int i = 0; i < 4096; ++i) {
      kopt.candidates.push_back(static_cast<std::uint16_t>(crng.next_u32()));
    }
  }

  timer.reset();
  const core::KeyRecoveryResult res =
      core::speck_last_round_key_recovery(dist.model(), diffs, kopt);
  std::printf("%-36s %s\n", "quantity", "value");
  bench::print_rule();
  std::printf("%-36s %zu\n", "candidates scored", res.candidates_scored);
  std::printf("%-36s 0x%04x\n", "true last-round subkey", res.true_subkey);
  std::printf("%-36s 0x%04x\n", "best-scoring candidate", res.best_guess);
  std::printf("%-36s %zu\n", "rank of true subkey (0 = recovered)",
              res.true_rank);
  std::printf("%-36s %.4f\n", "score of true subkey", res.true_score);
  std::printf("%-36s %.4f\n", "mean wrong-candidate score",
              res.mean_wrong_score);
  bench::print_rule();
  std::printf("attack time %.1fs with %zu chosen-plaintext triples.\n",
              timer.seconds(), kopt.base_inputs);
  std::printf("paper: \"our model does not have a key recovery "
              "functionality\" (SS6) - this bench\nimplements that future "
              "work on top of the unchanged distinguisher.\n");
  return 0;
}
