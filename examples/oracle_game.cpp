// The classical distinguisher game of §1/§3 as an interactive-style
// simulation: a referee secretly flips a coin per round, hands the attacker
// an oracle, and the attacker must name it.  Prints a per-game log plus the
// final scoreboard.
//
//   $ ./oracle_game [games] [rounds]       (defaults: 10 games, 6 rounds)
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/arch_zoo.hpp"
#include "core/distinguisher.hpp"
#include "core/targets.hpp"

int main(int argc, char** argv) {
  using namespace mldist;
  const std::size_t games = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10;
  const int rounds = argc > 2 ? std::atoi(argv[2]) : 6;

  const core::GimliCipherTarget target(rounds);
  std::printf("== offline phase: training a distinguisher for %s ==\n",
              target.name().c_str());
  util::Xoshiro256 rng(2024);
  auto model = core::build_default_mlp(128, 2, rng);
  core::ExperimentConfig config;
  config.epochs = 3;
  core::MLDistinguisher dist(std::move(model), config);
  const core::TrainReport train = dist.train(target, 4000);
  std::printf("training accuracy a = %.4f\n\n", train.val_accuracy);
  if (!train.usable) {
    std::printf("no signal at %d rounds; Algorithm 2 aborts.\n", rounds);
    return 0;
  }

  std::printf("== online phase: %zu oracle games ==\n", games);
  const core::CipherOracle cipher(target);
  const core::RandomOracle random(target.num_differences(),
                                  target.output_bytes());
  util::Xoshiro256 referee(0xc0117055);
  std::size_t correct = 0;
  for (std::size_t g = 0; g < games; ++g) {
    const bool is_cipher = (referee.next_u64() & 1) != 0;
    const core::Verdict truth =
        is_cipher ? core::Verdict::kCipher : core::Verdict::kRandom;
    const core::Oracle& oracle =
        is_cipher ? static_cast<const core::Oracle&>(cipher)
                  : static_cast<const core::Oracle&>(random);
    const core::OnlineReport rep =
        dist.test(oracle, 800, referee.next_u64() | 1);
    const bool right = rep.verdict == truth;
    correct += right;
    std::printf("game %2zu: truth=%-6s  a'=%.4f  guess=%-12s  %s\n", g + 1,
                core::verdict_name(truth), rep.accuracy,
                core::verdict_name(rep.verdict), right ? "correct" : "WRONG");
  }
  std::printf("\nscore: %zu / %zu\n", correct, games);
  return 0;
}
