// Ablation A6 (extension): combining the model's probability outputs over
// k same-class pairs (naive-Bayes log-likelihood sum).  The per-sample
// advantage of a marginal distinguisher grows ~sqrt(k) under combining, so
// the weak 8-round signal becomes decisive — trading online data volume
// against per-sample accuracy.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "core/combiner.hpp"
#include "core/distinguisher.hpp"
#include "core/targets.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mldist;
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header("Ablation - probability combining over k pairs "
                      "(Gimli-Cipher)", opt);

  const std::size_t train_base = opt.base(20000, 99000);
  const int epochs = opt.epochs(4, 12);
  const int rounds = opt.full ? 8 : 7;

  const core::GimliCipherTarget target(rounds);
  util::Xoshiro256 rng(opt.seed);
  auto model = core::build_default_mlp(128, 2, rng);
  core::ExperimentConfig config;
  config.epochs = epochs;
  config.seed = opt.seed ^ 0xc0b1;
  core::MLDistinguisher dist(std::move(model), config);
  util::Timer timer;
  const core::TrainReport train = dist.train(target, train_base);
  std::printf("target %s, per-sample training accuracy a = %.4f (%.1fs)\n\n",
              target.name().c_str(), train.val_accuracy, timer.seconds());

  const core::CipherOracle cipher(target);
  const core::RandomOracle random(2, 16);

  bench::CsvWriter csv("ablation_combine",
      "k,cipher_accuracy,random_accuracy,log2_queries");
  std::printf("%-6s %-22s %-22s %-14s\n", "k", "combined acc (CIPHER)",
              "combined acc (RANDOM)", "2^queries");
  bench::print_rule();
  for (const std::size_t k : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const std::size_t groups = 1024 / k + 16;
    util::Xoshiro256 orng(opt.seed + k);
    const core::CombinedReport on_cipher =
        core::combined_accuracy(dist.model(), cipher, groups, k, orng);
    const core::CombinedReport on_random =
        core::combined_accuracy(dist.model(), random, groups, k, orng);
    std::printf("%-6zu %-22.4f %-22.4f %-14.1f\n", k, on_cipher.accuracy,
                on_random.accuracy, on_cipher.log2_queries);
    csv.rowf("%zu,%.4f,%.4f,%.1f", k, on_cipher.accuracy, on_random.accuracy,
             on_cipher.log2_queries);
  }
  bench::print_rule();
  std::printf("expected: CIPHER column climbs toward 1.0 with k; RANDOM "
              "column stays ~0.5.\n");
  return 0;
}
