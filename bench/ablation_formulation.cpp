// Ablation A7: data formulation — the paper's multi-difference
// classification (§3) vs Gohr's real-vs-random labelling (§2.3/§3.3).
//
// Both train the same MLP on the same oracle-query budget.  Accuracies are
// not directly comparable across tasks, so the table also reports the
// distinguishing advantage 2*acc - 1, which is.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "core/dataset.hpp"
#include "core/distinguisher.hpp"
#include "core/real_random.hpp"
#include "core/targets.hpp"
#include "nn/optimizer.hpp"
#include "util/timer.hpp"

namespace {

using namespace mldist;

void run_target(const core::Target& target, std::size_t base, int epochs,
                std::uint64_t seed) {
  // (a) paper's formulation via the standard pipeline.
  double paper_acc = 0.0;
  {
    util::Xoshiro256 rng(seed);
    auto model = core::build_default_mlp(target.output_bytes() * 8,
                                         target.num_differences(), rng);
    core::ExperimentConfig config;
    config.epochs = epochs;
    config.seed = seed ^ 0xf0;
    core::MLDistinguisher dist(std::move(model), config);
    paper_acc = dist.train(target, base).val_accuracy;
  }
  // (b) Gohr's formulation: same number of oracle queries. One paper base
  // input costs t+1 queries and yields t rows; one Gohr "real" row costs
  // t+1 queries too (the target API samples all diffs), so per_class =
  // base gives identical query counts.
  double gohr_acc = 0.0;
  {
    util::Xoshiro256 rng(seed + 1);
    const nn::Dataset train =
        core::collect_real_random_dataset(target, base, rng);
    const nn::Dataset val =
        core::collect_real_random_dataset(target, base / 5, rng);
    auto model =
        core::build_default_mlp(target.output_bytes() * 8, 2, rng);
    nn::Adam adam(1e-3f);
    nn::FitOptions fit;
    fit.epochs = epochs;
    fit.batch_size = 128;
    fit.shuffle_seed = seed;
    (void)model->fit(train, adam, fit);
    gohr_acc = model->evaluate(val).accuracy;
  }
  std::printf("%-22s %-9.4f %-9.4f %-11.4f %-9.4f\n", target.name().c_str(),
              paper_acc, 2 * paper_acc - 1, gohr_acc, 2 * gohr_acc - 1);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header("Ablation - paper's multi-difference labels vs Gohr's "
                      "real-vs-random labels", opt);

  const std::size_t base = opt.base(4000, 40000);
  const int epochs = opt.epochs(3, 10);

  std::printf("%-22s %-9s %-9s %-11s %-9s\n", "target", "paper", "adv",
              "gohr-style", "adv");
  bench::print_rule();
  run_target(core::GimliHashTarget(6), base, epochs, opt.seed);
  run_target(core::GimliHashTarget(7), base, epochs, opt.seed + 7);
  run_target(core::GimliCipherTarget(7), base, epochs, opt.seed + 14);
  run_target(core::SpeckTarget(5), base * 2, epochs, opt.seed + 21);
  run_target(core::SpeckTarget(6), base * 2, epochs, opt.seed + 28);
  bench::print_rule();
  std::printf("adv = 2*accuracy - 1.  The formulations track each other; the\n"
              "paper's needs no random data during training and extends to\n"
              "t > 2 differences, Gohr's maps directly to key ranking.\n");
  return 0;
}
