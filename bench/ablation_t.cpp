// Ablation A1: number of input differences t.
//
// Algorithm 2 requires t >= 2; the paper does not fix t beyond that.  This
// bench trains the same MLP on 6-round Gimli-Hash with t = 2, 4 and 8
// difference positions and reports accuracy against the 1/t random
// baseline, plus the derived online sample count needed for a 3-sigma
// decision — showing the trade-off: more classes dilute per-class accuracy
// but each online base input yields t labelled predictions.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "core/distinguisher.hpp"
#include "core/targets.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mldist;
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header("Ablation - number of input differences t (6-round "
                      "Gimli-Hash)", opt);

  const std::size_t base_inputs = opt.base(4000, 40000);
  const int epochs = opt.epochs(3, 10);

  const std::vector<std::vector<std::size_t>> position_sets = {
      {4, 12},
      {1, 4, 8, 12},
      {0, 1, 2, 4, 6, 8, 10, 12},
  };

  std::printf("%-4s %-10s %-10s %-12s %-22s\n", "t", "1/t", "accuracy",
              "acc - 1/t", "online rows for 3-sigma");
  bench::print_rule();
  for (const auto& positions : position_sets) {
    const std::size_t t = positions.size();
    util::Xoshiro256 rng(opt.seed + t);
    const core::GimliHashTarget target(6, positions);
    auto model = core::build_default_mlp(128, t, rng);
    core::ExperimentConfig config;
    config.epochs = epochs;
    config.seed = opt.seed ^ (t * 1337);
    core::MLDistinguisher dist(std::move(model), config);
    util::Timer timer;
    const core::TrainReport rep = dist.train(target, base_inputs);
    const double baseline = util::random_guess_accuracy(t);
    const std::size_t need =
        util::samples_to_distinguish(rep.val_accuracy, t);
    std::printf("%-4zu %-10.4f %-10.4f %-12.4f %-22zu (%.1fs)\n", t, baseline,
                rep.val_accuracy, rep.val_accuracy - baseline, need,
                timer.seconds());
  }
  bench::print_rule();
  std::printf("note: each online base input costs t+1 oracle queries and "
              "yields t predictions.\n");
  return 0;
}
