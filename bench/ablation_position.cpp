// Ablation A2: where the input difference is injected.
//
// The paper picks message/nonce bytes 4 and 12 (word-aligned positions in
// two different state columns).  This bench compares byte pairs in the
// same column vs different columns and low vs high bit positions within a
// byte, on 7-round Gimli-Hash, showing how Gimli's column-local SP-box
// makes the choice matter.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "core/distinguisher.hpp"
#include "core/targets.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mldist;
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header("Ablation - input difference position (7-round "
                      "Gimli-Hash)", opt);

  const std::size_t base_inputs = opt.base(4000, 40000);
  const int epochs = opt.epochs(3, 10);

  struct Case {
    std::string label;
    std::vector<std::size_t> positions;
  };
  const std::vector<Case> cases = {
      {"paper: bytes 4, 12 (columns 1 and 3)", {4, 12}},
      {"same column: bytes 4, 5", {4, 5}},
      {"same column: bytes 4, 6", {4, 6}},
      {"adjacent columns: bytes 0, 4", {0, 4}},
      {"word-aligned far: bytes 0, 12", {0, 12}},
      {"column 0/2: bytes 2, 10", {2, 10}},
  };

  std::printf("%-42s %-10s\n", "difference positions", "accuracy");
  bench::print_rule();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    util::Xoshiro256 rng(opt.seed + i);
    const core::GimliHashTarget target(7, cases[i].positions);
    auto model = core::build_default_mlp(128, 2, rng);
    core::ExperimentConfig config;
    config.epochs = epochs;
    config.seed = opt.seed ^ (i * 7919);
    core::MLDistinguisher dist(std::move(model), config);
    util::Timer timer;
    const core::TrainReport rep = dist.train(target, base_inputs);
    std::printf("%-42s %-10.4f (%.1fs)\n", cases[i].label.c_str(),
                rep.val_accuracy, timer.seconds());
  }
  bench::print_rule();
  std::printf("expected: same-column pairs are easier to tell apart than\n"
              "the paper's cross-column choice at low rounds, and all decay\n"
              "together as rounds grow.\n");
  return 0;
}
