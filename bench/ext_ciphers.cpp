// Extension (paper §6 future scope): the same ML-assisted distinguisher on
// other primitives — the Markov ciphers GIFT-64, SIMON, SIMECK and PRESENT,
// the MAC Chaskey, the non-Markov SALSA20 core and TRIVIUM — plus SPECK for
// reference, and the related-key game (arXiv 2201.03767) where supported.
// One table: primitive, round/clock budget, accuracy, usable verdict.
//
// Beyond the table, every row's accuracy and advantage (accuracy - 1/t)
// land in results/BENCH_ext_ciphers.json; the cipher-zoo rows' accuracies
// are floor-pinned in tools/baselines.jsonl for the `regress` gate, so a
// refactor that silently breaks a new primitive's distinguisher fails CI.
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
  using core::DiffSite;
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Extension - distinguishers on GIFT, SIMON, SIMECK, PRESENT, Chaskey, "
      "Salsa20 core, Trivium, SPECK", opt);

  const std::size_t base_inputs = opt.base(5000, 40000);
  const int epochs = opt.epochs(4, 10);

  struct Row {
    std::string label;
    std::string slug;  ///< JSON field prefix: <slug>_accuracy
    std::unique_ptr<core::Target> target;
  };
  std::vector<Row> rows;
  rows.push_back({"gift64, 4 rounds", "gift64_4r",
                  std::make_unique<core::Gift64Target>(4)});
  rows.push_back({"gift64, 6 rounds", "gift64_6r",
                  std::make_unique<core::Gift64Target>(6)});
  rows.push_back({"gift64, 9 rounds", "gift64_9r",
                  std::make_unique<core::Gift64Target>(9)});
  rows.push_back({"gift128, 4 rounds", "gift128_4r",
                  std::make_unique<core::Gift128Target>(4)});
  rows.push_back({"gift128, 8 rounds", "gift128_8r",
                  std::make_unique<core::Gift128Target>(8)});
  rows.push_back({"salsa20 core, 3 rounds", "salsa_3r",
                  std::make_unique<core::SalsaTarget>(3)});
  rows.push_back({"salsa20 core, 4 rounds", "salsa_4r",
                  std::make_unique<core::SalsaTarget>(4)});
  rows.push_back({"salsa20 core, 6 rounds", "salsa_6r",
                  std::make_unique<core::SalsaTarget>(6)});
  rows.push_back({"trivium, 384 init clocks", "trivium_384",
                  std::make_unique<core::TriviumTarget>(384)});
  rows.push_back({"trivium, 576 init clocks", "trivium_576",
                  std::make_unique<core::TriviumTarget>(576)});
  rows.push_back({"trivium, 1152 (full) clocks", "trivium_1152",
                  std::make_unique<core::TriviumTarget>(1152)});
  rows.push_back({"speck32/64, 5 rounds", "speck_5r",
                  std::make_unique<core::SpeckTarget>(5)});
  rows.push_back({"speck32/64, 7 rounds", "speck_7r",
                  std::make_unique<core::SpeckTarget>(7)});
  // --- the PR 8 cipher zoo, both difference sites where supported --------
  rows.push_back({"simon32/64, 7 rounds", "simon_7r",
                  std::make_unique<core::SimonTarget>(7)});
  rows.push_back({"simon32/64, 8 rounds", "simon_8r",
                  std::make_unique<core::SimonTarget>(8)});
  rows.push_back({"simon32/64, 7 rounds, rel-key", "simon_7r_rk",
                  std::make_unique<core::SimonTarget>(
                      7, std::vector<std::uint64_t>{0x40ULL, 0x4000ULL},
                      DiffSite::kRelatedKey)});
  rows.push_back({"simeck32/64, 7 rounds", "simeck_7r",
                  std::make_unique<core::SimeckTarget>(7)});
  rows.push_back({"simeck32/64, 7 rounds, rel-key", "simeck_7r_rk",
                  std::make_unique<core::SimeckTarget>(
                      7, std::vector<std::uint64_t>{0x40ULL, 0x4000ULL},
                      DiffSite::kRelatedKey)});
  rows.push_back({"present80, 3 rounds", "present_3r",
                  std::make_unique<core::PresentTarget>(3)});
  rows.push_back({"present80, 4 rounds", "present_4r",
                  std::make_unique<core::PresentTarget>(4)});
  rows.push_back({"present80, 4 rounds, rel-key", "present_4r_rk",
                  std::make_unique<core::PresentTarget>(
                      4, std::vector<std::uint64_t>{0x1ULL, 0x10ULL},
                      DiffSite::kRelatedKey)});
  rows.push_back({"chaskey, 2 rounds", "chaskey_2r",
                  std::make_unique<core::ChaskeyTarget>(2)});
  rows.push_back({"chaskey, 3 rounds", "chaskey_3r",
                  std::make_unique<core::ChaskeyTarget>(3)});
  rows.push_back({"chaskey, 3 rounds, rel-key", "chaskey_3r_rk",
                  std::make_unique<core::ChaskeyTarget>(
                      3, std::vector<std::uint64_t>{0x1ULL, 0x80000000ULL},
                      DiffSite::kRelatedKey)});

  util::JsonBuilder json;
  json.raw("options", bench::options_json(opt))
      .field("base_inputs", static_cast<std::uint64_t>(base_inputs))
      .field("epochs", epochs);

  std::printf("%-32s %-10s %-10s %-10s\n", "primitive", "accuracy", "1/t",
              "usable");
  bench::print_rule();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& target = *rows[i].target;
    util::Xoshiro256 rng(opt.seed + i);
    auto model = core::build_default_mlp(target.output_bytes() * 8,
                                         target.num_differences(), rng);
    core::ExperimentConfig config;
    config.epochs = epochs;
    config.seed = opt.seed ^ (i * 104729);
    core::MLDistinguisher dist(std::move(model), config);
    util::Timer timer;
    const core::TrainReport rep = dist.train(target, base_inputs);
    const double p0 = 1.0 / static_cast<double>(target.num_differences());
    std::printf("%-32s %-10.4f %-10.4f %-10s (%.1fs)\n", rows[i].label.c_str(),
                rep.val_accuracy, p0, rep.usable ? "yes" : "no",
                timer.seconds());
    json.field(rows[i].slug + "_accuracy", rep.val_accuracy)
        .field(rows[i].slug + "_advantage", rep.val_accuracy - p0)
        .field(rows[i].slug + "_usable", rep.usable);
  }
  bench::print_rule();
  std::printf("expected: round-reduced targets usable, full-strength ones "
              "(trivium@1152) not.\n");
  bench::write_bench_json("ext_ciphers", json);
  return 0;
}
