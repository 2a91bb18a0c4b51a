// Table 3: manual architecture search on 8-round Gimli-Cipher.
//
// Paper setup: 2^17 training samples, 5 epochs, Nvidia Quadro RTX 8000.
// Ten architectures (six MLPs, two LSTMs, two CNNs); columns: #parameters,
// training time, accuracy.  Our reproduction runs the same stacks on a
// CPU with per-family sample budgets in quick mode (wall-clock times are
// not comparable to the paper's GPU; the ORDERING — MLP > LSTM > CNN in
// accuracy, LSTM ~10x slower to train than MLP — is the target).
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "core/distinguisher.hpp"
#include "core/targets.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mldist;
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header("Table 3 - manual architecture search, 8-round "
                      "Gimli-Cipher", opt);

  // Paper setting: 8 rounds, 2^17 samples.  At quick CPU budgets the
  // 8-round signal is below the noise floor for every architecture, which
  // would flatten the whole table to 0.5; quick mode therefore uses 7
  // rounds, where the MLP > LSTM > CNN ordering is visible with thousands
  // of samples.  --full restores the paper's 8-round setting.
  const int rounds = opt.full ? 8 : 7;
  const core::GimliCipherTarget target(rounds);
  const int epochs = opt.epochs(2, 5);
  std::printf("target: %s (paper: 8 rounds at 2^17 samples)\n",
              target.name().c_str());

  mldist::bench::CsvWriter csv("table3_archsearch",
      "network,params,paper_params,time_s,paper_time_s,accuracy,paper_accuracy,samples");
  std::printf("%-9s %-11s %-11s %-9s %-9s %-8s %-8s %-7s\n", "network",
              "params", "paper_par", "time_s", "paper_t", "acc", "paper_a",
              "samples");
  bench::print_rule();

  for (const auto& info : core::table3_architectures()) {
    // Per-family budgets: LSTMs/CNNs are far more expensive per sample.
    std::size_t base_inputs = opt.full ? 65536 : 3000;
    if (info.name.rfind("LSTM", 0) == 0) base_inputs = opt.full ? 16384 : 500;
    if (info.name == "CNN I") base_inputs = opt.full ? 16384 : 400;
    if (info.name == "CNN II") base_inputs = opt.full ? 8192 : 160;

    util::Xoshiro256 rng(opt.seed);
    auto model = core::build_architecture(info.name, 128, 2, rng);
    const std::size_t params = model->param_count();

    core::ExperimentConfig config;
    config.epochs = epochs;
    config.batch_size = 128;
    config.seed = opt.seed ^ 0x7ab1e3;
    core::MLDistinguisher dist(std::move(model), config);

    util::Timer timer;
    const core::TrainReport rep = dist.train(target, base_inputs);
    const double secs = timer.seconds();

    std::printf("%-9s %-11zu %-11zu %-9.1f %-9.1f %-8.4f %-8.4f %-7zu%s\n",
                info.name.c_str(), params, info.paper_params, secs,
                info.paper_time_s, rep.val_accuracy, info.paper_accuracy,
                base_inputs * 2,
                info.params_should_match &&
                        (params > info.paper_params + 2 ||
                         params + 2 < info.paper_params)
                    ? "  [param mismatch]"
                    : "");
    csv.rowf("%s,%zu,%zu,%.1f,%.1f,%.4f,%.4f,%zu", info.name.c_str(), params,
             info.paper_params, secs, info.paper_time_s, rep.val_accuracy,
             info.paper_accuracy, base_inputs * 2);
  }
  bench::print_rule();
  std::printf("notes:\n");
  std::printf("  * MLP params match the paper exactly (MLP III/VI print\n");
  std::printf("    1,200,256 in the paper, a 2-param typo for 1,200,258).\n");
  std::printf("  * CNN/LSTM kernel sizes and reshapes are unspecified in the\n");
  std::printf("    paper; our counts differ, paper values shown alongside.\n");
  std::printf("  * paper times are on an RTX 8000 GPU; ours are CPU.\n");
  return 0;
}
