// Robustness soak (ISSUE 2): the Gimli-Hash pipeline end-to-end under
// injected faults.
//
// Four scenarios, all on the same config and seed:
//   1. clean/unguarded   - health checks off: the pre-robustness baseline.
//   2. clean/guarded     - health checks on: measures the guard overhead
//                          (the accuracies must match scenario 1 exactly,
//                          since attempt 1 uses the unchanged shuffle
//                          stream).
//   3. forced divergence - a weight is poisoned to NaN mid-training on the
//                          first attempt; the retry policy must roll back
//                          to the best checkpoint and recover.
//   4. degradation       - the poison outlives the retry budget; training
//                          must degrade to the linear baseline and the
//                          online game must still return a verdict.
// Scenario 2's distinguisher then plays the online game against a cipher
// oracle wrapped in FaultyOracle (drops, bit flips, latency spikes), so the
// inference path is soaked too.
//
// The artifact results/BENCH_robustness.json records the recovery counts,
// the guard overhead ratio and the fault counters.
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/distinguisher.hpp"
#include "core/experiment.hpp"
#include "core/fault_injection.hpp"
#include "core/oracle.hpp"
#include "core/targets.hpp"
#include "util/timer.hpp"

namespace {

using namespace mldist;

struct Scenario {
  std::string name;
  core::TrainReport report;
  double train_seconds = 0.0;
  bool degraded = false;
};

std::string scenario_json(const Scenario& s) {
  util::JsonBuilder j;
  j.field("name", s.name)
      .field("train_seconds", s.train_seconds)
      .field("val_accuracy", s.report.val_accuracy)
      .field("usable", s.report.usable)
      .field("degraded", s.degraded)
      .raw("robustness", s.report.robustness.to_json());
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header("Robustness soak - Gimli-Hash under injected faults",
                      opt);

  core::ExperimentConfig config;
  config.target = "gimli-hash";
  config.rounds = opt.full ? 7 : 2;
  config.epochs = opt.epochs(4, 6);
  config.seed = opt.seed;
  config.threads = opt.threads;
  config.offline_base_inputs = opt.base(600, 8000);
  config.online_base_inputs = config.offline_base_inputs / 2;
  const auto target = config.make_target();
  std::printf("target: %s/%d   base inputs: %zu   epochs: %d\n",
              config.target.c_str(), config.rounds,
              config.offline_base_inputs, config.epochs);
  bench::print_rule();

  const auto run = [&](const char* name,
                       const core::ExperimentConfig& scenario) {
    Scenario s;
    s.name = name;
    core::MLDistinguisher dist(*target, scenario);
    const util::Timer timer;
    s.report = dist.train(*target, config.offline_base_inputs);
    s.train_seconds = timer.seconds();
    s.degraded = dist.degraded();
    const auto& rob = s.report.robustness;
    std::printf("%-20s %7.2fs  val acc %.4f  attempts %d  rollbacks %d%s\n",
                name, s.train_seconds, s.report.val_accuracy, rob.attempts,
                rob.rollbacks, s.degraded ? "  [DEGRADED]" : "");
    return s;
  };

  // 1. Clean, guards off: the pre-robustness fit path.
  core::ExperimentConfig unguarded = config;
  unguarded.health_checks = false;
  const Scenario clean = run("clean/unguarded", unguarded);

  // 2. Clean, guards on: same run with the health monitor watching every
  //    batch and epoch.  Accuracy must be bitwise identical to scenario 1.
  const Scenario watched = run("clean/guarded", config);
  const double overhead =
      clean.train_seconds > 0.0 ? watched.train_seconds / clean.train_seconds
                                : 0.0;
  const bool accuracy_identical =
      clean.report.val_accuracy == watched.report.val_accuracy;

  // 3. Forced divergence on attempt 1 only: rollback + retry recovers.
  core::ExperimentConfig diverging = config;
  diverging.faults.poison_weight_epoch = 2;
  diverging.faults.poison_max_attempts = 1;
  const Scenario recovered = run("forced divergence", diverging);

  // 4. Poison every attempt: the retry budget runs out and the run degrades
  //    to the linear baseline instead of failing.
  core::ExperimentConfig exhausted = config;
  exhausted.faults.poison_weight_epoch = 1;
  exhausted.faults.poison_max_attempts = 1000;
  exhausted.max_retries = 2;
  const Scenario degraded = run("degradation", exhausted);
  bench::print_rule();

  std::printf("guard overhead: %.2fx wall time, accuracies %s\n", overhead,
              accuracy_identical ? "identical" : "DIFFER");

  // --- online game under a faulty oracle ----------------------------------
  // Re-train the guarded distinguisher (train reports are stateless between
  // scenarios) and soak its inference path.
  core::MLDistinguisher dist(*target, config);
  (void)dist.train(*target, config.offline_base_inputs);
  util::FaultConfig oracle_faults;
  oracle_faults.drop_prob = 0.05;
  oracle_faults.bit_flip_prob = 0.01;
  oracle_faults.latency_spike_prob = 0.001;
  oracle_faults.latency_spike_us = 50;
  const core::CipherOracle cipher(*target);
  const core::FaultyOracle faulty(cipher, oracle_faults);
  const core::OnlineReport online =
      dist.test(faulty, config.online_base_inputs);
  const auto counters = faulty.counters();
  std::printf("online under faults: a' = %.4f -> %s  (queries %llu, drops "
              "%llu, bit flips %llu, latency spikes %llu)\n",
              online.accuracy, core::verdict_name(online.verdict),
              static_cast<unsigned long long>(counters.queries),
              static_cast<unsigned long long>(counters.drops),
              static_cast<unsigned long long>(counters.bit_flips),
              static_cast<unsigned long long>(counters.latency_spikes));

  // An occasional corrupted answer must not flip the verdict at this fault
  // rate; a wrong verdict fails the soak.
  const bool online_ok = online.verdict == core::Verdict::kCipher;
  const bool recovery_ok = recovered.report.robustness.rollbacks >= 1 &&
                           !recovered.degraded;
  const bool degradation_ok = degraded.degraded;
  const bool pass =
      accuracy_identical && online_ok && recovery_ok && degradation_ok;
  std::printf("soak verdict: %s\n", pass ? "PASS" : "FAIL");

  // --- artifact -----------------------------------------------------------
  util::JsonBuilder online_json;
  online_json.field("accuracy", online.accuracy)
      .field("verdict", core::verdict_name(online.verdict))
      .field("samples", online.samples)
      .raw("fault_config", oracle_faults.to_json())
      .field("queries", counters.queries)
      .field("drops", counters.drops)
      .field("bit_flips", counters.bit_flips)
      .field("latency_spikes", counters.latency_spikes);

  util::JsonBuilder artifact;
  artifact.raw("options", bench::options_json(opt))
      .raw("config", config.to_json())
      .raw("scenarios",
           util::JsonBuilder::array({scenario_json(clean),
                                     scenario_json(watched),
                                     scenario_json(recovered),
                                     scenario_json(degraded)}))
      .field("guard_overhead_ratio", overhead)
      .field("guarded_accuracy_identical", accuracy_identical)
      .raw("online_under_faults", online_json.str())
      .field("pass", pass);
  bench::write_bench_json("robustness", artifact);
  std::printf("artifact: results/BENCH_robustness.json\n");
  return pass ? 0 : 1;
}
