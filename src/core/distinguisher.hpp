// Algorithm 2 of the paper: the machine-learning-assisted differential
// distinguisher.
//
// Offline: collect t-class training data from the (round-reduced) cipher,
// train a classifier, record the training/validation accuracy a.  Abort if
// a is not significantly above 1/t.
//
// Online: query the unknown ORACLE, predict classes for its output
// differences and tally the prediction accuracy a'.  Decide CIPHER when a'
// is statistically closer to a than to 1/t (the paper states the rule as
// a' = a vs a' = 1/t; with finite samples we compare binomial z-scores).
//
// Both phases run on the parallel data engine (core/dataset): collection
// fans out over derived per-chunk RNG streams and scoring over fixed
// batches, so reports are bitwise identical for any `threads` setting.
#pragma once

#include <memory>
#include <optional>

#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/oracle.hpp"
#include "core/telemetry.hpp"
#include "nn/model.hpp"

namespace mldist::core {

class LinearSvm;

enum class Verdict { kCipher, kRandom, kInconclusive };

/// "cipher", "random" or "inconclusive": the one spelling of a verdict in
/// every artifact (campaign payloads, history lines, bench JSON, CLI).
const char* verdict_name(Verdict verdict);

struct TrainReport {
  double train_accuracy = 0.0;  ///< a, on the training split
  double val_accuracy = 0.0;    ///< a on held-out data (used for decisions)
  double train_loss = 0.0;
  std::size_t samples = 0;      ///< labelled rows seen (base inputs * t)
  double log2_data = 0.0;       ///< log2 of oracle queries spent offline
  bool usable = false;          ///< a > 1/t with margin (Algorithm 2 line 12)
  PhaseTelemetry collect;       ///< offline data generation (train + val)
  PhaseTelemetry fit;           ///< training; rows = samples seen over epochs
  double seconds_per_epoch = 0.0;
  RobustnessTelemetry robustness;  ///< retry/rollback/degradation record
};

struct OnlineReport {
  double accuracy = 0.0;  ///< a' over the online predictions
  std::size_t samples = 0;
  double log2_data = 0.0;
  double z_vs_random = 0.0;  ///< z-score of a' against 1/t
  Verdict verdict = Verdict::kInconclusive;
  PhaseTelemetry collect;    ///< online data generation
  PhaseTelemetry predict;    ///< batched model scoring
};

/// Owns the model and the Algorithm 2 phases for one target.
class MLDistinguisher {
 public:
  /// `model` must map output_bytes*8 features to t logits.  Everything
  /// else (training, the decision threshold, retries, injected faults) is
  /// read from `config`, which the distinguisher keeps.
  MLDistinguisher(std::unique_ptr<nn::Sequential> model,
                  ExperimentConfig config = {});

  /// Build the model with config.make_model(target).
  MLDistinguisher(const Target& target, const ExperimentConfig& config);

  ~MLDistinguisher();

  /// Offline phase: collect `base_inputs` queries from the cipher, train.
  /// Fault-tolerant: divergences detected by the numeric-health guard roll
  /// the model back to its best in-memory checkpoint and retry with a
  /// backed-off learning rate (config max_retries, lr_backoff); when all
  /// attempts fail the distinguisher degrades to the linear baseline
  /// classifier and the report's robustness telemetry records the
  /// degradation.  The fit runs under the config's `threads` cap.
  TrainReport train(const Target& target, std::size_t base_inputs);

  /// Online phase against an unknown oracle; needs a prior train().
  /// `seed` keys the online query stream so repeated games are independent;
  /// without one the stream derives from the config's seed.  Every value,
  /// 0 included, is a stream of its own.
  OnlineReport test(const Oracle& oracle, std::size_t base_inputs,
                    std::optional<std::uint64_t> seed = std::nullopt) const;

  /// Decision rule given the recorded training accuracy.
  Verdict decide(double online_accuracy, std::size_t online_samples) const;

  /// Install a train report recorded elsewhere (and the class count `t` it
  /// was produced with) without running train(): the campaign's
  /// snapshot-resume path, and mldist_cli test's calibration of a loaded
  /// model.  The caller is responsible for loading the matching model
  /// parameters first; test()/decide() then behave exactly as if this
  /// process had trained the model itself.  Clears any degraded-baseline
  /// state.
  void adopt_train_report(const TrainReport& report, std::size_t t);

  nn::Sequential& model() { return *model_; }
  const TrainReport& last_train() const { return train_report_; }
  /// True when training exhausted its retries and the online phase now runs
  /// on the linear baseline classifier instead of the neural model.
  bool degraded() const { return baseline_ != nullptr; }

 private:
  std::unique_ptr<nn::Sequential> model_;
  ExperimentConfig config_;
  TrainReport train_report_;
  std::size_t t_ = 0;
  std::unique_ptr<LinearSvm> baseline_;  ///< set when degraded
};

}  // namespace mldist::core
