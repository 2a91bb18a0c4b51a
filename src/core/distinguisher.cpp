#include "core/distinguisher.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/linear_baseline.hpp"
#include "core/targets.hpp"
#include "nn/optimizer.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mldist::core {

namespace {
// Stream indices expanding the experiment seed into the independent RNG
// streams of the pipeline phases (util::derive_stream_seed).  Part of the
// reproducibility contract: a report is a pure function of (options, these
// constants), never of the worker count.
constexpr std::uint64_t kOfflineTrainStream = 0x0ff1a0ULL;
constexpr std::uint64_t kOfflineValStream = 0x0ff1a1ULL;
constexpr std::uint64_t kShuffleStream = 0x5aff1eULL;
constexpr std::uint64_t kBaselineStream = 0xba5e11eULL;

/// The data-engine options for a phase whose chunk streams are keyed on
/// `stream_seed`.
CollectOptions collect_options(const ExperimentConfig& config,
                               std::uint64_t stream_seed) {
  return {.seed = stream_seed, .threads = config.threads};
}

/// The training fault injector: set one weight to NaN so the next forward
/// pass produces a non-finite loss for the health guard to catch.
void poison_first_weight(nn::Sequential& model) {
  const auto params = model.params();
  if (!params.empty() && params.front().size > 0) {
    params.front().value[0] = std::numeric_limits<float>::quiet_NaN();
  }
}
}  // namespace

MLDistinguisher::MLDistinguisher(std::unique_ptr<nn::Sequential> model,
                                 ExperimentConfig config)
    : model_(std::move(model)), config_(std::move(config)) {
  if (!model_) throw std::invalid_argument("MLDistinguisher: null model");
}

MLDistinguisher::MLDistinguisher(const Target& target,
                                 const ExperimentConfig& config)
    : MLDistinguisher(config.make_model(target), config) {}

MLDistinguisher::~MLDistinguisher() = default;

TrainReport MLDistinguisher::train(const Target& target,
                                   std::size_t base_inputs) {
  t_ = target.num_differences();
  baseline_.reset();
  obs::Span train_span("train", "core");
  train_span.arg("base_inputs", static_cast<std::uint64_t>(base_inputs))
      .arg("t", static_cast<std::uint64_t>(t_));

  const std::size_t val_base = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(base_inputs) *
                                  config_.validation_fraction));
  const std::size_t train_base =
      base_inputs > val_base ? base_inputs - val_base : 1;

  // Live status for /runz: which phase the pipeline is in, which epoch the
  // fit has reached.  Purely observational — never read back by the run.
  obs::RunStatus& status = obs::RunStatus::global();
  status.set_phase("offline_collect");
  status.set_epoch(0);

  PhaseTelemetry collect_tel;
  PhaseTelemetry val_tel;
  const nn::Dataset train_set = collect_dataset(
      target, train_base,
      collect_options(config_, util::derive_stream_seed(config_.seed,
                                                        kOfflineTrainStream)),
      &collect_tel);
  const nn::Dataset val_set = collect_dataset(
      target, val_base,
      collect_options(config_, util::derive_stream_seed(config_.seed,
                                                        kOfflineValStream)),
      &val_tel);
  collect_tel.seconds += val_tel.seconds;
  collect_tel.queries += val_tel.queries;
  collect_tel.rows += val_tel.rows;

  // Fault-tolerant fit: every attempt checkpoints its best-validation
  // epoch; a divergence rolls back to that checkpoint and retries with a
  // backed-off learning rate and a fresh shuffle stream.
  CheckpointManager ckpt;
  RobustnessTelemetry rob;
  const int max_attempts = std::max(1, config_.max_retries);
  nn::EpochStats stats;
  bool trained = false;
  float lr = config_.learning_rate;
  status.set_phase("fit");
  const util::Timer fit_timer;
  for (int attempt = 1; attempt <= max_attempts && !trained; ++attempt) {
    obs::Span attempt_span("fit.attempt", "core");
    attempt_span.arg("attempt", attempt);
    rob.attempts = attempt;
    nn::Adam opt(lr);
    nn::HealthMonitor monitor;
    nn::FitOptions fit;
    fit.epochs = config_.epochs;
    fit.batch_size = config_.batch_size;
    fit.threads = config_.threads;
    // Attempt 1 uses the pre-robustness shuffle stream, so clean runs stay
    // bitwise identical to earlier versions; retries draw fresh streams.
    fit.shuffle_seed = util::derive_stream_seed(
        config_.seed, kShuffleStream + static_cast<std::uint64_t>(attempt - 1));
    fit.validation = &val_set;
    if (config_.health_checks) fit.health = &monitor;
    fit.on_epoch = [&, attempt](const nn::EpochStats& s) {
      obs::RunStatus::global().set_epoch(s.epoch);
      if (config_.on_epoch) config_.on_epoch(s);
      if (s.val_accuracy) ckpt.update(*model_, *s.val_accuracy);
      // Injected training fault (tests / soak bench): poison a weight
      // after the checkpoint so the next epoch diverges and the rollback
      // restores this epoch's healthy state.
      if (config_.faults.poison_weight_epoch > 0 &&
          attempt <= config_.faults.poison_max_attempts &&
          s.epoch == config_.faults.poison_weight_epoch) {
        poison_first_weight(*model_);
      }
    };
    try {
      stats = model_->fit(train_set, opt, fit);
      trained = true;
    } catch (const nn::TrainingDiverged& e) {
      ++rob.divergences;
      rob.last_fault = e.what();
      model_->zero_grad();  // the aborted batch left gradients accumulated
      if (ckpt.has_checkpoint()) {
        ckpt.restore(*model_);
        ++rob.rollbacks;
      }
      lr *= config_.lr_backoff;
    }
  }

  train_report_ = TrainReport{};
  if (trained) {
    train_report_.train_accuracy = stats.train_accuracy;
    train_report_.val_accuracy = stats.val_accuracy.value_or(0.0);
    train_report_.train_loss = stats.train_loss;
  } else {
    // Retries exhausted: degrade to the linear baseline classifier so the
    // online game still gets a usable verdict (recorded in the telemetry).
    rob.degraded_to_baseline = true;
    baseline_ = std::make_unique<LinearSvm>(train_set.x.cols(), t_);
    LinearSvmOptions sopt;
    sopt.epochs = std::max(1, config_.epochs);
    sopt.seed = util::derive_stream_seed(config_.seed, kBaselineStream);
    train_report_.train_accuracy = baseline_->fit(train_set, sopt);
    train_report_.val_accuracy = baseline_->accuracy(val_set);
    train_report_.train_loss = 0.0;
  }
  train_report_.robustness = rob;
  train_report_.samples = train_set.size() + val_set.size();
  train_report_.collect = collect_tel;
  train_report_.fit.seconds = fit_timer.seconds();
  train_report_.fit.rows =
      train_set.size() * static_cast<std::size_t>(std::max(0, config_.epochs));
  train_report_.fit.threads = util::ThreadPool::global().width(config_.threads);
  train_report_.seconds_per_epoch =
      config_.epochs > 0
          ? train_report_.fit.seconds / static_cast<double>(config_.epochs)
          : 0.0;
  // Each base input costs t+1 oracle queries (the base and its t partners).
  train_report_.log2_data =
      std::log2(static_cast<double>(base_inputs * (t_ + 1)));
  // Algorithm 2 line 12: proceed only when a > 1/t.  With finite data we
  // ask for a z_threshold-sigma margin on the validation set.
  const std::size_t val_rows = val_set.size();
  const double z = util::binomial_z_score(
      static_cast<std::size_t>(std::lround(train_report_.val_accuracy *
                                           static_cast<double>(val_rows))),
      val_rows, util::random_guess_accuracy(t_));
  train_report_.usable = z > config_.z_threshold;
  // Re-emit the report's telemetry as registry views (DESIGN.md §10): the
  // JSON built from the structs is unchanged; the metrics snapshot becomes
  // a superset of it.
  train_report_.collect.publish("offline_collect");
  train_report_.fit.publish("fit");
  train_report_.robustness.publish();
  status.set_phase("idle");
  return train_report_;
}

OnlineReport MLDistinguisher::test(const Oracle& oracle,
                                   std::size_t base_inputs,
                                   std::optional<std::uint64_t> seed) const {
  if (t_ == 0) {
    throw std::logic_error("MLDistinguisher::test called before train");
  }
  if (oracle.num_differences() != t_) {
    throw std::invalid_argument("MLDistinguisher: oracle t mismatch");
  }
  const std::uint64_t stream = seed.value_or(config_.seed ^ 0x0417e57ULL);

  obs::Span test_span("test", "core");
  test_span.arg("base_inputs", static_cast<std::uint64_t>(base_inputs));
  obs::RunStatus::global().set_phase("online_collect");
  OnlineReport rep;
  const nn::Dataset online = collect_dataset(
      oracle, base_inputs, collect_options(config_, stream), &rep.collect);

  obs::RunStatus::global().set_phase("predict");
  const util::Timer predict_timer;
  // Degraded mode: the neural fit never converged, so score with the
  // linear-baseline fallback instead of the (unusable) network.
  const std::vector<int> pred =
      baseline_ != nullptr
          ? baseline_->predict(online.x)
          : model_->predict(online.x, /*batch_size=*/512, config_.threads);
  rep.predict.seconds = predict_timer.seconds();
  rep.predict.rows = pred.size();
  rep.predict.threads = rep.collect.threads;

  std::size_t hits = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == online.y[i]) ++hits;
  }
  rep.samples = pred.size();
  rep.accuracy = static_cast<double>(hits) / static_cast<double>(pred.size());
  rep.log2_data = std::log2(static_cast<double>(base_inputs * (t_ + 1)));
  rep.z_vs_random = util::binomial_z_score(hits, pred.size(),
                                           util::random_guess_accuracy(t_));
  rep.verdict = decide(rep.accuracy, rep.samples);
  rep.collect.publish("online_collect");
  rep.predict.publish("predict");
  obs::RunStatus::global().set_phase("idle");
  return rep;
}

Verdict MLDistinguisher::decide(double online_accuracy,
                                std::size_t online_samples) const {
  const double p0 = util::random_guess_accuracy(t_);
  const double a = train_report_.val_accuracy;
  const double se =
      std::sqrt(p0 * (1.0 - p0) / static_cast<double>(online_samples));
  // The paper's rule compares a' against a (CIPHER) and 1/t (RANDOM).
  // When the training advantage a - 1/t is resolvable at this online
  // sample size, the midpoint between the two hypotheses is the
  // maximum-likelihood threshold.
  if (se > 0.0 && (a - p0) > config_.z_threshold * se) {
    return online_accuracy > p0 + 0.5 * (a - p0) ? Verdict::kCipher
                                                 : Verdict::kRandom;
  }
  // Underpowered game: only a significant positive excursion over 1/t can
  // still be called; anything else is inconclusive.
  const std::size_t hits = static_cast<std::size_t>(
      std::lround(online_accuracy * static_cast<double>(online_samples)));
  const double z_random = util::binomial_z_score(hits, online_samples, p0);
  if (z_random > config_.z_threshold) return Verdict::kCipher;
  return Verdict::kInconclusive;
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kCipher: return "cipher";
    case Verdict::kRandom: return "random";
    case Verdict::kInconclusive: return "inconclusive";
  }
  return "unknown";
}

void MLDistinguisher::adopt_train_report(const TrainReport& report,
                                         std::size_t t) {
  train_report_ = report;
  t_ = t;
  baseline_.reset();
}

}  // namespace mldist::core
