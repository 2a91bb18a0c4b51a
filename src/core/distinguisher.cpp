#include "core/distinguisher.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>

#include "core/linear_baseline.hpp"
#include "core/targets.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#include <unistd.h>

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

/// A collision-free checkpoint path under the temp directory for callers
/// that did not configure one (pid + process-local counter: concurrent
/// trainings, in this process or in parallel ctest jobs, never clash).
std::string auto_checkpoint_path(std::uint64_t seed) {
  static std::atomic<unsigned> counter{0};
  char name[96];
  std::snprintf(name, sizeof(name), "mldist-ckpt-%llx-%d-%u.nnb",
                static_cast<unsigned long long>(seed),
                static_cast<int>(::getpid()),
                counter.fetch_add(1, std::memory_order_relaxed));
  return (std::filesystem::temp_directory_path() / name).string();
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

DistinguisherOptions::DistinguisherOptions(const ExperimentConfig& config)
    : epochs(config.epochs),
      batch_size(config.batch_size),
      learning_rate(config.learning_rate),
      validation_fraction(config.validation_fraction),
      z_threshold(config.z_threshold),
      seed(config.seed),
      threads(config.threads),
      on_epoch(config.on_epoch) {
  retry.max_attempts = config.max_retries;
  retry.lr_backoff = config.lr_backoff;
  retry.checkpoint_path = config.checkpoint_path;
}

CollectOptions DistinguisherOptions::collect_options(
    std::uint64_t stream_seed) const {
  CollectOptions c;
  c.seed = stream_seed;
  c.threads = threads;
  return c;
}

nn::FitOptions DistinguisherOptions::fit_options(
    std::uint64_t shuffle_seed, const nn::Dataset* validation) const {
  nn::FitOptions fit;
  fit.epochs = epochs;
  fit.batch_size = batch_size;
  fit.shuffle_seed = shuffle_seed;
  fit.validation = validation;
  if (on_epoch) {
    // Forward by reference: the closure state lives once, in this options
    // struct, not duplicated into every FitOptions built from it.
    fit.on_epoch = [cb = &on_epoch](const nn::EpochStats& s) { (*cb)(s); };
  }
  return fit;
}

MLDistinguisher::MLDistinguisher(std::unique_ptr<nn::Sequential> model,
                                 DistinguisherOptions options)
    : model_(std::move(model)), options_(std::move(options)) {
  if (!model_) throw std::invalid_argument("MLDistinguisher: null model");
}

MLDistinguisher::MLDistinguisher(const Target& target,
                                 const ExperimentConfig& config)
    : MLDistinguisher(config.make_model(target),
                      DistinguisherOptions(config)) {}

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
                                  options_.validation_fraction));
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
      options_.collect_options(
          util::derive_stream_seed(options_.seed, kOfflineTrainStream)),
      &collect_tel);
  const nn::Dataset val_set = collect_dataset(
      target, val_base,
      options_.collect_options(
          util::derive_stream_seed(options_.seed, kOfflineValStream)),
      &val_tel);
  collect_tel.seconds += val_tel.seconds;
  collect_tel.queries += val_tel.queries;
  collect_tel.rows += val_tel.rows;

  // Fault-tolerant fit: every attempt checkpoints its best-validation
  // epoch; a divergence rolls back to that checkpoint and retries with a
  // backed-off learning rate and a fresh shuffle stream.
  const bool auto_ckpt = options_.retry.checkpoint_path.empty();
  CheckpointManager ckpt(auto_ckpt ? auto_checkpoint_path(options_.seed)
                                   : options_.retry.checkpoint_path);
  RobustnessTelemetry rob;
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  nn::EpochStats stats;
  bool trained = false;
  float lr = options_.learning_rate;
  status.set_phase("fit");
  const util::Timer fit_timer;
  for (int attempt = 1; attempt <= max_attempts && !trained; ++attempt) {
    obs::Span attempt_span("fit.attempt", "core");
    attempt_span.arg("attempt", attempt);
    rob.attempts = attempt;
    nn::Adam opt(lr);
    nn::HealthMonitor monitor(options_.health);
    // Attempt 1 uses the pre-robustness shuffle stream, so clean runs stay
    // bitwise identical to earlier versions; retries draw fresh streams.
    const std::uint64_t shuffle_stream =
        kShuffleStream + static_cast<std::uint64_t>(attempt - 1);
    nn::FitOptions fit = options_.fit_options(
        util::derive_stream_seed(options_.seed, shuffle_stream), &val_set);
    if (options_.health_checks) fit.health = &monitor;
    const auto forward_cb = fit.on_epoch;
    fit.on_epoch = [&, attempt](const nn::EpochStats& s) {
      obs::RunStatus::global().set_epoch(s.epoch);
      if (forward_cb) forward_cb(s);
      if (s.val_accuracy) ckpt.update(*model_, *s.val_accuracy);
      // Injected training fault (tests / soak bench): poison a weight
      // after the checkpoint so the next epoch diverges and the rollback
      // restores this epoch's healthy state.
      if (options_.faults.poison_weight_epoch > 0 &&
          attempt <= options_.faults.poison_max_attempts &&
          s.epoch == options_.faults.poison_weight_epoch) {
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
      lr *= options_.retry.lr_backoff;
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
    sopt.epochs = std::max(1, options_.epochs);
    sopt.seed = util::derive_stream_seed(options_.seed, kBaselineStream);
    train_report_.train_accuracy = baseline_->fit(train_set, sopt);
    train_report_.val_accuracy = baseline_->accuracy(val_set);
    train_report_.train_loss = 0.0;
  }
  train_report_.robustness = rob;
  train_report_.samples = train_set.size() + val_set.size();
  train_report_.collect = collect_tel;
  train_report_.fit.seconds = fit_timer.seconds();
  train_report_.fit.rows =
      train_set.size() * static_cast<std::size_t>(std::max(0, options_.epochs));
  train_report_.fit.threads = util::ThreadPool::global().thread_count();
  train_report_.seconds_per_epoch =
      options_.epochs > 0
          ? train_report_.fit.seconds / static_cast<double>(options_.epochs)
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
  train_report_.usable = z > options_.z_threshold;
  if (auto_ckpt) ckpt.remove_file();
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
                                   std::uint64_t seed) const {
  if (t_ == 0) {
    throw std::logic_error("MLDistinguisher::test called before train");
  }
  if (oracle.num_differences() != t_) {
    throw std::invalid_argument("MLDistinguisher: oracle t mismatch");
  }
  const std::uint64_t stream =
      seed != 0 ? seed : (options_.seed ^ 0x0417e57ULL);

  obs::Span test_span("test", "core");
  test_span.arg("base_inputs", static_cast<std::uint64_t>(base_inputs));
  obs::RunStatus::global().set_phase("online_collect");
  OnlineReport rep;
  const nn::Dataset online = collect_dataset(
      oracle, base_inputs, options_.collect_options(stream), &rep.collect);

  obs::RunStatus::global().set_phase("predict");
  const util::Timer predict_timer;
  // Degraded mode: the neural fit never converged, so score with the
  // linear-baseline fallback instead of the (unusable) network.
  const std::vector<int> pred =
      baseline_ != nullptr
          ? baseline_->predict(online.x)
          : model_->predict(online.x, /*batch_size=*/512, options_.threads);
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
  if (se > 0.0 && (a - p0) > options_.z_threshold * se) {
    return online_accuracy > p0 + 0.5 * (a - p0) ? Verdict::kCipher
                                                 : Verdict::kRandom;
  }
  // Underpowered game: only a significant positive excursion over 1/t can
  // still be called; anything else is inconclusive.
  const std::size_t hits = static_cast<std::size_t>(
      std::lround(online_accuracy * static_cast<double>(online_samples)));
  const double z_random = util::binomial_z_score(hits, online_samples, p0);
  if (z_random > options_.z_threshold) return Verdict::kCipher;
  return Verdict::kInconclusive;
}

void MLDistinguisher::adopt_train_report(const TrainReport& report,
                                         std::size_t t) {
  train_report_ = report;
  t_ = t;
  baseline_.reset();
}

}  // namespace mldist::core
