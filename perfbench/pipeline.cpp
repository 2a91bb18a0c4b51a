// Workloads "paper-pipeline" and "online-games": Algorithm 2 of the paper on
// 7-round Gimli-Cipher with the default MLP.  The budget (8000 offline
// base inputs, 3 epochs, 6 games of 2500 online base inputs) is about a
// fifth of bench/online_game.cpp's quick budget, so that a run times a
// dozen pipelines or more; fit is still most of a pipeline.  The 8-round
// quick budget takes Algorithm 2's abort branch, so the workload is pinned
// at 7 rounds.
//
// paper-pipeline: each unit is one whole pipeline, timed from the first
//   offline query (MLDistinguisher::train) to the last verdict of its
//   play_games tournament, back to back.  Fit's GEMMs fan out over
//   util::ThreadPool::global(), which takes one caller at a time, so
//   pipelines must not run side by side in one process.  Set-up is
//   building the target and the distinguisher.
// online-games: training is set-up; each unit is one game against a
//   referee-chosen CIPHER/RANDOM oracle, played by one of kLoadThreads client
//   threads on the shared distinguisher.  A game played with threads = 1
//   runs its GEMMs inline, so the clients never share the global pool.
#include <cmath>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/distinguisher.hpp"
#include "core/experiment.hpp"
#include "core/online_game.hpp"
#include "core/targets.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace mldist;

// z of the Wilson interval the mean RANDOM-oracle accuracy must fall in.
// At z = 4 a correct program fails the check about once in 16000 checks.
constexpr double kWilsonZ = 4.0;
// Even a short run times this many pipelines, so the median has a middle.
constexpr std::uint64_t kMinPipelines = 3;

core::ExperimentConfig pipeline_config(const Args& args, std::uint64_t seed) {
  core::ExperimentConfig c;
  c.target = "gimli-cipher";
  c.rounds = 7;
  c.arch = "default-mlp";
  c.offline_base_inputs = args.smoke ? 4000 : 8000;
  c.epochs = args.smoke ? 2 : 3;
  c.online_base_inputs = args.smoke ? 1000 : 2500;
  c.games = args.smoke ? 4 : 6;
  // As bench/online_game.cpp: decide at 2.5 sigma, measure a on a quarter
  // of the offline data.
  c.z_threshold = 2.5;
  c.validation_fraction = 0.25;
  c.seed = seed;
  c.threads = 0;  // the library default: every core
  return c;
}

/// Wilson score interval of proportion p at n trials.
bool inside_wilson(double observed, double p, double n) {
  const double z2 = kWilsonZ * kWilsonZ;
  const double denom = 1.0 + z2 / n;
  const double centre = (p + z2 / (2.0 * n)) / denom;
  const double half =
      kWilsonZ / denom * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return std::fabs(observed - centre) <= half;
}

/// Counts a tournament's games as attempted and those whose verdict is
/// wrong or inconclusive as failed; every verdict must name the oracle.
void check_verdicts(Outcome& out, const core::GameReport& games) {
  out.attempted += games.games;
  out.failed += games.games - games.correct;
  out.check(games.correct == games.games,
            "a game verdict was wrong or inconclusive (" +
                std::to_string(games.correct) + "/" +
                std::to_string(games.games) + " correct)");
}

/// The mean RANDOM-oracle accuracy over `samples` predictions must sit in
/// the Wilson interval of 1/t.
void check_random_accuracy(Outcome& out, double mean, double samples,
                           std::size_t t, bool corrupt) {
  const double p0 = util::random_guess_accuracy(corrupt ? t + 1 : t);
  out.check(inside_wilson(mean, p0, samples),
            "mean RANDOM-oracle accuracy " + std::to_string(mean) +
                " outside the Wilson interval of 1/t");
}

struct Built {
  std::unique_ptr<core::Target> target;
  std::unique_ptr<core::MLDistinguisher> dist;
};

Built build(const core::ExperimentConfig& config) {
  Built b;
  b.target = config.make_target();
  b.dist = std::make_unique<core::MLDistinguisher>(*b.target, config);
  return b;
}

void check_train(Outcome& out, const core::TrainReport& train) {
  out.check(train.usable, "Algorithm 2 usable gate failed (a = " +
                              std::to_string(train.val_accuracy) + ")");
}

}  // namespace

Outcome run_paper_pipeline(const Args& args) {
  Outcome out;
  double collect_s = 0.0, games_s = 0.0;
  std::uint64_t collect_rows = 0;
  const util::Timer window;
  for (std::uint64_t i = 0;
       i < kMinPipelines || window.seconds() < args.seconds; ++i) {
    // Construction takes about a millisecond, so it is repeated before
    // every pipeline: enough samples, spread over the run, for the median
    // to be steady.
    const int reps = args.setup_reps > 0 ? args.setup_reps : 30;
    for (int r = 0; r < reps; ++r) {
      const obs::Span span("perfbench.setup", "perfbench");
      const util::Timer timer;
      const Built b = build(pipeline_config(args, args.seed));
      out.setup_s.push_back(timer.seconds());
    }
    const core::ExperimentConfig config = pipeline_config(
        args, util::derive_stream_seed(args.seed, 1000 + i));
    Built b = build(config);
    const obs::Span span("perfbench.pipeline", "perfbench");
    const util::Timer timer;
    const core::TrainReport train = b.dist->train(*b.target,
                                                  config.offline_base_inputs);
    check_train(out, train);
    if (!train.usable) {  // Algorithm 2 aborts: no games, one failure
      out.attempted += 1;
      out.failed += 1;
      break;
    }
    const core::GameReport games = core::play_games(*b.dist, *b.target, config);
    const double seconds = timer.seconds();
    check_verdicts(out, games);
    // A tournament whose coin flips picked no RANDOM oracle reports 0.0.
    // The mean is over several games; checking it at one game's sample
    // count is conservative.
    if (games.mean_random_accuracy != 0.0) {
      const std::size_t t = b.target->num_differences();
      check_random_accuracy(out, games.mean_random_accuracy,
                            static_cast<double>(config.online_base_inputs * t),
                            t, args.corrupt);
    }
    out.unit_ms.push_back(seconds * 1e3);
    out.units += 1.0;
    out.busy_s += seconds;
    collect_s += train.collect.seconds;
    collect_rows += train.collect.rows;
    games_s += games.telemetry.seconds;
  }
  out.detail.field("concurrency", 1)
      .field("offline_collect_s", collect_s)
      .field("offline_collect_rows", collect_rows)
      .field("games_s", games_s);
  return out;
}

Outcome run_online_games(const Args& args) {
  Outcome out;
  const core::ExperimentConfig config = pipeline_config(args, args.seed);
  const int reps = args.setup_reps > 0 ? args.setup_reps : 2;
  Built b;
  for (int r = 0; r < reps; ++r) {
    const obs::Span span("perfbench.setup", "perfbench");
    const util::Timer timer;
    b = build(config);
    const core::TrainReport train =
        b.dist->train(*b.target, config.offline_base_inputs);
    out.setup_s.push_back(timer.seconds());
    check_train(out, train);
    if (!train.usable) {
      out.attempted += 1;
      out.failed += 1;
      return out;
    }
  }

  // kLoadThreads clients each play one game at a time, so a slow core slows
  // only its own client.  The RANDOM-oracle accuracy is checked once, on
  // its mean over every RANDOM game of the run.
  const std::size_t t = b.target->num_differences();
  std::vector<Outcome> part(kLoadThreads);
  std::vector<double> random_sum(kLoadThreads, 0.0);
  std::vector<std::size_t> random_games(kLoadThreads, 0);
  std::atomic<bool> stop{false};
  const util::Timer window;
  {
    std::vector<std::jthread> clients;
    for (std::size_t c = 0; c < kLoadThreads; ++c) {
      clients.emplace_back([&, c] {
        for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const obs::Span span("perfbench.game", "perfbench");
          const util::Timer timer;
          const core::GameReport games = core::play_games(
              *b.dist, *b.target, 1, config.online_base_inputs,
              util::derive_stream_seed(args.seed ^ 0x6a3e5ULL, (c << 32) | i),
              1);
          part[c].unit_ms.push_back(timer.seconds() * 1e3);
          check_verdicts(part[c], games);
          if (games.mean_random_accuracy != 0.0) {  // the oracle was RANDOM
            random_sum[c] += games.mean_random_accuracy;
            random_games[c] += 1;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(args.seconds));
    stop.store(true, std::memory_order_relaxed);
  }  // joins the clients
  out.busy_s = window.seconds();
  double sum = 0.0;
  std::size_t k = 0;
  for (std::size_t c = 0; c < kLoadThreads; ++c) {
    const Outcome& p = part[c];
    out.failures.insert(out.failures.end(), p.failures.begin(), p.failures.end());
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.unit_ms.insert(out.unit_ms.end(), p.unit_ms.begin(), p.unit_ms.end());
    sum += random_sum[c];
    k += random_games[c];
  }
  out.check(k > 0, "no game drew the RANDOM oracle");
  if (k > 0) {
    check_random_accuracy(
        out, sum / static_cast<double>(k),
        static_cast<double>(k * config.online_base_inputs * t), t, args.corrupt);
  }
  out.units = static_cast<double>(out.unit_ms.size());
  out.detail.field("concurrency", static_cast<std::uint64_t>(kLoadThreads));
  return out;
}

}  // namespace perfbench
