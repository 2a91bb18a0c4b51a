#include "core/online_game.hpp"

#include <algorithm>

#include "core/targets.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mldist::core {

namespace {
constexpr std::uint64_t kGameStream = 0x9a3e5ULL;
}

GameReport play_games(const MLDistinguisher& dist, const Target& target,
                      std::size_t games, std::size_t online_base_inputs,
                      std::uint64_t seed, std::size_t threads) {
  obs::Span games_span("games", "core");
  games_span.arg("games", static_cast<std::uint64_t>(games))
      .arg("online_base_inputs",
           static_cast<std::uint64_t>(online_base_inputs));
  const util::Timer timer;
  util::Xoshiro256 referee(seed);
  const CipherOracle cipher(target);
  const RandomOracle random(target.num_differences(), target.output_bytes());

  // Referee draws happen serially, before the fan-out, in the same order as
  // a serial tournament: the choice of oracles and online streams is a
  // function of `seed` alone.
  struct Setup {
    bool is_cipher = false;
    std::uint64_t online_seed = 1;
  };
  std::vector<Setup> setup(games);
  for (auto& s : setup) {
    s.is_cipher = (referee.next_u64() & 1) != 0;
    s.online_seed = referee.next_u64() | 1;
  }

  std::vector<OnlineReport> outcome(games);
  const auto play_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      const Oracle& oracle = setup[g].is_cipher
                                 ? static_cast<const Oracle&>(cipher)
                                 : static_cast<const Oracle&>(random);
      outcome[g] = dist.test(oracle, online_base_inputs, setup[g].online_seed);
    }
  };

  const std::size_t workers =
      util::ThreadPool::global().parallel_for(games, play_range, threads);

  GameReport rep;
  rep.games = games;
  double cipher_acc_sum = 0.0;
  std::size_t cipher_games = 0;
  double random_acc_sum = 0.0;
  std::size_t random_games = 0;
  for (std::size_t g = 0; g < games; ++g) {
    const OnlineReport& online = outcome[g];
    if (setup[g].is_cipher) {
      cipher_acc_sum += online.accuracy;
      ++cipher_games;
      if (online.verdict == Verdict::kCipher) ++rep.correct;
    } else {
      random_acc_sum += online.accuracy;
      ++random_games;
      if (online.verdict == Verdict::kRandom) ++rep.correct;
    }
    if (online.verdict == Verdict::kInconclusive) ++rep.inconclusive;
    rep.telemetry.queries += online.collect.queries;
    rep.telemetry.rows += online.collect.rows;
  }
  rep.success_rate =
      games > 0 ? static_cast<double>(rep.correct) / static_cast<double>(games)
                : 0.0;
  if (cipher_games > 0) {
    rep.mean_cipher_accuracy = cipher_acc_sum / static_cast<double>(cipher_games);
  }
  if (random_games > 0) {
    rep.mean_random_accuracy = random_acc_sum / static_cast<double>(random_games);
  }
  rep.telemetry.seconds = timer.seconds();
  rep.telemetry.threads = workers;
  {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    reg.add(reg.counter("core.games.played"), rep.games);
    reg.add(reg.counter("core.games.correct"), rep.correct);
    reg.add(reg.counter("core.games.inconclusive"), rep.inconclusive);
  }
  rep.telemetry.publish("games");
  return rep;
}

GameReport play_games(const MLDistinguisher& dist, const Target& target,
                      const ExperimentConfig& config) {
  return play_games(dist, target, config.games, config.online_base_inputs,
                    util::derive_stream_seed(config.seed, kGameStream),
                    config.threads);
}

}  // namespace mldist::core
