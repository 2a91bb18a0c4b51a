// The full distinguisher game (§3.1): a referee secretly picks
// ORACLE <-$- {CIPHER, RANDOM}; the attacker runs the online phase of a
// trained MLDistinguisher and must name the oracle.  `play_games` repeats
// the game and reports the attacker's success rate together with the
// paper's headline numbers (accuracy on cipher data vs random data).
//
// Games are independent, so they fan out over the thread pool: the
// referee's coin flips and per-game online seeds are drawn serially up
// front (preserving the referee stream), then each game runs in parallel
// and the tallies are reduced in game order — the report is bitwise
// identical for any worker count.
#pragma once

#include "core/distinguisher.hpp"
#include "core/telemetry.hpp"

namespace mldist::core {

struct GameReport {
  std::size_t games = 0;
  /// Games where the attacker named the oracle correctly.  An inconclusive
  /// verdict is never correct — a distinguisher that refuses to answer has
  /// not won the game — so `correct + inconclusive <= games` and the two
  /// tallies never overlap (a game is counted in at most one of them;
  /// confidently wrong answers are in neither).
  std::size_t correct = 0;
  /// Games whose verdict was Verdict::kInconclusive.  These count AGAINST
  /// success_rate (the denominator stays `games`); they are tallied
  /// separately so reports can tell "wrong" from "underpowered".  This
  /// accounting is pinned by the game_report accounting test.
  std::size_t inconclusive = 0;
  double success_rate = 0.0;        ///< correct / games (see above)
  double mean_cipher_accuracy = 0.0;  ///< mean a' when ORACLE = CIPHER
  double mean_random_accuracy = 0.0;  ///< mean a' when ORACLE = RANDOM
  PhaseTelemetry telemetry;  ///< queries/rows across all games, wall time
};

/// Play `games` independent rounds with `online_base_inputs` online base
/// inputs each.  The distinguisher must already be trained on `target`.
/// `threads` caps the game-level fan-out on the process pool (0 = the
/// whole pool, 1 = serial); it never changes the report, only the wall
/// time.
GameReport play_games(const MLDistinguisher& dist, const Target& target,
                      std::size_t games, std::size_t online_base_inputs,
                      std::uint64_t seed, std::size_t threads = 0);

/// Convenience: budgets, seed and fan-out from one ExperimentConfig.
GameReport play_games(const MLDistinguisher& dist, const Target& target,
                      const ExperimentConfig& config);

}  // namespace mldist::core
