// Extension (paper §6: "our model does not have a key recovery
// functionality ... we leave the problem of key recovery for future
// research"): a Gohr-style last-round-key recovery on round-reduced
// SPECK-32/64 built from the paper's own multi-difference distinguisher.
//
// Idea: train the Algorithm-2 distinguisher on (R-1)-round SPECK.  Attack
// R rounds: collect chosen-plaintext triples (P, P ^ d0, P ^ d1) encrypted
// under the victim key, then for every candidate last-round subkey k,
// decrypt the final round with k and ask the model to classify the
// resulting (R-1)-round output differences.  The correct candidate yields
// prediction accuracy ~a; wrong candidates score lower and the candidates
// are ranked by accuracy.
//
// Caveat specific to SPECK: the inverse round computes
// y = (y' ^ x') >>> 2 with no key involved, so every candidate — right or
// wrong — reconstructs the correct y-half difference.  Wrong candidates
// therefore score well above the 1/t floor (the model still reads the
// y-half); the true key separates because it alone also fixes the x-half.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/telemetry.hpp"
#include "nn/model.hpp"
#include "util/rng.hpp"

namespace mldist::core {

struct KeyRecoveryOptions {
  int total_rounds = 4;          ///< rounds of the attacked cipher (R)
  std::size_t base_inputs = 48;  ///< chosen-plaintext triples collected
  /// Candidate subkeys to score.  Empty = all 2^16 (slow but complete).
  std::vector<std::uint16_t> candidates;
  std::uint64_t seed = 0x6e45ULL;
  /// Candidate-scoring fan-out cap on the process pool (0 = the whole pool,
  /// 1 = serial).  Candidates are scored independently and reduced in
  /// order, so the result never depends on this.
  std::size_t threads = 0;
};

struct KeyRecoveryResult {
  std::uint16_t true_subkey = 0;   ///< the victim's real last-round key
  std::uint16_t best_guess = 0;    ///< highest-scoring candidate
  std::size_t true_rank = 0;       ///< 0 = recovered exactly
  double best_score = 0.0;
  double true_score = 0.0;
  double mean_wrong_score = 0.0;   ///< average over wrong candidates
  std::size_t candidates_scored = 0;
  PhaseTelemetry telemetry;        ///< candidate-scoring throughput
};

/// Run the attack.  `model` must be trained on (total_rounds - 1)-round
/// SPECK with the same `diffs` (see SpeckTarget).  Deterministic in `seed`.
KeyRecoveryResult speck_last_round_key_recovery(
    nn::Sequential& model, std::span<const std::uint32_t> diffs,
    const KeyRecoveryOptions& options);

}  // namespace mldist::core
