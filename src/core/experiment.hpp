// ExperimentConfig: one declarative record for a full Algorithm-2 run.
//
// Every knob an experiment needs — the target primitive, the architecture
// (by arch_zoo name), the training hyper-parameters, the sample budgets of
// the offline/online phases, the seed, the worker count and the retry
// policy — lives here once.  MLDistinguisher keeps the record it is built
// from and reads every knob from it; play_games, the campaign cells, the
// benches and mldist_cli all build this record and nothing else.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace mldist::core {

class Target;

struct ExperimentConfig {
  // --- what to attack -----------------------------------------------------
  std::string target = "gimli-hash";  ///< see make_target() for the names
  int rounds = 7;                     ///< round budget (init clocks for trivium)
  /// Where the t differences are injected: "plaintext" (the paper's
  /// chosen-plaintext game) or "related-key" (arXiv 2201.03767; only the
  /// keyed block-cipher/MAC targets support it).
  std::string diff_site = "plaintext";
  /// The t difference specifiers, target-interpreted: XOR masks for the
  /// block-cipher/MAC targets (speck, simon, simeck, present, chaskey,
  /// gift64, gift128, toy), byte/word positions for the sponge and stream
  /// targets (gimli-*, salsa, trivium).  Empty = the target's defaults.
  std::vector<std::uint64_t> diffs;

  // --- classifier ---------------------------------------------------------
  std::string arch = "default-mlp";   ///< "default-mlp", an arch_zoo name
                                      ///< ("MLP II", ...) or "gohr-net/D"
  int epochs = 5;
  std::size_t batch_size = 128;
  float learning_rate = 1e-3f;
  double validation_fraction = 0.1;

  // --- experiment protocol ------------------------------------------------
  double z_threshold = 3.0;
  std::uint64_t seed = 0x600d5eedULL;
  std::size_t threads = 0;            ///< pool worker cap: 0 = all, 1 = serial
  std::size_t offline_base_inputs = 4000;
  std::size_t online_base_inputs = 2000;
  std::size_t games = 12;             ///< oracle games for play_games

  // --- fault tolerance (ISSUE 2) ------------------------------------------
  int max_retries = 3;       ///< fit attempts before degrading to the baseline
  float lr_backoff = 0.5f;   ///< learning-rate factor applied per retry
  /// The fit-time numeric-health guard (nn::HealthMonitor at its default
  /// thresholds); off = the pre-robustness fit behaviour.
  bool health_checks = true;
  /// Injected faults (MLDistinguisher::train acts on the weight poison),
  /// set only by the robustness tests and the soak bench to force the
  /// recovery paths deterministically.  Off by default.  Neither this nor
  /// health_checks is rendered by to_json(), which is also what carries a
  /// campaign cell to its worker, so cell ids never depend on them.
  util::FaultConfig faults;

  /// Epoch progress callback, called after every training epoch.
  std::function<void(const nn::EpochStats&)> on_epoch;

  /// Instantiate the configured target.  Throws std::invalid_argument for
  /// unknown names, for a diff_site the target does not support, or for
  /// out-of-range difference specifiers.  Known names: gimli-hash,
  /// gimli-cipher, speck, simon, simeck, present, chaskey, gift64, gift128,
  /// toy, salsa, trivium.
  std::unique_ptr<Target> make_target() const;

  /// Instantiate the configured architecture for `target`'s shapes, with
  /// weight init keyed on this config's seed.
  std::unique_ptr<nn::Sequential> make_model(const Target& target) const;

  /// The config as one JSON object (hyper-parameters only, no callbacks).
  /// Each real reads back to the same bits.
  std::string to_json() const;
};

}  // namespace mldist::core
