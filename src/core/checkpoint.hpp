// Rollback support for the offline phase (ISSUE 2).
//
// A CheckpointManager copies the model's parameters and its non-trainable
// state (BatchNorm running statistics) whenever the validation accuracy
// improves, so a diverging training run can be rolled back to the last
// good state instead of starting over (or aborting the whole Algorithm-2
// run).  The copy lives in memory: only the train() call that made it can
// use it, so it never touches the disk.
//
// MLDistinguisher::train drives it from its ExperimentConfig: on
// nn::TrainingDiverged it restores the checkpoint, multiplies the learning
// rate by `lr_backoff`, draws a fresh shuffle stream, and tries again up to
// `max_retries` attempts in all before degrading to the linear baseline
// classifier.
#pragma once

#include <vector>

#include "nn/model.hpp"

namespace mldist::core {

class CheckpointManager {
 public:
  /// Copy `model`'s parameters and state when `val_accuracy` beats the
  /// best seen so far.  Returns true when the copy was taken.
  bool update(nn::Sequential& model, double val_accuracy);

  bool has_checkpoint() const { return best_ >= 0.0; }
  double best_val_accuracy() const { return best_; }

  /// Roll `model` back to the best copy, bit for bit.  Throws
  /// std::runtime_error when there is no copy or `model` is not shaped
  /// like the one it was taken from.
  void restore(nn::Sequential& model) const;

 private:
  std::vector<float> values_;  ///< params() then state(), in order
  double best_ = -1.0;
};

}  // namespace mldist::core
