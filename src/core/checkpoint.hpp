// Checkpoint/resume support for the offline phase (ISSUE 2).
//
// A CheckpointManager snapshots the model parameters whenever the
// validation accuracy improves, so a diverging training run can be rolled
// back to the last good state instead of starting over (or aborting the
// whole Algorithm-2 run).  Snapshots are crash-safe: the payload is written
// to "<path>.tmp" and atomically renamed over <path>, and the nn::serialize
// format's CRC-32 footer (util/crc32) makes a torn or bit-rotted checkpoint
// detectable at restore time.
//
// MLDistinguisher::train drives it from its ExperimentConfig: on
// nn::TrainingDiverged it restores the checkpoint, multiplies the learning
// rate by `lr_backoff`, draws a fresh shuffle stream, and tries again up to
// `max_retries` attempts in all before degrading to the linear baseline
// classifier.  `checkpoint_path` names the file (empty = an auto-generated
// path under the system temp directory, removed after training).
#pragma once

#include <string>

#include "nn/model.hpp"

namespace mldist::core {

class CheckpointManager {
 public:
  explicit CheckpointManager(std::string path) : path_(std::move(path)) {}

  /// Snapshot `model` when `val_accuracy` beats the best seen so far
  /// (fsync'd tmp-file + atomic rename + directory fsync, so the snapshot
  /// survives a power cut as well as a crash).  Returns true when a
  /// snapshot was written.
  bool update(nn::Sequential& model, double val_accuracy);

  /// Mark an existing on-disk snapshot at path() as valid without writing
  /// anything, recording `recorded_best` as its validation accuracy.  Used
  /// by campaign resume: a relaunched worker adopts the snapshot a killed
  /// predecessor left behind, then restore()s from it.
  void adopt(double recorded_best = 0.0) { best_ = recorded_best; }

  bool has_checkpoint() const { return best_ >= 0.0; }
  double best_val_accuracy() const { return best_; }
  const std::string& path() const { return path_; }

  /// Roll `model` back to the best snapshot.  Throws std::runtime_error
  /// when no snapshot exists or the file fails its CRC verification.
  void restore(nn::Sequential& model) const;

  /// Delete the checkpoint file (best-effort; keeps the recorded best).
  void remove_file() const;

  /// Retention GC for long campaigns: delete all files under `dir` whose
  /// names end in `suffix`, keeping the `keep_newest` most recently
  /// modified.  Stray ".tmp" siblings of deleted files go too.  Returns the
  /// number of files removed; best-effort (unreadable dirs count as empty).
  static std::size_t gc_directory(const std::string& dir,
                                  const std::string& suffix,
                                  std::size_t keep_newest);

 private:
  std::string path_;
  double best_ = -1.0;
};

}  // namespace mldist::core
