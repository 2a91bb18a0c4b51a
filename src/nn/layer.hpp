// Layer interface shared by every trainable and stateless layer.
//
// Training protocol per mini-batch:
//   1. model calls forward(x, /*training=*/true) through the stack,
//   2. loss produces dLoss/dLogits,
//   3. model calls backward(grad) in reverse; each layer ACCUMULATES its
//      parameter gradients (optimizer zeroes them after the step) and
//      returns the gradient w.r.t. its input.
//
// Layers cache whatever forward activations backward needs, so a layer
// instance handles one batch at a time (no nested forward calls).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "nn/mat.hpp"
#include "util/rng.hpp"

namespace mldist::nn {

/// A view over one parameter tensor and its gradient accumulator.
struct ParamView {
  float* value = nullptr;
  float* grad = nullptr;
  std::size_t size = 0;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Mat forward(const Mat& x, bool training) = 0;
  virtual Mat backward(const Mat& grad_out) = 0;

  /// Trainable parameters (empty for activations).
  virtual std::vector<ParamView> params() { return {}; }

  /// Non-trainable tensors that training updates (BatchNorm's running
  /// statistics); empty for most layers.  A rollback restores them with
  /// params().
  virtual std::vector<std::span<float>> state() { return {}; }

  /// Human-readable layer description, e.g. "dense(128->1024)".
  virtual std::string name() const = 0;

  /// Output feature width for a given input width; throws on mismatch with
  /// the layer's fixed input width.
  virtual std::size_t output_size(std::size_t input_size) const = 0;

  /// The input width this layer is constructed for, or 0 when it accepts
  /// any width (activations, dropout).  ir::Graph::lower uses it to infer
  /// the model's input width without a sample batch.
  virtual std::size_t input_size() const { return 0; }

  std::size_t param_count() {
    std::size_t n = 0;
    for (const auto& p : params()) n += p.size;
    return n;
  }
};

}  // namespace mldist::nn
