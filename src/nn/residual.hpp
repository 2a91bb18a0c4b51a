// Residual wrapper: y = x + F(x) for an inner layer stack F with matching
// input/output width — the skip connection of Gohr's deep residual
// distinguisher (§2.3).
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace mldist::nn {

class Residual : public Layer {
 public:
  Residual() = default;

  /// Append a layer to the inner stack F.
  Residual& add(std::unique_ptr<Layer> layer);

  Mat forward(const Mat& x, bool training) override;
  Mat backward(const Mat& grad_out) override;
  std::vector<ParamView> params() override;
  std::vector<std::span<float>> state() override;
  std::string name() const override;
  std::size_t output_size(std::size_t input_size) const override;
  std::size_t input_size() const override {
    return inner_.empty() ? 0 : inner_.front()->input_size();
  }

  std::size_t inner_count() const { return inner_.size(); }
  Layer& inner(std::size_t i) { return *inner_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> inner_;
};

}  // namespace mldist::nn
