// Batch normalisation over features (Ioffe & Szegedy), the building block
// of Gohr's residual distinguisher network (§2.3).  Training mode
// normalises with batch statistics and maintains running estimates;
// evaluation mode uses the running estimates.
#pragma once

#include "nn/layer.hpp"

namespace mldist::nn {

class BatchNorm : public Layer {
 public:
  explicit BatchNorm(std::size_t features, float momentum = 0.9f,
                     float eps = 1e-5f);

  Mat forward(const Mat& x, bool training) override;
  Mat backward(const Mat& grad_out) override;
  std::vector<ParamView> params() override;
  std::vector<std::span<float>> state() override;
  std::string name() const override;
  std::size_t output_size(std::size_t input_size) const override;

  const std::vector<float>& running_mean() const { return run_mean_; }
  const std::vector<float>& running_var() const { return run_var_; }
  const std::vector<float>& gamma() const { return gamma_; }
  const std::vector<float>& beta() const { return beta_; }
  float eps() const { return eps_; }
  std::size_t features() const { return features_; }
  std::size_t input_size() const override { return features_; }

 private:
  std::size_t features_;
  float momentum_;
  float eps_;
  std::vector<float> gamma_;
  std::vector<float> beta_;
  std::vector<float> dgamma_;
  std::vector<float> dbeta_;
  std::vector<float> run_mean_;
  std::vector<float> run_var_;

  // Per-batch caches for backward.
  Mat xhat_;
  std::vector<float> batch_var_;
};

}  // namespace mldist::nn
