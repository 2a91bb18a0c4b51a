#include "nn/batchnorm.hpp"

#include <cmath>
#include <stdexcept>

namespace mldist::nn {

BatchNorm::BatchNorm(std::size_t features, float momentum, float eps)
    : features_(features), momentum_(momentum), eps_(eps),
      gamma_(features, 1.0f), beta_(features, 0.0f), dgamma_(features, 0.0f),
      dbeta_(features, 0.0f), run_mean_(features, 0.0f),
      run_var_(features, 1.0f) {}

Mat BatchNorm::forward(const Mat& x, bool training) {
  if (x.cols() != features_) {
    throw std::invalid_argument("BatchNorm: input width mismatch");
  }
  const std::size_t batch = x.rows();
  Mat y(batch, features_);
  // Each feature's standard deviation is one sqrt, taken before the row
  // loops: this file keeps errno semantics, so a sqrt inside them would be
  // a guarded scalar call per element.  The values are the same.
  std::vector<float> sd(features_);
  if (!training) {
    for (std::size_t j = 0; j < features_; ++j) {
      sd[j] = std::sqrt(run_var_[j] + eps_);
    }
    for (std::size_t n = 0; n < batch; ++n) {
      const float* xr = x.row(n);
      float* yr = y.row(n);
      for (std::size_t j = 0; j < features_; ++j) {
        const float xhat = (xr[j] - run_mean_[j]) / sd[j];
        yr[j] = gamma_[j] * xhat + beta_[j];
      }
    }
    return y;
  }

  std::vector<float> mean(features_, 0.0f);
  batch_var_.assign(features_, 0.0f);
  for (std::size_t n = 0; n < batch; ++n) {
    const float* xr = x.row(n);
    for (std::size_t j = 0; j < features_; ++j) mean[j] += xr[j];
  }
  const float inv_b = 1.0f / static_cast<float>(batch);
  for (std::size_t j = 0; j < features_; ++j) mean[j] *= inv_b;
  for (std::size_t n = 0; n < batch; ++n) {
    const float* xr = x.row(n);
    for (std::size_t j = 0; j < features_; ++j) {
      const float d = xr[j] - mean[j];
      batch_var_[j] += d * d;
    }
  }
  for (std::size_t j = 0; j < features_; ++j) {
    batch_var_[j] *= inv_b;
    sd[j] = std::sqrt(batch_var_[j] + eps_);
  }

  xhat_ = Mat(batch, features_);
  for (std::size_t n = 0; n < batch; ++n) {
    const float* xr = x.row(n);
    float* xh = xhat_.row(n);
    float* yr = y.row(n);
    for (std::size_t j = 0; j < features_; ++j) {
      xh[j] = (xr[j] - mean[j]) / sd[j];
      yr[j] = gamma_[j] * xh[j] + beta_[j];
    }
  }
  for (std::size_t j = 0; j < features_; ++j) {
    run_mean_[j] = momentum_ * run_mean_[j] + (1.0f - momentum_) * mean[j];
    run_var_[j] = momentum_ * run_var_[j] + (1.0f - momentum_) * batch_var_[j];
  }
  return y;
}

Mat BatchNorm::backward(const Mat& grad_out) {
  const std::size_t batch = grad_out.rows();
  const float inv_b = 1.0f / static_cast<float>(batch);
  Mat dx(batch, features_);

  // Column sums needed by the batch-stat terms.
  std::vector<float> sum_dy(features_, 0.0f);
  std::vector<float> sum_dy_xhat(features_, 0.0f);
  for (std::size_t n = 0; n < batch; ++n) {
    const float* g = grad_out.row(n);
    const float* xh = xhat_.row(n);
    for (std::size_t j = 0; j < features_; ++j) {
      sum_dy[j] += g[j];
      sum_dy_xhat[j] += g[j] * xh[j];
    }
  }
  std::vector<float> inv_std(features_);
  for (std::size_t j = 0; j < features_; ++j) {
    dgamma_[j] += sum_dy_xhat[j];
    dbeta_[j] += sum_dy[j];
    inv_std[j] = 1.0f / std::sqrt(batch_var_[j] + eps_);
  }
  for (std::size_t n = 0; n < batch; ++n) {
    const float* g = grad_out.row(n);
    const float* xh = xhat_.row(n);
    float* d = dx.row(n);
    for (std::size_t j = 0; j < features_; ++j) {
      d[j] = gamma_[j] * inv_std[j] *
             (g[j] - inv_b * sum_dy[j] - inv_b * xh[j] * sum_dy_xhat[j]);
    }
  }
  return dx;
}

std::vector<ParamView> BatchNorm::params() {
  return {{gamma_.data(), dgamma_.data(), gamma_.size()},
          {beta_.data(), dbeta_.data(), beta_.size()}};
}

std::vector<std::span<float>> BatchNorm::state() {
  return {run_mean_, run_var_};
}

std::string BatchNorm::name() const {
  return "batchnorm(" + std::to_string(features_) + ")";
}

std::size_t BatchNorm::output_size(std::size_t input_size) const {
  if (input_size != features_) {
    throw std::invalid_argument("BatchNorm: input width mismatch");
  }
  return features_;
}

}  // namespace mldist::nn
