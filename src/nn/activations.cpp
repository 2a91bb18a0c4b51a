#include "nn/activations.hpp"

#include <cmath>

namespace mldist::nn {

// The ReLU loops are selects, not conditional stores, so they vectorize
// instead of branching on the sign of every element.  Forward rewrites
// only v < 0 (NaN and -0 pass through, as in the fused GEMM epilogue);
// backward zeroes or scales where the input was <= 0, -0 included.

Mat ReLU::forward(const Mat& x, bool training) {
  Mat y = x;
  float* v = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) v[i] = v[i] < 0.0f ? 0.0f : v[i];
  if (training) x_cache_ = x;
  return y;
}

Mat ReLU::backward(const Mat& grad_out) {
  Mat dx = grad_out;
  const float* x = x_cache_.data();
  float* g = dx.data();
  for (std::size_t i = 0; i < dx.size(); ++i) g[i] = x[i] <= 0.0f ? 0.0f : g[i];
  return dx;
}

Mat LeakyReLU::forward(const Mat& x, bool training) {
  Mat y = x;
  float* v = y.data();
  const float alpha = alpha_;
  for (std::size_t i = 0; i < y.size(); ++i) {
    v[i] = v[i] < 0.0f ? v[i] * alpha : v[i];
  }
  if (training) x_cache_ = x;
  return y;
}

Mat LeakyReLU::backward(const Mat& grad_out) {
  Mat dx = grad_out;
  const float* x = x_cache_.data();
  float* g = dx.data();
  const float alpha = alpha_;
  for (std::size_t i = 0; i < dx.size(); ++i) {
    g[i] = x[i] <= 0.0f ? g[i] * alpha : g[i];
  }
  return dx;
}

Mat Tanh::forward(const Mat& x, bool training) {
  Mat y = x;
  for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] = std::tanh(y.data()[i]);
  if (training) y_cache_ = y;
  return y;
}

Mat Tanh::backward(const Mat& grad_out) {
  Mat dx = grad_out;
  for (std::size_t i = 0; i < dx.size(); ++i) {
    const float t = y_cache_.data()[i];
    dx.data()[i] *= 1.0f - t * t;
  }
  return dx;
}

Mat Sigmoid::forward(const Mat& x, bool training) {
  Mat y = x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    y.data()[i] = 1.0f / (1.0f + std::exp(-y.data()[i]));
  }
  if (training) y_cache_ = y;
  return y;
}

Mat Sigmoid::backward(const Mat& grad_out) {
  Mat dx = grad_out;
  for (std::size_t i = 0; i < dx.size(); ++i) {
    const float s = y_cache_.data()[i];
    dx.data()[i] *= s * (1.0f - s);
  }
  return dx;
}

}  // namespace mldist::nn
