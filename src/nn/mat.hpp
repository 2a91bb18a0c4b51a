// Dense row-major float32 matrix: the only tensor type the NN library needs.
// A (batch x features) matrix carries one sample per row.  The products
// below are thin wrappers over kernels::gemm, which owns the row split
// across the process thread pool; nothing here threads.
#pragma once

#include <cstddef>
#include <vector>

#include "kernels/gemm.hpp"

namespace mldist::nn {

class Mat {
 public:
  Mat() = default;
  Mat(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  void fill(float v) { data_.assign(data_.size(), v); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// out = a * b               (a: M x K, b: K x N)
void matmul(const Mat& a, const Mat& b, Mat& out);
/// out = a^T * b             (a: K x M, b: K x N) — used for weight grads
void matmul_at_b(const Mat& a, const Mat& b, Mat& out);
/// out = a * b^T             (a: M x K, b: N x K) — used for input grads
void matmul_a_bt(const Mat& a, const Mat& b, Mat& out);
/// out = act(a * b + bias) in one kernel call — the fused-epilogue path the
/// Dense/LSTM forward passes use.  Bitwise identical to matmul followed by
/// add_row_vector and the activation (the epilogue applies the same plain
/// add and compare per element, just without the intermediate stores).
void matmul_bias(const Mat& a, const Mat& b, const std::vector<float>& bias,
                 Mat& out,
                 kernels::Activation act = kernels::Activation::kNone,
                 float alpha = 0.3f);
/// Add the row vector `bias` (1 x N) to every row of `m` (M x N).
void add_row_vector(Mat& m, const std::vector<float>& bias);

}  // namespace mldist::nn
