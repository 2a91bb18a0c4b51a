#include "nn/mat.hpp"

#include <cassert>

#include "kernels/gemm.hpp"

namespace mldist::nn {

// Every product goes through kernels::gemm, which splits C's rows across the
// global pool above its threshold; the split keeps each output element's
// k-ascending fma chain intact, so matmul results are bitwise identical for
// any worker count and kernel choice.

void matmul(const Mat& a, const Mat& b, Mat& out) {
  assert(a.cols() == b.rows());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  out = Mat(m, n);
  kernels::gemm(a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
                static_cast<std::ptrdiff_t>(n), 1, out.data(), m, k, n);
}

void matmul_at_b(const Mat& a, const Mat& b, Mat& out) {
  assert(a.rows() == b.rows());
  const std::size_t k = a.rows();
  const std::size_t m = a.cols();
  const std::size_t n = b.cols();
  out = Mat(m, n);
  // a is K x M row-major, so A^T element (i, kk) lives at a[kk * m + i]:
  // row stride 1, column stride m.
  kernels::gemm(a.data(), 1, static_cast<std::ptrdiff_t>(m), b.data(),
                static_cast<std::ptrdiff_t>(n), 1, out.data(), m, k, n);
}

void matmul_a_bt(const Mat& a, const Mat& b, Mat& out) {
  assert(a.cols() == b.cols());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  out = Mat(m, n);
  // b is N x K row-major, so B^T element (kk, j) lives at b[j * k + kk]:
  // row stride 1, column stride k.
  kernels::gemm(a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(), 1,
                static_cast<std::ptrdiff_t>(k), out.data(), m, k, n);
}

void matmul_bias(const Mat& a, const Mat& b, const std::vector<float>& bias,
                 Mat& out, kernels::Activation act, float alpha) {
  assert(a.cols() == b.rows());
  assert(bias.size() == b.cols());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  out = Mat(m, n);
  kernels::GemmEpilogue epilogue;
  epilogue.bias = bias.data();
  epilogue.act = act;
  epilogue.alpha = alpha;
  kernels::gemm(a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
                static_cast<std::ptrdiff_t>(n), 1, out.data(), m, k, n,
                epilogue);
}

void add_row_vector(Mat& m, const std::vector<float>& bias) {
  assert(m.cols() == bias.size());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    float* __restrict__ mi = m.row(i);
    for (std::size_t j = 0; j < m.cols(); ++j) mi[j] += bias[j];
  }
}

}  // namespace mldist::nn
