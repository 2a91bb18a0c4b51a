// Single-precision GEMM kernels with fused bias+activation epilogues.
//
// The entry point is a generic strided product
//     C[i,j] = act( sum_k A[i,k] * B[k,j] + bias[j] )
// where A and B are addressed through (row_stride, col_stride) pairs, so the
// same kernel covers the three layouts nn::mat needs:
//     matmul       A (m x k) row-major          a_rs = k, a_cs = 1
//     matmul_at_b  A^T with A stored k-major    a_rs = 1, a_cs = m
//     matmul_a_bt  B^T with B stored row-major  b_rs = 1, b_cs = k
// C is always row-major contiguous (m x n).
//
// Determinism contract: every implementation computes each output element
// as the k-ascending chain  c = fma(A[i,k], B[k,j], c)  starting from +0.0f,
// applies bias as one plain add after the chain, then the activation.  The
// kernels target is compiled with -ffp-contract=off and all multiply-adds
// are spelled as explicit fma, so reference / blocked / avx2 agree BITWISE
// on finite inputs for every shape.  tests/kernel_equiv_test.cpp asserts
// exact equality on this basis.
#pragma once

#include <cstddef>

#include "kernels/dispatch.hpp"

namespace mldist::kernels {

enum class Activation {
  kNone = 0,
  kRelu = 1,       // x < 0 rewritten to 0 (matches nn::ReLU::forward)
  kLeakyRelu = 2,  // x < 0 rewritten to alpha * x (matches nn::LeakyReLU)
};

/// Optional fused epilogue, applied per output element in this order:
///   1. bias       v += bias[j]                     (nullptr skips)
///   2. batchnorm  v = gamma[j] * ((v - mean[j]) / std[j]) + beta[j]
///                 (norm_mean == nullptr skips; std[j] is the caller's
///                 precomputed sqrt(var[j] + eps) — sqrt is exactly rounded,
///                 so hoisting it out of the element loop is bitwise
///                 identical to nn::BatchNorm's inference forward)
///   3. activation (kNone skips)
/// `bias` and the four norm arrays are indexed by output column (length n).
struct GemmEpilogue {
  const float* bias = nullptr;
  const float* norm_mean = nullptr;
  const float* norm_std = nullptr;    ///< sqrt(running_var + eps), per column
  const float* norm_gamma = nullptr;
  const float* norm_beta = nullptr;
  Activation act = Activation::kNone;
  float alpha = 0.3f;
};

/// Products and convolutions of at least this many multiply-accumulates
/// (m*k*n; batch*length*kernel*cin*cout) fan out over
/// util::ThreadPool::global(); below it the fork/join costs more than it
/// saves.  gemm and conv1d_forward share it.
inline constexpr std::size_t kParallelThreshold = std::size_t{1} << 19;

/// C (row-major, m x n) = epilogue(A * B) with A addressed as
/// a[i * a_rs + kk * a_cs] and B as b[kk * b_rs + j * b_cs].
/// Uses the process-wide dispatch() implementation.  From
/// kParallelThreshold MACs (and m > 1) C's rows are split across the global
/// pool, one gemm_impl call per chunk; a row split keeps every output
/// element's fma chain intact, so the result is bitwise identical to one
/// unsplit call for any worker count.  Inside a parallel region (or when
/// the pool is busy) the call runs unsplit.
void gemm(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
          const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs, float* c,
          std::size_t m, std::size_t k, std::size_t n,
          const GemmEpilogue& epilogue = {});

/// Same, with an explicit implementation (throws std::invalid_argument when
/// `impl` is unsupported on this machine), always single-threaded.  Tests
/// and benches use this to pin a path without touching the global dispatch.
void gemm_impl(Impl impl, const float* a, std::ptrdiff_t a_rs,
               std::ptrdiff_t a_cs, const float* b, std::ptrdiff_t b_rs,
               std::ptrdiff_t b_cs, float* c, std::size_t m, std::size_t k,
               std::size_t n, const GemmEpilogue& epilogue = {});

namespace detail {

// Per-implementation entry points (same signature as gemm).  avx2 must only
// be called when supported(Impl::kAvx2) is true.
void gemm_reference(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                    const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                    float* c, std::size_t m, std::size_t k, std::size_t n,
                    const GemmEpilogue& epilogue);
void gemm_blocked(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                  const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                  float* c, std::size_t m, std::size_t k, std::size_t n,
                  const GemmEpilogue& epilogue);
void gemm_avx2(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
               const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
               float* c, std::size_t m, std::size_t k, std::size_t n,
               const GemmEpilogue& epilogue);

}  // namespace detail

}  // namespace mldist::kernels
