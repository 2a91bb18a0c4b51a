// Internals shared by gemm.cpp (reference + blocked scalar micro-kernel) and
// gemm_avx2.cpp (AVX2 micro-kernel).  Not installed; include only from
// src/kernels translation units and tests that probe tile edges.
//
// The blocked driver implements a BLIS-style structure: per (kKC x kNC)
// cache block it packs B into kNR-wide column strips, then sweeps a full
// kMR x kNR register tile over them and over kMR-tall strips of A.  What is
// copied is only what cannot be read as it lies:
//   - A strip of kMR whole rows with column stride 1 (every inference
//     product, the conv's overlapping window view, training's forward and
//     dX products) is read in place: the micro-kernel broadcasts straight
//     from the caller's rows at their row stride.  A ragged last strip and
//     a transposed A (dW's matmul_at_b) are packed, zero-padded to kMR rows.
//   - A full B strip with column stride 1 is packed by one 16-float row
//     copy per k step; the ragged last strip and a transposed B gather
//     element by element, zero-padded to kNR columns.
// So the micro-kernel always runs full-size, and only the valid mr x nr
// lanes are stored back.  The packed strips are sized to the call and kept
// in per-thread grow-only buffers, so a repeated shape neither allocates
// nor zero-fills.
//
// Bitwise determinism: the accumulator tile is carried across k blocks
// through C itself (stored after each non-final k block and reloaded, which
// is value-preserving for floats), so each output element sees the exact
// k-ascending fma chain the reference kernel computes.  Zero-padded lanes
// (whatever they compute: 0 * inf is NaN) never touch C and are discarded.
//
// Epilogues: apply_epilogue is the per-element specification (the
// reference kernel and the small-shape bypass call it).  epilogue_row
// applies the same stages to a run of outputs with the stage choice made
// once per call, as one of twelve (bias?, norm?, activation) loop bodies
// that GCC vectorizes; the blocked store-back and norm_act_inplace use it.
// Each element sees apply_epilogue's operations in its order, and the
// library builds with -ffp-contract=off, so both are bitwise equal.
#pragma once

#include <cmath>
#include <cstddef>

#include "kernels/gemm.hpp"

namespace mldist::kernels::detail {

inline constexpr int kMR = 6;    // register-tile rows
inline constexpr int kNR = 16;   // register-tile cols (2 AVX2 vectors)
inline constexpr std::size_t kKC = 256;  // k cache block
inline constexpr std::size_t kMC = 126;  // m cache block (multiple of kMR)
inline constexpr std::size_t kNC = 512;  // n cache block (multiple of kNR)

// Full-tile micro-kernel contract: acc is a row-major kMR x kNR tile
// (64-byte aligned); advance it by kc fma steps using the packed B strip bp
// (kc x kNR, strip-major) and kMR rows of A, which the packed form reads
// from a packed strip (kc x kMR, strip-major; a_rs is unused) and the
// in-place form from the caller's rows: row r's kc values start at
// a + r * a_rs.  The packed form keeps its A offsets compile-time constants.
using MicroFn = void (*)(std::size_t kc, const float* a, std::ptrdiff_t a_rs,
                         const float* bp, float* acc);

struct MicroKernel {
  MicroFn packed;
  MicroFn in_place;
};

inline float apply_epilogue(float v, const GemmEpilogue& ep, std::size_t j) {
  if (ep.bias != nullptr) v += ep.bias[j];
  if (ep.norm_mean != nullptr) {
    // Exactly nn::BatchNorm's inference rewrite: xhat = (v - mean) / std,
    // v = gamma * xhat + beta, with std = sqrt(var + eps) precomputed by
    // the caller (value-identical; sqrt and / are exactly rounded).
    v = ep.norm_gamma[j] * ((v - ep.norm_mean[j]) / ep.norm_std[j]) +
        ep.norm_beta[j];
  }
  // The test matches nn::ReLU / nn::LeakyReLU::forward exactly (only
  // v < 0 is rewritten), so the fused epilogue is bitwise identical to the
  // separate activation layer for every input, including -0 and NaN.
  switch (ep.act) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      if (v < 0.0f) v = 0.0f;
      break;
    case Activation::kLeakyRelu:
      if (v < 0.0f) v *= ep.alpha;
      break;
  }
  return v;
}

// One (bias?, norm?, activation) variant of epilogue_row.  The ReLU stages
// are selects on the same `v < 0` test as apply_epilogue's branches, which
// keeps NaN and -0 untouched and lets the loop vectorize.
template <bool kBias, bool kNorm, Activation kAct>
void epilogue_row_as(const float* in, float* out, std::size_t count,
                     const GemmEpilogue& ep, std::size_t j0) {
  const float* bias = kBias ? ep.bias + j0 : nullptr;
  const float* mean = kNorm ? ep.norm_mean + j0 : nullptr;
  const float* sd = kNorm ? ep.norm_std + j0 : nullptr;
  const float* gamma = kNorm ? ep.norm_gamma + j0 : nullptr;
  const float* beta = kNorm ? ep.norm_beta + j0 : nullptr;
  const float alpha = ep.alpha;
  for (std::size_t j = 0; j < count; ++j) {
    float v = in[j];
    if constexpr (kBias) v += bias[j];
    if constexpr (kNorm) v = gamma[j] * ((v - mean[j]) / sd[j]) + beta[j];
    if constexpr (kAct == Activation::kRelu) v = v < 0.0f ? 0.0f : v;
    if constexpr (kAct == Activation::kLeakyRelu) v = v < 0.0f ? v * alpha : v;
    out[j] = v;
  }
}

template <bool kBias, bool kNorm>
void epilogue_row_act(const float* in, float* out, std::size_t count,
                      const GemmEpilogue& ep, std::size_t j0) {
  switch (ep.act) {
    case Activation::kNone:
      return epilogue_row_as<kBias, kNorm, Activation::kNone>(in, out, count,
                                                              ep, j0);
    case Activation::kRelu:
      return epilogue_row_as<kBias, kNorm, Activation::kRelu>(in, out, count,
                                                              ep, j0);
    case Activation::kLeakyRelu:
      return epilogue_row_as<kBias, kNorm, Activation::kLeakyRelu>(
          in, out, count, ep, j0);
  }
}

// out[j] = apply_epilogue(in[j], ep, j0 + j) for j < count, bitwise.  `in`
// may equal `out` (an in-place pass) but must not overlap it otherwise.
inline void epilogue_row(const float* in, float* out, std::size_t count,
                         const GemmEpilogue& ep, std::size_t j0) {
  if (ep.bias != nullptr) {
    if (ep.norm_mean != nullptr) {
      return epilogue_row_act<true, true>(in, out, count, ep, j0);
    }
    return epilogue_row_act<true, false>(in, out, count, ep, j0);
  }
  if (ep.norm_mean != nullptr) {
    return epilogue_row_act<false, true>(in, out, count, ep, j0);
  }
  epilogue_row_act<false, false>(in, out, count, ep, j0);
}

// Shared by reference and the small-shape bypass: one output element as the
// canonical k-ascending fma chain.
inline float dot_fma(const float* a_row, std::ptrdiff_t a_cs,
                     const float* b_col, std::ptrdiff_t b_rs, std::size_t k) {
  float acc = 0.0f;
  for (std::size_t kk = 0; kk < k; ++kk) {
    acc = std::fmaf(a_row[static_cast<std::ptrdiff_t>(kk) * a_cs],
                    b_col[static_cast<std::ptrdiff_t>(kk) * b_rs], acc);
  }
  return acc;
}

// Cache-blocked driver; `micro` supplies the register-tile inner loop
// (scalar or AVX2) in its two forms.  Defined in gemm.cpp.
void gemm_blocked_driver(const float* a, std::ptrdiff_t a_rs,
                         std::ptrdiff_t a_cs, const float* b,
                         std::ptrdiff_t b_rs, std::ptrdiff_t b_cs, float* c,
                         std::size_t m, std::size_t k, std::size_t n,
                         const GemmEpilogue& epilogue, MicroKernel micro);

}  // namespace mldist::kernels::detail
