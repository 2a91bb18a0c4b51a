// Elementwise fused epilogue applied in place to a row-major buffer.
//
// Used when a normalisation cannot ride a GEMM epilogue because its feature
// axis is wider than the producing GEMM's column count (Conv1D + BatchNorm:
// BN features span length*cout, but the conv GEMM only has cout columns).
// Reinterpreting the conv output as (batch, length*cout) makes BN a plain
// per-column transform again, which is what this entry point applies.
//
// All stages are single exactly-rounded IEEE ops per element, so there is
// one implementation and it is bitwise deterministic under every dispatch
// backend — no per-Impl variants needed.  Each row is one call of the
// blocked GEMM store-back's epilogue row (detail::epilogue_row in
// gemm_internal.hpp): the stage choice is made once per row and the row
// runs as vector code, bitwise equal to apply_epilogue per element.
#pragma once

#include <cstddef>

#include "kernels/gemm.hpp"

namespace mldist::kernels {

/// Applies `epilogue` (bias, then batchnorm, then activation — exactly the
/// GEMM epilogue order) to every element of the row-major (rows x cols)
/// buffer `c` in place.  Epilogue arrays are indexed by column (length
/// `cols`).
void norm_act_inplace(float* c, std::size_t rows, std::size_t cols,
                      const GemmEpilogue& epilogue);

}  // namespace mldist::kernels
