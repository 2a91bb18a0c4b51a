// "Same"-padded stride-1 Conv1D forward lowered onto the GEMM kernels.
//
// Input layout is position-major per sample, matching nn::Conv1D:
//     x[n][p * cin + c]                    (batch x length*cin, row-major)
//     w[(k * cin + c) * cout + o]          (kernel*cin x cout, row-major)
//     y[n][p * cout + o]                   (batch x length*cout, row-major)
// Because output rows are position-major, the (batch*length x cout) GEMM
// product is memory-identical to the (batch x length*cout) activation map —
// no reshape copy is ever needed.
//
// Two algorithms, bitwise identical by construction:
//   kIm2col  materialise zero-padded patch rows into scratch, one GEMM.
//   kDirect  interior output positions read x through an overlapping
//            strided view (row stride cin): patch(p, kk) = x[(p-half)*cin
//            + kk], so the bulk of the product is ONE GEMM straight over
//            the whole batch buffer with no materialisation.  Every
//            interior window's output row sits at a constant offset of
//            kernel/2 rows in y, so the product is written directly into
//            the output map with no scatter; the kernel-1 windows
//            straddling each sample boundary land on border positions and
//            are overwritten by the border pass.  The 2*(kernel/2) border
//            positions per sample go through zero-padded patch rows
//            gathered across the batch into a second, single GEMM whose
//            rows are copied into place.  kernel == 1 degenerates to one
//            whole-batch GEMM with no scratch at all.  x and y must not
//            alias (the IR executor's slot planner guarantees this).
// Both produce the exact k-ascending fma chain of the patch-matrix product
// (padded lanes contribute fma(0, w, acc) steps in the same positions), so
// kDirect output is bitwise equal to kIm2col under every dispatch backend.
#pragma once

#include <cstddef>

#include "kernels/gemm.hpp"

namespace mldist::kernels {

struct Conv1DShape {
  std::size_t batch = 0;
  std::size_t length = 0;
  std::size_t cin = 0;
  std::size_t cout = 0;
  std::size_t kernel = 0;  ///< odd; "same" zero padding, stride 1
};

enum class Conv1DAlgo {
  kIm2col = 0,  ///< materialised patch matrix (legacy nn::Conv1D layout)
  kDirect = 1,  ///< strided-view GEMM over x; borders via small patch bufs
};

const char* conv1d_algo_name(Conv1DAlgo algo);

/// y = epilogue(conv1d(x, w)).  `epilogue` arrays are indexed by output
/// channel o (the GEMM column), so bias and per-channel stages fuse here;
/// per-(position, channel) stages (nn::BatchNorm over length*cout features)
/// must instead run as a norm_act_inplace pass over y.  When length <
/// kernel there are no interior positions and kDirect runs as kIm2col.
///
/// Threading: from kParallelThreshold MACs (and batch > 1) the batch is
/// split across util::ThreadPool::global(); each chunk is one unsplit conv
/// (its own conv1d span and kernels.conv1d.calls count) whose GEMMs run on
/// the calling worker.  A batch split keeps every output element's fma
/// chain intact, so the worker count never changes bits.  Patch scratch
/// lives in per-thread grow-only buffers, so steady-state calls allocate
/// nothing.
void conv1d_forward(const float* x, float* y, const Conv1DShape& s,
                    const float* w, const GemmEpilogue& epilogue,
                    Conv1DAlgo algo);

}  // namespace mldist::kernels
