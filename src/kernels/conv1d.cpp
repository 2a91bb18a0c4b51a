#include "kernels/conv1d.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace mldist::kernels {

namespace {

struct ConvMetrics {
  obs::MetricId calls[2];

  ConvMetrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    calls[0] = reg.counter("kernels.conv1d.calls.im2col");
    calls[1] = reg.counter("kernels.conv1d.calls.direct");
  }
};

void check_shape(const Conv1DShape& s) {
  if (s.kernel == 0 || s.kernel % 2 == 0) {
    throw std::invalid_argument("conv1d_forward: kernel must be odd");
  }
  if (s.length == 0 || s.cin == 0 || s.cout == 0) {
    throw std::invalid_argument("conv1d_forward: empty shape");
  }
}

/// Zero-padded patch rows for every (sample, position) into `patches`
/// (batch*length x kernel*cin), exactly nn::Conv1D::im2col's layout.
void fill_patches(const float* x, const Conv1DShape& s, float* patches) {
  const std::size_t kw = s.kernel * s.cin;
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(s.kernel / 2);
  std::memset(patches, 0, s.batch * s.length * kw * sizeof(float));
  for (std::size_t n = 0; n < s.batch; ++n) {
    const float* xr = x + n * s.length * s.cin;
    for (std::size_t p = 0; p < s.length; ++p) {
      float* pr = patches + (n * s.length + p) * kw;
      for (std::size_t k = 0; k < s.kernel; ++k) {
        const std::ptrdiff_t q = static_cast<std::ptrdiff_t>(p) +
                                 static_cast<std::ptrdiff_t>(k) - half;
        if (q < 0 || q >= static_cast<std::ptrdiff_t>(s.length)) continue;
        std::memcpy(pr + k * s.cin, xr + static_cast<std::size_t>(q) * s.cin,
                    s.cin * sizeof(float));
      }
    }
  }
}

void conv_im2col(Impl impl, const float* x, float* y, const Conv1DShape& s,
                 const float* w, const GemmEpilogue& ep, float* scratch) {
  const std::size_t kw = s.kernel * s.cin;
  fill_patches(x, s, scratch);
  gemm_impl(impl, scratch, static_cast<std::ptrdiff_t>(kw), 1, w,
            static_cast<std::ptrdiff_t>(s.cout), 1, y, s.batch * s.length, kw,
            s.cout, ep);
}

void conv_direct(Impl impl, const float* x, float* y, const Conv1DShape& s,
                 const float* w, const GemmEpilogue& ep, float* scratch) {
  const std::size_t kw = s.kernel * s.cin;
  const std::ptrdiff_t b_rs = static_cast<std::ptrdiff_t>(s.cout);
  if (s.kernel == 1) {
    // No padding anywhere: the whole batch is one strided view of x.
    gemm_impl(impl, x, static_cast<std::ptrdiff_t>(s.cin), 1, w, b_rs, 1, y,
              s.batch * s.length, s.cin, s.cout, ep);
    return;
  }
  // The whole call issues exactly TWO gemms regardless of batch size.
  // Each gemm copies the (kw x cout) weight operand into its B strips once
  // and reads every full 6-row strip of the window view in place, packing
  // only the ragged last one.  A per-sample gemm loop would copy the
  // weights once per sample and pack a ragged strip per sample.
  const std::size_t half = s.kernel / 2;
  const std::size_t border_rows = s.batch * 2 * half;
  // Every full-span window of the whole x buffer, as one strided view with
  // row stride cin.  Window n*length + (p - half) holds exactly the patch
  // row of (sample n, interior position p) — the same value sequence an
  // im2col row holds, so the fma chain is identical.  Better: its output
  // belongs at y row n*length + p = g + half for every interior window, a
  // CONSTANT row offset, so the product lands straight in y with no
  // scatter.  The kernel-1 windows straddling each sample boundary land
  // exactly on the border positions (rows [length-half, length) of sample
  // n and [0, half) of sample n+1), which the border pass below overwrites
  // with the correct zero-padded values.
  const std::size_t windows = s.batch * s.length - s.kernel + 1;
  float* patches = scratch;                        // border_rows x kw
  float* border_out = patches + border_rows * kw;  // border_rows x cout
  gemm_impl(impl, x, static_cast<std::ptrdiff_t>(s.cin), 1, w, b_rs, 1,
            y + half * s.cout, windows, kw, s.cout, ep);

  // Border patch rows for every sample: rows [n*2*half, n*2*half + half)
  // hold sample n's top positions, the next half rows its bottom ones.
  std::memset(patches, 0, border_rows * kw * sizeof(float));
  for (std::size_t n = 0; n < s.batch; ++n) {
    const float* xr = x + n * s.length * s.cin;
    float* pn = patches + n * 2 * half * kw;
    for (std::size_t p = 0; p < half; ++p) {
      // Position p reads x window [p - half, p + half]; lanes k < half - p
      // fall off the front and stay zero.
      float* pr = pn + p * kw;
      for (std::size_t k = half - p; k < s.kernel; ++k) {
        std::memcpy(pr + k * s.cin, xr + (p + k - half) * s.cin,
                    s.cin * sizeof(float));
      }
    }
    for (std::size_t p = s.length - half; p < s.length; ++p) {
      // Lanes k >= length - p + half fall off the back and stay zero.
      float* pr = pn + (half + p - (s.length - half)) * kw;
      for (std::size_t k = 0; k < s.length - p + half; ++k) {
        std::memcpy(pr + k * s.cin, xr + (p + k - half) * s.cin,
                    s.cin * sizeof(float));
      }
    }
  }
  gemm_impl(impl, patches, static_cast<std::ptrdiff_t>(kw), 1, w, b_rs, 1,
            border_out, border_rows, kw, s.cout, ep);

  // Overwrite the junk the interior view left at the border positions.
  for (std::size_t n = 0; n < s.batch; ++n) {
    float* yr = y + n * s.length * s.cout;
    const float* bo = border_out + n * 2 * half * s.cout;
    std::memcpy(yr, bo, half * s.cout * sizeof(float));
    std::memcpy(yr + (s.length - half) * s.cout, bo + half * s.cout,
                half * s.cout * sizeof(float));
  }
}

/// Scratch floats one conv of shape `s` needs under `algo` (after the
/// length < kernel fallback to im2col).  May be zero (kDirect, kernel 1).
std::size_t scratch_floats(const Conv1DShape& s, Conv1DAlgo algo) {
  const std::size_t kw = s.kernel * s.cin;
  if (algo == Conv1DAlgo::kDirect) {
    if (s.kernel == 1) return 0;
    const std::size_t border_rows = s.batch * 2 * (s.kernel / 2);
    return border_rows * (kw + s.cout);
  }
  return s.batch * s.length * kw;
}

/// One unsplit conv over `s.batch` samples: one call's worth of counters
/// and span, GEMMs on `impl` with no further split.
void conv_rows(Impl impl, const float* x, float* y, const Conv1DShape& s,
               const float* w, const GemmEpilogue& epilogue, Conv1DAlgo algo) {
  {
    static const ConvMetrics metrics;
    obs::MetricsRegistry::global().add(
        metrics.calls[static_cast<std::size_t>(algo)]);
  }
  obs::Span span("conv1d", "kernels");
  span.arg("algo", conv1d_algo_name(algo))
      .arg("batch", static_cast<std::uint64_t>(s.batch))
      .arg("length", static_cast<std::uint64_t>(s.length))
      .arg("cin", static_cast<std::uint64_t>(s.cin))
      .arg("cout", static_cast<std::uint64_t>(s.cout))
      .arg("kernel", static_cast<std::uint64_t>(s.kernel));
  // Per-thread grow-only arena: the chunks of one batch, and every conv a
  // thread runs after them, reuse it with no allocation in steady state.
  thread_local std::vector<float> scratch;
  const std::size_t need = scratch_floats(s, algo);
  if (scratch.size() < need) scratch.resize(need);
  if (algo == Conv1DAlgo::kDirect) {
    conv_direct(impl, x, y, s, w, epilogue, scratch.data());
  } else {
    conv_im2col(impl, x, y, s, w, epilogue, scratch.data());
  }
}

}  // namespace

const char* conv1d_algo_name(Conv1DAlgo algo) {
  return algo == Conv1DAlgo::kDirect ? "direct" : "im2col";
}

void conv1d_forward(const float* x, float* y, const Conv1DShape& s,
                    const float* w, const GemmEpilogue& epilogue,
                    Conv1DAlgo algo) {
  check_shape(s);
  if (s.batch == 0) return;
  // No interior positions to carve out — the direct split degenerates.
  if (algo == Conv1DAlgo::kDirect && s.length < s.kernel) {
    algo = Conv1DAlgo::kIm2col;
  }
  const Impl impl = dispatch();
  const std::size_t in_w = s.length * s.cin;
  const std::size_t out_w = s.length * s.cout;
  const auto rows = [&](std::size_t r0, std::size_t r1) {
    Conv1DShape part = s;
    part.batch = r1 - r0;
    conv_rows(impl, x + r0 * in_w, y + r0 * out_w, part, w, epilogue, algo);
  };
  // A batch split keeps every output element's fma chain intact, so the
  // worker count never changes bits.
  if (s.batch > 1 &&
      s.batch * s.length * s.kernel * s.cin * s.cout >= kParallelThreshold) {
    util::ThreadPool::global().parallel_for(s.batch, rows);
  } else {
    rows(0, s.batch);
  }
}

}  // namespace mldist::kernels
