#include "kernels/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "kernels/gemm_internal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace mldist::kernels {

namespace {

/// Per-implementation call and FLOP tallies (2*m*k*n per product), visible
/// in the obs registry as kernels.gemm.{calls,flops}.<impl>.  Ids resolve
/// once; recording is a sharded relaxed add, so the dispatch hot path never
/// takes a lock.  Call counts and FLOPs are deterministic quantities — the
/// batch grid is fixed by the options, not the worker count — so they are
/// bitwise identical for any --threads setting.
struct GemmMetrics {
  obs::MetricId calls[3];
  obs::MetricId flops[3];

  GemmMetrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    for (Impl impl : {Impl::kReference, Impl::kBlocked, Impl::kAvx2}) {
      const auto i = static_cast<std::size_t>(impl);
      const std::string suffix = impl_name(impl);
      calls[i] = reg.counter("kernels.gemm.calls." + suffix);
      flops[i] = reg.counter("kernels.gemm.flops." + suffix);
    }
  }
};

}  // namespace
namespace detail {
namespace {

// Products with fewer than this many outputs (m*n) take the (bitwise-
// identical) elementwise chain.  Per k step the blocked path packs
// ~(m + n) padded lanes and sweeps whole 6x16 tiles, while the chain runs
// m*n latency-bound fmas, so k cancels and the output count decides.  A
// sweep over the zoo's shapes (DESIGN.md §9) puts the crossover near 8
// outputs for the avx2 micro-kernel and 16 for the portable one: at 16,
// classifier heads of up to 7 rows (m x k x 2) stay on the chain, while
// the Gohr conv border product (2 x 96 x 32) and one-row dense layers
// take the blocked path.
constexpr std::size_t kBlockedBypassOutputs = 16;

// Scalar full-tile micro-kernel, one tile row at a time: the 16-lane row
// accumulator stays in registers across the whole k loop, which GCC
// vectorizes cleanly (a row-inner loop order defeats its vectorizer).  The
// per-element chain is the same k-ascending std::fmaf sequence.  Row r's
// A value at step kk is a[r * a_rs + kk] in place, a[kk * kMR + r] packed.
// Kept out of line: inlined into gemm_blocked's constant-propagated copy of
// the driver, GCC 12 left the in-place row loop as 16 scalar fmas per k
// step, 2.5x slower than the vectorized function.
template <bool kInPlace>
[[gnu::noinline]] void micro_scalar(std::size_t kc, const float* a,
                                    std::ptrdiff_t a_rs, const float* bp,
                                    float* acc) {
  constexpr std::size_t kStep = kInPlace ? 1 : kMR;
  for (int r = 0; r < kMR; ++r) {
    const float* arow = kInPlace ? a + r * a_rs : a + r;
    float crow[kNR];
    std::memcpy(crow, acc + r * kNR, sizeof(crow));
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float av = arow[kk * kStep];
      const float* brow = bp + kk * kNR;
      for (int j = 0; j < kNR; ++j) {
        crow[j] = std::fmaf(av, brow[j], crow[j]);
      }
    }
    std::memcpy(acc + r * kNR, crow, sizeof(crow));
  }
}

}  // namespace

void gemm_reference(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                    const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                    float* c, std::size_t m, std::size_t k, std::size_t n,
                    const GemmEpilogue& epilogue) {
  // Textbook i-j-k loop: this is the executable spec every other kernel is
  // pinned against, so it stays deliberately free of blocking and packing.
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + static_cast<std::ptrdiff_t>(i) * a_rs;
    float* c_row = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* b_col = b + static_cast<std::ptrdiff_t>(j) * b_cs;
      c_row[j] = apply_epilogue(dot_fma(a_row, a_cs, b_col, b_rs, k),
                                epilogue, j);
    }
  }
}

void gemm_blocked_driver(const float* a, std::ptrdiff_t a_rs,
                         std::ptrdiff_t a_cs, const float* b,
                         std::ptrdiff_t b_rs, std::ptrdiff_t b_cs, float* c,
                         std::size_t m, std::size_t k, std::size_t n,
                         const GemmEpilogue& epilogue, MicroKernel micro) {
  if (m == 0 || n == 0) return;
  if (k == 0 || m * n < kBlockedBypassOutputs) {
    gemm_reference(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue);
    return;
  }

  // Pack panels sized to this call (one k block of at most kMC rows of A and
  // kNC columns of B) in per-thread grow-only buffers, so a steady-state
  // call neither allocates nor zero-fills.  The packing loops below write
  // every lane the micro-kernel reads from them, padding zeros included, so
  // what an earlier call left in a reused buffer is never observed.
  const std::size_t kc_max = std::min(kKC, k);
  const std::size_t a_floats =
      (std::min(kMC, m) + kMR - 1) / kMR * kc_max * kMR;
  const std::size_t b_floats =
      (std::min(kNC, n) + kNR - 1) / kNR * kc_max * kNR;
  thread_local std::vector<float> apack;
  thread_local std::vector<float> bpack;
  if (apack.size() < a_floats) apack.resize(a_floats);
  if (bpack.size() < b_floats) bpack.resize(b_floats);
  const GemmEpilogue no_epilogue{};
  // A strip of kMR whole rows with unit column stride is read in place.
  const auto in_place = [a_cs](std::size_t mr) {
    return a_cs == 1 && mr == kMR;
  };

  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    const std::size_t njs = (nc + kNR - 1) / kNR;
    for (std::size_t kc0 = 0; kc0 < k; kc0 += kKC) {
      const std::size_t kc = std::min(kKC, k - kc0);
      const bool first = kc0 == 0;
      const bool last = kc0 + kc == k;
      const GemmEpilogue& ep = last ? epilogue : no_epilogue;

      // Pack B into kNR-wide strips: a full strip of contiguous columns is
      // one row copy per k step; the ragged last strip and a transposed B
      // are gathered, with edge columns zero-padded so the micro-kernel
      // always runs a full tile.
      for (std::size_t js = 0; js < njs; ++js) {
        const std::size_t j0 = jc + js * kNR;
        const std::size_t nr = std::min<std::size_t>(kNR, n - j0);
        float* dst = bpack.data() + js * kc * kNR;
        const float* b_strip = b + static_cast<std::ptrdiff_t>(kc0) * b_rs;
        if (b_cs == 1 && nr == kNR) {
          for (std::size_t kk = 0; kk < kc; ++kk) {
            std::memcpy(dst + kk * kNR,
                        b_strip + static_cast<std::ptrdiff_t>(kk) * b_rs + j0,
                        kNR * sizeof(float));
          }
          continue;
        }
        for (std::size_t kk = 0; kk < kc; ++kk) {
          const float* b_row = b_strip + static_cast<std::ptrdiff_t>(kk) * b_rs;
          for (std::size_t j = 0; j < kNR; ++j) {
            dst[kk * kNR + j] =
                j < nr
                    ? b_row[static_cast<std::ptrdiff_t>(j0 + j) * b_cs]
                    : 0.0f;
          }
        }
      }

      for (std::size_t ic = 0; ic < m; ic += kMC) {
        const std::size_t mc = std::min(kMC, m - ic);
        const std::size_t nis = (mc + kMR - 1) / kMR;

        // Pack the A strips that cannot be read in place into kMR-tall
        // strips, zero-padding edge rows.
        for (std::size_t is = 0; is < nis; ++is) {
          const std::size_t i0 = ic + is * kMR;
          const std::size_t mr = std::min<std::size_t>(kMR, m - i0);
          if (in_place(mr)) continue;
          float* dst = apack.data() + is * kc * kMR;
          for (std::size_t kk = 0; kk < kc; ++kk) {
            const float* a_col =
                a + static_cast<std::ptrdiff_t>(kc0 + kk) * a_cs;
            for (std::size_t r = 0; r < static_cast<std::size_t>(kMR); ++r) {
              dst[kk * kMR + r] =
                  r < mr
                      ? a_col[static_cast<std::ptrdiff_t>(i0 + r) * a_rs]
                      : 0.0f;
            }
          }
        }

        for (std::size_t js = 0; js < njs; ++js) {
          const std::size_t j0 = jc + js * kNR;
          const std::size_t nr = std::min<std::size_t>(kNR, n - j0);
          const float* bp = bpack.data() + js * kc * kNR;
          for (std::size_t is = 0; is < nis; ++is) {
            const std::size_t i0 = ic + is * kMR;
            const std::size_t mr = std::min<std::size_t>(kMR, m - i0);

            alignas(64) float acc[kMR * kNR];
            if (first) {
              std::memset(acc, 0, sizeof(acc));
            } else {
              // Resume the fma chain from the partial sums parked in C.
              for (std::size_t r = 0; r < static_cast<std::size_t>(kMR);
                   ++r) {
                const float* c_row = c + (i0 + r) * n + j0;
                for (std::size_t j = 0; j < static_cast<std::size_t>(kNR);
                     ++j) {
                  acc[r * kNR + j] = (r < mr && j < nr) ? c_row[j] : 0.0f;
                }
              }
            }

            if (in_place(mr)) {
              micro.in_place(kc,
                             a + static_cast<std::ptrdiff_t>(i0) * a_rs +
                                 static_cast<std::ptrdiff_t>(kc0),
                             a_rs, bp, acc);
            } else {
              micro.packed(kc, apack.data() + is * kc * kMR, 0, bp, acc);
            }

            for (std::size_t r = 0; r < mr; ++r) {
              epilogue_row(acc + r * kNR, c + (i0 + r) * n + j0, nr, ep, j0);
            }
          }
        }
      }
    }
  }
}

void gemm_blocked(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                  const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                  float* c, std::size_t m, std::size_t k, std::size_t n,
                  const GemmEpilogue& epilogue) {
  gemm_blocked_driver(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue,
                      {&micro_scalar<false>, &micro_scalar<true>});
}

}  // namespace detail

void gemm_impl(Impl impl, const float* a, std::ptrdiff_t a_rs,
               std::ptrdiff_t a_cs, const float* b, std::ptrdiff_t b_rs,
               std::ptrdiff_t b_cs, float* c, std::size_t m, std::size_t k,
               std::size_t n, const GemmEpilogue& epilogue) {
  if (!supported(impl)) {
    throw std::invalid_argument(std::string("kernel implementation '") +
                                impl_name(impl) +
                                "' is not supported on this machine");
  }
  {
    static const GemmMetrics metrics;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const auto i = static_cast<std::size_t>(impl);
    reg.add(metrics.calls[i]);
    reg.add(metrics.flops[i], 2ull * m * k * n);
  }
  obs::Span span("gemm", "kernels");
  span.arg("impl", impl_name(impl))
      .arg("m", static_cast<std::uint64_t>(m))
      .arg("k", static_cast<std::uint64_t>(k))
      .arg("n", static_cast<std::uint64_t>(n));
  switch (impl) {
    case Impl::kReference:
      detail::gemm_reference(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n,
                             epilogue);
      return;
    case Impl::kBlocked:
      detail::gemm_blocked(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n,
                           epilogue);
      return;
    case Impl::kAvx2:
      detail::gemm_avx2(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue);
      return;
  }
}

void gemm(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
          const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs, float* c,
          std::size_t m, std::size_t k, std::size_t n,
          const GemmEpilogue& epilogue) {
  if (m == 0) return;
  const Impl impl = dispatch();
  const auto rows = [&](std::size_t begin, std::size_t end) {
    gemm_impl(impl, a + static_cast<std::ptrdiff_t>(begin) * a_rs, a_rs, a_cs,
              b, b_rs, b_cs, c + begin * n, end - begin, k, n, epilogue);
  };
  if (m > 1 && m * k * n >= kParallelThreshold) {
    util::ThreadPool::global().parallel_for(m, rows);
  } else {
    rows(0, m);
  }
}

}  // namespace mldist::kernels
