// AVX2+FMA micro-kernel for the blocked GEMM driver.  This translation unit
// is compiled with -mavx2 -mfma when the compiler supports them; the rest of
// the library never executes this code unless runtime CPU detection
// (kernels::supported) says the host has both features.
//
// The 6x16 register tile holds 12 accumulator ymm registers; each fma step
// broadcasts one A element per row (from a packed strip, or in place from
// the caller's rows) and multiplies it against two packed B vectors.
// _mm256_fmadd_ps performs the identical fused operation as the scalar
// std::fmaf chain, lane by lane, so the result is bitwise equal to the
// reference kernel.
#include "kernels/gemm.hpp"
#include "kernels/gemm_internal.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace mldist::kernels {

bool detail_avx2_compiled() {
#if defined(__AVX2__) && defined(__FMA__)
  return true;
#else
  return false;
#endif
}

namespace detail {

#if defined(__AVX2__) && defined(__FMA__)
namespace {

// Row r's A value at step kk is a[r * a_rs + kk] in place and
// a[kk * kMR + r] packed; the packed form's offsets are compile-time
// constants.
template <bool kInPlace>
void micro_avx2(std::size_t kc, const float* a, std::ptrdiff_t a_rs,
                const float* bp, float* acc) {
  static_assert(kMR == 6 && kNR == 16,
                "micro_avx2 is written for a 6x16 register tile");
  const std::ptrdiff_t rs = kInPlace ? a_rs : 1;
  constexpr std::size_t kStep = kInPlace ? 1 : kMR;
  const float* a0 = a;
  const float* a1 = a + rs;
  const float* a2 = a + 2 * rs;
  const float* a3 = a + 3 * rs;
  const float* a4 = a + 4 * rs;
  const float* a5 = a + 5 * rs;

  __m256 c00 = _mm256_load_ps(acc + 0 * kNR);
  __m256 c01 = _mm256_load_ps(acc + 0 * kNR + 8);
  __m256 c10 = _mm256_load_ps(acc + 1 * kNR);
  __m256 c11 = _mm256_load_ps(acc + 1 * kNR + 8);
  __m256 c20 = _mm256_load_ps(acc + 2 * kNR);
  __m256 c21 = _mm256_load_ps(acc + 2 * kNR + 8);
  __m256 c30 = _mm256_load_ps(acc + 3 * kNR);
  __m256 c31 = _mm256_load_ps(acc + 3 * kNR + 8);
  __m256 c40 = _mm256_load_ps(acc + 4 * kNR);
  __m256 c41 = _mm256_load_ps(acc + 4 * kNR + 8);
  __m256 c50 = _mm256_load_ps(acc + 5 * kNR);
  __m256 c51 = _mm256_load_ps(acc + 5 * kNR + 8);

  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kNR);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kNR + 8);
    const std::size_t at = kk * kStep;

    __m256 av = _mm256_broadcast_ss(a0 + at);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(a1 + at);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(a2 + at);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(a3 + at);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(a4 + at);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(a5 + at);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }

  _mm256_store_ps(acc + 0 * kNR, c00);
  _mm256_store_ps(acc + 0 * kNR + 8, c01);
  _mm256_store_ps(acc + 1 * kNR, c10);
  _mm256_store_ps(acc + 1 * kNR + 8, c11);
  _mm256_store_ps(acc + 2 * kNR, c20);
  _mm256_store_ps(acc + 2 * kNR + 8, c21);
  _mm256_store_ps(acc + 3 * kNR, c30);
  _mm256_store_ps(acc + 3 * kNR + 8, c31);
  _mm256_store_ps(acc + 4 * kNR, c40);
  _mm256_store_ps(acc + 4 * kNR + 8, c41);
  _mm256_store_ps(acc + 5 * kNR, c50);
  _mm256_store_ps(acc + 5 * kNR + 8, c51);
}

}  // namespace

void gemm_avx2(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
               const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
               float* c, std::size_t m, std::size_t k, std::size_t n,
               const GemmEpilogue& epilogue) {
  gemm_blocked_driver(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue,
                      {&micro_avx2<false>, &micro_avx2<true>});
}

#else  // !(__AVX2__ && __FMA__)

// Build without AVX2 support: supported(kAvx2) is false, so this entry is
// unreachable through dispatch; delegate to blocked for safety.
void gemm_avx2(const float* a, std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
               const float* b, std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
               float* c, std::size_t m, std::size_t k, std::size_t n,
               const GemmEpilogue& epilogue) {
  gemm_blocked(a, a_rs, a_cs, b, b_rs, b_cs, c, m, k, n, epilogue);
}

#endif

}  // namespace detail
}  // namespace mldist::kernels
