// Kernel-equivalence harness (ctest label "kernel"): pins every optimised
// compute kernel bitwise to its executable specification.
//
// Tolerance documentation: the tolerance is EXACT EQUALITY, bit for bit.
// That is achievable — not just hoped for — because every GEMM
// implementation computes each output element as the same k-ascending
// fused-multiply-add chain (c = fma(a_ik, b_kj, c) starting from +0.0f):
// blocking, packing and SIMD only change which elements are computed
// together, never the per-element accumulation order, and the kernels
// library is compiled with -ffp-contract=off so the compiler cannot
// re-associate the chain.  Batched Gimli is integer-only, so exactness
// needs no argument.  Comparisons below go through std::bit_cast so that
// +0/-0 and NaN-payload differences would be caught too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ciphers/gimli.hpp"
#include "core/dataset.hpp"
#include "core/experiment.hpp"
#include "core/oracle.hpp"
#include "core/targets.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gemm.hpp"
#include "kernels/gemm_internal.hpp"
#include "kernels/gimli_batch.hpp"
#include "kernels/norm_act.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/ir/pass.hpp"
#include "nn/mat.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/residual.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

// Every plain new in this binary goes through the counting global operator
// new below (the array and nothrow forms forward to it), so a test can
// assert that a code path never touches the heap.
namespace {
std::atomic<std::size_t> g_heap_allocations{0};
}  // namespace

// GCC pairs an inlined new with the free() inside the matching delete and
// warns; the pairing is exactly right here (malloc in, free out).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace mldist;
using kernels::Impl;
using mldist::util::Xoshiro256;

const Impl kStartupImpl = kernels::dispatch();

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

void expect_bitwise_equal(const std::vector<float>& got,
                          const std::vector<float>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
        << what << ": element " << i << " got " << got[i] << " want "
        << want[i];
  }
}

std::vector<float> random_floats(std::size_t n, Xoshiro256& rng) {
  std::vector<float> v(n);
  for (auto& x : v) {
    // Mixed magnitudes, signs, and exact zeros (bit-packed inputs are ~50%
    // zeros, and zeros exercise the padded-lane logic).
    const float g = static_cast<float>(rng.next_gaussian());
    x = (rng.next_below(4) == 0) ? 0.0f : g;
  }
  return v;
}

// ---------------------------------------------------------------------------
// Dispatch registry
// ---------------------------------------------------------------------------

TEST(KernelDispatch, NamesRoundTrip) {
  for (Impl impl : {Impl::kReference, Impl::kBlocked, Impl::kAvx2}) {
    Impl parsed;
    ASSERT_TRUE(kernels::parse_impl(kernels::impl_name(impl), parsed));
    EXPECT_EQ(parsed, impl);
  }
  Impl parsed;
  EXPECT_FALSE(kernels::parse_impl("sse9", parsed));
  EXPECT_FALSE(kernels::parse_impl("", parsed));
}

TEST(KernelDispatch, PortableImplsAlwaysAvailable) {
  EXPECT_TRUE(kernels::supported(Impl::kReference));
  EXPECT_TRUE(kernels::supported(Impl::kBlocked));
  const auto impls = kernels::available_impls();
  ASSERT_GE(impls.size(), 2u);
}

TEST(KernelDispatch, SetDispatchRejectsUnknownName) {
  EXPECT_THROW(kernels::set_dispatch("not-a-kernel"), std::invalid_argument);
}

TEST(KernelDispatch, SetDispatchSelects) {
  for (Impl impl : kernels::available_impls()) {
    kernels::set_dispatch(impl);
    EXPECT_EQ(kernels::dispatch(), impl);
  }
  kernels::set_dispatch(kStartupImpl);
}

// When ctest forces a path via MLDIST_KERNEL, the process must actually be
// running it (or the host can't honour the request, which is a skip, not a
// silent fallback passing as coverage).
TEST(KernelDispatch, EnvRequestHonoured) {
  const std::string& env = kernels::env_request();
  if (env.empty()) GTEST_SKIP() << "MLDIST_KERNEL not set";
  Impl requested;
  ASSERT_TRUE(kernels::parse_impl(env, requested)) << env;
  if (!kernels::supported(requested)) {
    GTEST_SKIP() << env << " not supported on this machine";
  }
  EXPECT_EQ(kStartupImpl, requested);
}

// ---------------------------------------------------------------------------
// GEMM equivalence
// ---------------------------------------------------------------------------

struct Shape {
  std::size_t m, k, n;
};

// Adversarial shapes: degenerate, tall/skinny, exact register-tile
// multiples (6x16 micro-tile), off-by-one around tile and cache-block
// (KC=256, MC=126, NC=512) boundaries, and pairs straddling the blocked
// driver's bypass (fewer than 16 outputs m*n take the elementwise chain):
// classifier heads (m x k x 2) and Gohr conv products (x 96 x 32).  The
// last shape is above kernels::kParallelThreshold, so the dispatched
// kernels::gemm splits its rows across the pool.
const Shape kShapes[] = {
    {1, 1, 1},    {1, 7, 1},    {7, 1, 3},     {1, 1, 64},   {64, 1, 1},
    {2, 300, 2},  {300, 2, 2},  {2, 2, 300},   {6, 32, 16},  {12, 64, 32},
    {5, 33, 17},  {7, 255, 15}, {13, 256, 16}, {19, 257, 33}, {126, 40, 16},
    {127, 33, 31}, {31, 513, 9}, {64, 100, 520},
    {1, 64, 2},   {7, 130, 2},  {8, 130, 2},   {15, 9, 1},   {16, 9, 1},
    {3, 50, 5},   {1, 40, 16},  {2, 96, 32},   {62, 96, 32},
    {97, 160, 48},
};
static_assert(97 * 160 * 48 >= kernels::kParallelThreshold);

/// Run `fn` as the body of a one-chunk parallel region, where kernels::gemm
/// and kernels::conv1d_forward run unsplit.
template <typename Fn>
void in_parallel_region(Fn&& fn) {
  util::ThreadPool::global().parallel_for(
      1, [&](std::size_t, std::size_t) { fn(); });
}

void run_gemm_all_impls(std::size_t m, std::size_t k, std::size_t n,
                        std::ptrdiff_t a_rs, std::ptrdiff_t a_cs,
                        std::ptrdiff_t b_rs, std::ptrdiff_t b_cs,
                        const std::vector<float>& a,
                        const std::vector<float>& b,
                        const kernels::GemmEpilogue& ep,
                        const std::string& what) {
  std::vector<float> want(m * n);
  kernels::gemm_impl(Impl::kReference, a.data(), a_rs, a_cs, b.data(), b_rs,
                     b_cs, want.data(), m, k, n, ep);
  for (Impl impl : kernels::available_impls()) {
    if (impl == Impl::kReference) continue;
    std::vector<float> got(m * n, -12345.0f);
    kernels::gemm_impl(impl, a.data(), a_rs, a_cs, b.data(), b_rs, b_cs,
                       got.data(), m, k, n, ep);
    expect_bitwise_equal(got, want,
                         what + " impl=" + kernels::impl_name(impl));
  }
  // The dispatched entry point, split across the pool from the threshold
  // and unsplit inside a parallel region, under every backend.
  for (Impl impl : kernels::available_impls()) {
    kernels::set_dispatch(impl);
    std::vector<float> split(m * n, -12345.0f);
    std::vector<float> unsplit(m * n, -12345.0f);
    const auto product = [&](std::vector<float>& c) {
      kernels::gemm(a.data(), a_rs, a_cs, b.data(), b_rs, b_cs, c.data(), m,
                    k, n, ep);
    };
    product(split);
    in_parallel_region([&] { product(unsplit); });
    const std::string tag = what + " gemm impl=" + kernels::impl_name(impl);
    expect_bitwise_equal(split, want, tag + " split");
    expect_bitwise_equal(unsplit, want, tag + " unsplit");
  }
  kernels::set_dispatch(kStartupImpl);
}

TEST(GemmEquivalence, RowMajorShapes) {
  Xoshiro256 rng(0x11);
  for (const Shape& s : kShapes) {
    const auto a = random_floats(s.m * s.k, rng);
    const auto b = random_floats(s.k * s.n, rng);
    run_gemm_all_impls(s.m, s.k, s.n, static_cast<std::ptrdiff_t>(s.k), 1,
                       static_cast<std::ptrdiff_t>(s.n), 1, a, b, {},
                       "NN m=" + std::to_string(s.m) + " k=" +
                           std::to_string(s.k) + " n=" + std::to_string(s.n));
  }
}

TEST(GemmEquivalence, TransposedAOperand) {
  Xoshiro256 rng(0x22);
  for (const Shape& s : kShapes) {
    // A stored K x M (row-major); addressed as A^T via strides (1, m).
    const auto a = random_floats(s.k * s.m, rng);
    const auto b = random_floats(s.k * s.n, rng);
    run_gemm_all_impls(s.m, s.k, s.n, 1, static_cast<std::ptrdiff_t>(s.m),
                       static_cast<std::ptrdiff_t>(s.n), 1, a, b, {},
                       "TN m=" + std::to_string(s.m) + " k=" +
                           std::to_string(s.k) + " n=" + std::to_string(s.n));
  }
}

TEST(GemmEquivalence, TransposedBOperand) {
  Xoshiro256 rng(0x33);
  for (const Shape& s : kShapes) {
    // B stored N x K (row-major); addressed as B^T via strides (1, k).
    const auto a = random_floats(s.m * s.k, rng);
    const auto b = random_floats(s.n * s.k, rng);
    run_gemm_all_impls(s.m, s.k, s.n, static_cast<std::ptrdiff_t>(s.k), 1, 1,
                       static_cast<std::ptrdiff_t>(s.k), a, b, {},
                       "NT m=" + std::to_string(s.m) + " k=" +
                           std::to_string(s.k) + " n=" + std::to_string(s.n));
  }
}

// The blocked driver packs into per-thread grow-only panels sized to the
// call, so once a thread has run a shape, repeating it allocates nothing.
// The shapes are a Gohr conv interior product, on a contiguous A and on the
// conv's overlapping window view (rows 32 floats apart), and one crossing
// every cache block (KC=256, MC=126, NC=512).  Tracing is off, so obs::Span
// is inert.
TEST(GemmAllocation, WarmedCallDoesNotTouchTheHeap) {
  struct View {
    Shape s;
    std::size_t a_rs;
  };
  Xoshiro256 rng(0xaa);
  const std::vector<Impl> impls = kernels::available_impls();
  for (const View& v : {View{{62, 96, 32}, 96}, View{{62, 96, 32}, 32},
                        View{{127, 257, 513}, 257}}) {
    const Shape& s = v.s;
    const auto a = random_floats((s.m - 1) * v.a_rs + s.k, rng);
    const auto b = random_floats(s.k * s.n, rng);
    std::vector<float> c(s.m * s.n);
    for (Impl impl : impls) {
      const auto product = [&] {
        kernels::gemm_impl(impl, a.data(),
                           static_cast<std::ptrdiff_t>(v.a_rs), 1, b.data(),
                           static_cast<std::ptrdiff_t>(s.n), 1, c.data(), s.m,
                           s.k, s.n);
      };
      product();  // warm: metric ids and this thread's pack panels
      const std::size_t before = g_heap_allocations.load();
      product();
      EXPECT_EQ(g_heap_allocations.load() - before, 0u)
          << "impl=" << kernels::impl_name(impl) << " m=" << s.m
          << " k=" << s.k << " n=" << s.n << " a_rs=" << v.a_rs;
    }
  }
}

TEST(GemmEquivalence, FusedEpilogues) {
  Xoshiro256 rng(0x44);
  for (const Shape& s : {Shape{5, 33, 17}, Shape{13, 256, 16},
                         Shape{127, 33, 31}, Shape{1, 1, 1}}) {
    const auto a = random_floats(s.m * s.k, rng);
    const auto b = random_floats(s.k * s.n, rng);
    const auto bias = random_floats(s.n, rng);
    for (kernels::Activation act :
         {kernels::Activation::kNone, kernels::Activation::kRelu,
          kernels::Activation::kLeakyRelu}) {
      kernels::GemmEpilogue ep;
      ep.bias = bias.data();
      ep.act = act;
      ep.alpha = 0.3f;
      run_gemm_all_impls(s.m, s.k, s.n, static_cast<std::ptrdiff_t>(s.k), 1,
                         static_cast<std::ptrdiff_t>(s.n), 1, a, b, ep,
                         "epilogue act=" +
                             std::to_string(static_cast<int>(act)));
    }
  }
}

// The fused epilogue must equal the unfused pipeline (plain GEMM, then bias
// add, then the activation layer's rewrite) bit for bit — that is what
// makes Sequential's inference-time Dense+activation fusion safe.
TEST(GemmEquivalence, FusedMatchesUnfused) {
  Xoshiro256 rng(0x55);
  const std::size_t m = 9, k = 70, n = 23;
  const auto a = random_floats(m * k, rng);
  const auto b = random_floats(k * n, rng);
  const auto bias = random_floats(n, rng);

  std::vector<float> unfused(m * n);
  kernels::gemm_impl(Impl::kReference, a.data(), k, 1, b.data(), n, 1,
                     unfused.data(), m, k, n, {});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float& v = unfused[i * n + j];
      v += bias[j];
      if (v < 0.0f) v *= 0.3f;  // LeakyReLU layer semantics
    }
  }
  kernels::GemmEpilogue ep;
  ep.bias = bias.data();
  ep.act = kernels::Activation::kLeakyRelu;
  ep.alpha = 0.3f;
  for (Impl impl : kernels::available_impls()) {
    std::vector<float> fused(m * n);
    kernels::gemm_impl(impl, a.data(), k, 1, b.data(), n, 1, fused.data(), m,
                       k, n, ep);
    expect_bitwise_equal(fused, unfused,
                         std::string("fused-vs-unfused impl=") +
                             kernels::impl_name(impl));
  }
}

// ---------------------------------------------------------------------------
// Epilogue rows and branch-free activations
// ---------------------------------------------------------------------------

// Values every elementwise stage must treat exactly as the per-element
// spec does.  The NaN is x86's default NaN, the one every invalid
// operation produces, so whichever operand an fma or a vector op
// propagates, a NaN's bits are the same.
const float kSpecials[] = {std::bit_cast<float>(0xffc00000u),
                           0.0f,
                           -0.0f,
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           1e-40f,
                           -1e-40f,
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           1e-30f,
                           -3e38f};

/// random_floats with about one value in three replaced by a special.
std::vector<float> with_specials(std::size_t n, Xoshiro256& rng) {
  std::vector<float> v = random_floats(n, rng);
  for (float& x : v) {
    if (rng.next_below(3) == 0) {
      x = kSpecials[rng.next_below(std::size(kSpecials))];
    }
  }
  return v;
}

// The blocked driver reads a full 6-row strip of a unit-column-stride A in
// place and packs the ragged last strip; it copies a full 16-column B strip
// row by row and gathers the ragged last one.  Each case pins those paths
// and their seams against gemm_reference: A views whose rows overlap (a_rs
// 32 < k = 96, the conv's window view) or are padded (a_rs > k), k across
// KC blocks (257, 513), m around the strip and MC edges, n around the B
// strip edge.  Specials sit in A's first row and B's last column, so the
// other outputs stay finite, and subnormals are sprinkled through both.
TEST(GemmEquivalence, InPlaceStripsAndRowCopies) {
  Xoshiro256 rng(0xbb);
  const auto sprinkle = [&](std::vector<float>& v, std::size_t first,
                            std::size_t stride, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      float& x = v[first + i * stride];
      if (rng.next_below(3) == 0) {
        x = kSpecials[rng.next_below(std::size(kSpecials))];
      }
    }
    for (float& x : v) {
      if (rng.next_below(16) == 0) x = rng.next_below(2) ? 1e-40f : -1e-42f;
    }
  };
  for (const std::size_t k : {std::size_t{96}, std::size_t{257},
                              std::size_t{513}}) {
    for (const std::size_t a_rs : {std::size_t{32}, k, k + 5}) {
      for (const std::size_t m : {6, 7, 11, 12, 13, 126, 127, 131}) {
        for (const std::size_t n : {15, 16, 17, 33}) {
          auto a = random_floats((m - 1) * a_rs + k, rng);
          auto b = random_floats(k * n, rng);
          sprinkle(a, 0, 1, k);      // A's first row
          sprinkle(b, n - 1, n, k);  // B's last column
          run_gemm_all_impls(m, k, n, static_cast<std::ptrdiff_t>(a_rs), 1,
                             static_cast<std::ptrdiff_t>(n), 1, a, b, {},
                             "in-place m=" + std::to_string(m) +
                                 " k=" + std::to_string(k) +
                                 " n=" + std::to_string(n) +
                                 " a_rs=" + std::to_string(a_rs));
        }
      }
    }
  }
}

// All twelve (bias?, norm?, activation) epilogues, at the register tile's
// edges (6 x 16) and across a k block (KC = 256), through every backend's
// gemm_impl and through norm_act_inplace, against apply_epilogue applied to
// gemm_reference's products.  Specials reach the epilogue through the
// products (k = 1 passes A's and B's values through; at k = 257 only A's
// first row carries them, so the other rows stay finite), through every
// epilogue array (std of 0 divides by zero) and, for norm_act_inplace, as
// inputs.
TEST(EpilogueRows, EveryStageCombinationMatchesTheSpec) {
  Xoshiro256 rng(0xe9);
  for (std::size_t m : {1, 5, 6, 7, 13}) {
    for (std::size_t n : {1, 15, 16, 17, 33}) {
      for (std::size_t k : {1, 257}) {
        std::vector<float> a = random_floats(m * k, rng);
        std::vector<float> b = random_floats(k * n, rng);
        const std::vector<float> spiked = with_specials(m * k, rng);
        const std::size_t spiked_count = k == 1 ? m * k : k;
        std::copy_n(spiked.begin(), spiked_count, a.begin());
        if (k == 1) b = with_specials(k * n, rng);
        const auto bias = with_specials(n, rng);
        const auto mean = with_specials(n, rng);
        const auto sd = with_specials(n, rng);
        const auto gamma = with_specials(n, rng);
        const auto beta = with_specials(n, rng);
        const auto direct = with_specials(m * n, rng);
        std::vector<float> product(m * n);
        kernels::gemm_impl(Impl::kReference, a.data(),
                           static_cast<std::ptrdiff_t>(k), 1, b.data(),
                           static_cast<std::ptrdiff_t>(n), 1, product.data(),
                           m, k, n);

        for (int stages = 0; stages < 12; ++stages) {
          kernels::GemmEpilogue ep;
          if (stages & 1) ep.bias = bias.data();
          if (stages & 2) {
            ep.norm_mean = mean.data();
            ep.norm_std = sd.data();
            ep.norm_gamma = gamma.data();
            ep.norm_beta = beta.data();
          }
          ep.act = static_cast<kernels::Activation>(stages / 4);
          ep.alpha = 0.3f;
          const auto spec = [&](const std::vector<float>& in) {
            std::vector<float> out(in.size());
            for (std::size_t i = 0; i < in.size(); ++i) {
              out[i] = kernels::detail::apply_epilogue(in[i], ep, i % n);
            }
            return out;
          };
          const std::string what = "m=" + std::to_string(m) +
                                   " n=" + std::to_string(n) +
                                   " k=" + std::to_string(k) +
                                   " stages=" + std::to_string(stages);
          const std::vector<float> want = spec(product);
          for (Impl impl : kernels::available_impls()) {
            std::vector<float> got(m * n, -12345.0f);
            kernels::gemm_impl(impl, a.data(), static_cast<std::ptrdiff_t>(k),
                               1, b.data(), static_cast<std::ptrdiff_t>(n), 1,
                               got.data(), m, k, n, ep);
            expect_bitwise_equal(
                got, want, what + " gemm impl=" + kernels::impl_name(impl));
          }
          std::vector<float> rows = product;
          kernels::norm_act_inplace(rows.data(), m, n, ep);
          expect_bitwise_equal(rows, want, what + " norm_act");
          rows = direct;
          kernels::norm_act_inplace(rows.data(), m, n, ep);
          expect_bitwise_equal(rows, spec(direct), what + " norm_act direct");
        }
      }
    }
  }
}

// ReLU and LeakyReLU are selects now; they must equal the branchy loops
// they replaced on every special value.  Backward tests the cached input
// with <=, so -0 (and +0) zero or scale the gradient.
TEST(EpilogueRows, BranchFreeActivationsMatchTheBranchyLoops) {
  Xoshiro256 rng(0xac7);
  nn::Mat x(7, 33);
  nn::Mat grad(7, 33);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = kSpecials[i % std::size(kSpecials)];
    grad.data()[i] = (i % 5 == 0) ? kSpecials[(i / 5) % std::size(kSpecials)]
                                  : static_cast<float>(rng.next_gaussian());
  }
  ASSERT_EQ(bits_of(x.data()[2]), bits_of(-0.0f));
  const auto as_vector = [](const nn::Mat& mat) {
    return std::vector<float>(mat.data(), mat.data() + mat.size());
  };
  for (const float alpha : {0.0f, 0.3f}) {
    std::vector<float> fwd = as_vector(x);
    std::vector<float> bwd = as_vector(grad);
    for (std::size_t i = 0; i < fwd.size(); ++i) {
      if (alpha == 0.0f) {
        if (fwd[i] < 0.0f) fwd[i] = 0.0f;
        if (x.data()[i] <= 0.0f) bwd[i] = 0.0f;
      } else {
        if (fwd[i] < 0.0f) fwd[i] *= alpha;
        if (x.data()[i] <= 0.0f) bwd[i] *= alpha;
      }
    }
    std::unique_ptr<nn::Layer> layer;
    if (alpha == 0.0f) {
      layer = std::make_unique<nn::ReLU>();
    } else {
      layer = std::make_unique<nn::LeakyReLU>(alpha);
    }
    const std::string what = layer->name();
    expect_bitwise_equal(as_vector(layer->forward(x, /*training=*/true)), fwd,
                         what + " forward");
    expect_bitwise_equal(as_vector(layer->backward(grad)), bwd,
                         what + " backward");
  }
}

// nn::BatchNorm as it was when it took a sqrt per element inside its row
// loops: the specification its per-feature sqrt must reproduce.
struct PerElementBatchNorm {
  std::vector<float> gamma, beta, run_mean, run_var;
  float momentum, eps;
  std::vector<float> batch_var;
  nn::Mat xhat;

  nn::Mat forward(const nn::Mat& x, bool training) {
    const std::size_t batch = x.rows();
    const std::size_t features = gamma.size();
    nn::Mat y(batch, features);
    if (!training) {
      for (std::size_t n = 0; n < batch; ++n) {
        for (std::size_t j = 0; j < features; ++j) {
          const float xh =
              (x.row(n)[j] - run_mean[j]) / std::sqrt(run_var[j] + eps);
          y.row(n)[j] = gamma[j] * xh + beta[j];
        }
      }
      return y;
    }
    std::vector<float> mean(features, 0.0f);
    batch_var.assign(features, 0.0f);
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t j = 0; j < features; ++j) mean[j] += x.row(n)[j];
    }
    const float inv_b = 1.0f / static_cast<float>(batch);
    for (std::size_t j = 0; j < features; ++j) mean[j] *= inv_b;
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t j = 0; j < features; ++j) {
        const float d = x.row(n)[j] - mean[j];
        batch_var[j] += d * d;
      }
    }
    for (std::size_t j = 0; j < features; ++j) batch_var[j] *= inv_b;
    xhat = nn::Mat(batch, features);
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t j = 0; j < features; ++j) {
        xhat.row(n)[j] =
            (x.row(n)[j] - mean[j]) / std::sqrt(batch_var[j] + eps);
        y.row(n)[j] = gamma[j] * xhat.row(n)[j] + beta[j];
      }
    }
    for (std::size_t j = 0; j < features; ++j) {
      run_mean[j] = momentum * run_mean[j] + (1.0f - momentum) * mean[j];
      run_var[j] = momentum * run_var[j] + (1.0f - momentum) * batch_var[j];
    }
    return y;
  }

  nn::Mat backward(const nn::Mat& g, std::vector<float>& dgamma,
                   std::vector<float>& dbeta) {
    const std::size_t batch = g.rows();
    const std::size_t features = gamma.size();
    const float inv_b = 1.0f / static_cast<float>(batch);
    nn::Mat dx(batch, features);
    std::vector<float> sum_dy(features, 0.0f);
    std::vector<float> sum_dy_xhat(features, 0.0f);
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t j = 0; j < features; ++j) {
        sum_dy[j] += g.row(n)[j];
        sum_dy_xhat[j] += g.row(n)[j] * xhat.row(n)[j];
      }
    }
    dgamma = sum_dy_xhat;
    dbeta = sum_dy;
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t j = 0; j < features; ++j) {
        const float inv_std = 1.0f / std::sqrt(batch_var[j] + eps);
        dx.row(n)[j] = gamma[j] * inv_std *
                       (g.row(n)[j] - inv_b * sum_dy[j] -
                        inv_b * xhat.row(n)[j] * sum_dy_xhat[j]);
      }
    }
    return dx;
  }
};

// BatchNorm takes one sqrt per feature before its row loops; inference
// forward, training forward with its running-statistics update, and
// backward must equal the per-element loops bit for bit.  The features
// have zero, subnormal (~1e-40) and ~1e30 batch variance, one holds a NaN,
// and the running variances cover the same cases; eps 0 makes the sqrt
// itself 0 or subnormal.  The only NaN is x86's default one, so operand
// order cannot change a NaN's bits.
TEST(BatchNormRows, PerFeatureSqrtMatchesThePerElementLoops) {
  constexpr std::size_t kRows = 9;
  constexpr std::size_t kFeatures = 6;
  Xoshiro256 rng(0xb7);
  nn::Mat x(kRows, kFeatures);
  nn::Mat grad(kRows, kFeatures);
  for (std::size_t n = 0; n < kRows; ++n) {
    const float sign = n % 2 == 0 ? 1.0f : -1.0f;
    float* xr = x.row(n);
    xr[0] = 3.0f;
    xr[1] = sign * 1e-20f;
    xr[2] = sign * 1e15f;
    xr[3] = n == 4 ? kSpecials[0] : 0.5f * static_cast<float>(n);
    xr[4] = static_cast<float>(rng.next_gaussian());
    xr[5] = static_cast<float>(rng.next_gaussian()) * 40.0f;
    for (std::size_t j = 0; j < kFeatures; ++j) {
      grad.row(n)[j] = static_cast<float>(rng.next_gaussian());
    }
  }
  const auto as_vector = [](const nn::Mat& mat) {
    return std::vector<float>(mat.data(), mat.data() + mat.size());
  };
  for (const float eps : {1e-5f, 0.0f}) {
    nn::BatchNorm bn(kFeatures, 0.9f, eps);
    PerElementBatchNorm spec{{}, {}, {}, {}, 0.9f, eps, {}, {}};
    const std::vector<nn::ParamView> params = bn.params();
    const std::vector<std::span<float>> state = bn.state();
    for (std::size_t j = 0; j < kFeatures; ++j) {
      params[0].value[j] = static_cast<float>(rng.next_gaussian());
      params[1].value[j] = static_cast<float>(rng.next_gaussian());
      state[0][j] = static_cast<float>(rng.next_gaussian());
    }
    const float run_var[kFeatures] = {0.0f, 1e-41f, 1e30f, kSpecials[0],
                                      1.7f, 0.3f};
    std::copy(std::begin(run_var), std::end(run_var), state[1].begin());
    spec.gamma.assign(params[0].value, params[0].value + kFeatures);
    spec.beta.assign(params[1].value, params[1].value + kFeatures);
    spec.run_mean.assign(state[0].begin(), state[0].end());
    spec.run_var.assign(state[1].begin(), state[1].end());

    const std::string what = "eps=" + std::to_string(eps);
    expect_bitwise_equal(as_vector(bn.forward(x, /*training=*/false)),
                         as_vector(spec.forward(x, false)),
                         what + " inference forward");
    expect_bitwise_equal(as_vector(bn.forward(x, /*training=*/true)),
                         as_vector(spec.forward(x, true)),
                         what + " training forward");
    expect_bitwise_equal(bn.running_mean(), spec.run_mean,
                         what + " running mean");
    expect_bitwise_equal(bn.running_var(), spec.run_var,
                         what + " running variance");
    std::vector<float> dgamma, dbeta;
    expect_bitwise_equal(as_vector(bn.backward(grad)),
                         as_vector(spec.backward(grad, dgamma, dbeta)),
                         what + " backward");
    expect_bitwise_equal({params[0].grad, params[0].grad + kFeatures}, dgamma,
                         what + " dgamma");
    expect_bitwise_equal({params[1].grad, params[1].grad + kFeatures}, dbeta,
                         what + " dbeta");
  }
}

// nn::mat wrappers: identical results under every dispatch selection.
TEST(GemmEquivalence, MatWrappersKernelInvariant) {
  Xoshiro256 rng(0x66);
  nn::Mat a(37, 53);
  nn::Mat b(53, 29);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.next_gaussian());
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<float>(rng.next_gaussian());
  }
  nn::Mat at(53, 37);  // a^T stored explicitly, for matmul_at_b
  for (std::size_t r = 0; r < at.rows(); ++r) {
    for (std::size_t c = 0; c < at.cols(); ++c) at.at(r, c) = a.at(c, r);
  }
  nn::Mat bt(29, 53);  // b^T stored explicitly, for matmul_a_bt
  for (std::size_t r = 0; r < bt.rows(); ++r) {
    for (std::size_t c = 0; c < bt.cols(); ++c) bt.at(r, c) = b.at(c, r);
  }
  const std::vector<float> bias = random_floats(29, rng);

  kernels::set_dispatch(Impl::kReference);
  nn::Mat mm_want, atb_want, abt_want, bias_want;
  nn::matmul(a, b, mm_want);
  nn::matmul_at_b(at, b, atb_want);
  nn::matmul_a_bt(a, bt, abt_want);
  nn::matmul_bias(a, b, bias, bias_want, kernels::Activation::kRelu);

  for (Impl impl : kernels::available_impls()) {
    kernels::set_dispatch(impl);
    nn::Mat mm, atb, abt, biased;
    nn::matmul(a, b, mm);
    nn::matmul_at_b(at, b, atb);
    nn::matmul_a_bt(a, bt, abt);
    nn::matmul_bias(a, b, bias, biased, kernels::Activation::kRelu);
    const std::string tag = std::string("impl=") + kernels::impl_name(impl);
    for (std::size_t i = 0; i < mm.size(); ++i) {
      ASSERT_EQ(bits_of(mm.data()[i]), bits_of(mm_want.data()[i])) << tag;
      ASSERT_EQ(bits_of(biased.data()[i]), bits_of(bias_want.data()[i]))
          << tag;
    }
    for (std::size_t i = 0; i < atb.size(); ++i) {
      ASSERT_EQ(bits_of(atb.data()[i]), bits_of(atb_want.data()[i])) << tag;
    }
    for (std::size_t i = 0; i < abt.size(); ++i) {
      ASSERT_EQ(bits_of(abt.data()[i]), bits_of(abt_want.data()[i])) << tag;
    }
  }
  kernels::set_dispatch(kStartupImpl);
}

// Sequential's IR-compiled inference path (Dense + ReLU/LeakyReLU fused
// into the GEMM epilogue by the default pass pipeline) must return bitwise
// identical logits to the layer-by-layer training-mode forward.
TEST(GemmEquivalence, SequentialFusionMatchesUnfusedForward) {
  for (Impl impl : kernels::available_impls()) {
    kernels::set_dispatch(impl);
    Xoshiro256 rng(0x77);
    nn::Sequential model;
    model.add(std::make_unique<nn::Dense>(24, 40, rng));
    model.add(std::make_unique<nn::ReLU>());
    model.add(std::make_unique<nn::Dense>(40, 40, rng));
    model.add(std::make_unique<nn::LeakyReLU>(0.3f));
    model.add(std::make_unique<nn::Dense>(40, 2, rng));
    nn::Mat x(17, 24);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(rng.next_gaussian());
    }
    const nn::Mat fused = model.forward(x, /*training=*/false);
    const nn::Mat unfused = model.forward(x, /*training=*/true);
    ASSERT_EQ(fused.size(), unfused.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
      ASSERT_EQ(bits_of(fused.data()[i]), bits_of(unfused.data()[i]))
          << "impl=" << kernels::impl_name(impl);
    }
  }
  kernels::set_dispatch(kStartupImpl);
}

// Per-pass determinism contract: every optimisation pass in the default
// pipeline must preserve the bitwise output of the unoptimised graph.  The
// model exercises every fusable shape (dense+act, dense+bn+act, conv+bn+act,
// residual add+act, dropout identity, opaque tanh), and the pipeline is
// grown one pass at a time so a regression names the exact pass at fault.
TEST(GemmEquivalence, EachIrPassPreservesBitwiseOutput) {
  for (Impl impl : kernels::available_impls()) {
    kernels::set_dispatch(impl);
    Xoshiro256 rng(0x99);
    nn::Sequential model;
    model.add(std::make_unique<nn::Dense>(12, 18, rng));
    model.add(std::make_unique<nn::Tanh>());
    model.add(std::make_unique<nn::Dense>(18, 18, rng));
    model.add(std::make_unique<nn::LeakyReLU>(0.3f));
    model.add(std::make_unique<nn::Dense>(18, 18, rng));
    model.add(std::make_unique<nn::BatchNorm>(18));
    model.add(std::make_unique<nn::ReLU>());
    model.add(std::make_unique<nn::Conv1D>(6, 3, 4, 3, rng));
    model.add(std::make_unique<nn::BatchNorm>(24));
    model.add(std::make_unique<nn::ReLU>());
    auto block = std::make_unique<nn::Residual>();
    block->add(std::make_unique<nn::Conv1D>(6, 4, 4, 3, rng));
    block->add(std::make_unique<nn::BatchNorm>(24));
    model.add(std::move(block));
    model.add(std::make_unique<nn::ReLU>());
    model.add(std::make_unique<nn::Dropout>(0.25f));
    model.add(std::make_unique<nn::GlobalMaxPool1D>(6, 4));
    model.add(std::make_unique<nn::Dense>(4, 3, rng));
    nn::Mat warm(16, 12);
    for (std::size_t i = 0; i < warm.size(); ++i) {
      warm.data()[i] = static_cast<float>(rng.next_gaussian());
    }
    // Non-trivial BatchNorm running statistics (fresh mean 0 / var 1 would
    // mask mean/var indexing bugs in the fused epilogues).
    for (int i = 0; i < 3; ++i) (void)model.forward(warm, /*training=*/true);
    nn::Mat x(9, 12);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = static_cast<float>(rng.next_gaussian());
    }
    const nn::Mat want = model.forward_reference(x);
    std::vector<std::string> pipeline;  // start with the empty pipeline
    const auto check = [&](const std::string& stage) {
      model.set_pipeline(pipeline);
      const nn::Mat got = model.forward(x, /*training=*/false);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(bits_of(got.data()[i]), bits_of(want.data()[i]))
            << "impl=" << kernels::impl_name(impl) << " pipeline=[" << stage
            << "] element " << i;
      }
    };
    check("none");
    std::string stage;
    for (const auto& name : nn::ir::PassManager::default_pipeline()) {
      pipeline.push_back(name);
      stage += stage.empty() ? name : "," + name;
      check(stage);
    }
  }
  kernels::set_dispatch(kStartupImpl);
}

// ---------------------------------------------------------------------------
// Batched Gimli equivalence
// ---------------------------------------------------------------------------

TEST(GimliBatchEquivalence, AllRoundWindowsAllImpls) {
  Xoshiro256 rng(0x88);
  // 13 = 8-lane block + scalar tail; 29 = 16-lane + 8-lane blocks + tail.
  for (const std::size_t n : {13u, 29u}) {
    for (int hi = 1; hi <= ciphers::kGimliRounds; ++hi) {
      for (int lo = 1; lo <= hi; ++lo) {
        std::vector<std::uint32_t> soa(12 * n);
        for (auto& w : soa) w = rng.next_u32();
        // Scalar specification: ciphers::gimli_rounds per state.
        std::vector<ciphers::GimliState> want(n);
        for (std::size_t s = 0; s < n; ++s) {
          for (int w = 0; w < 12; ++w) {
            want[s][static_cast<std::size_t>(w)] =
                soa[static_cast<std::size_t>(w) * n + s];
          }
          ciphers::gimli_rounds(want[s], hi, lo);
        }
        for (Impl impl : kernels::available_impls()) {
          std::vector<std::uint32_t> got = soa;
          kernels::gimli_rounds_batch_impl(impl, got.data(), n, hi, lo);
          for (std::size_t s = 0; s < n; ++s) {
            for (int w = 0; w < 12; ++w) {
              ASSERT_EQ(got[static_cast<std::size_t>(w) * n + s],
                        want[s][static_cast<std::size_t>(w)])
                  << "impl=" << kernels::impl_name(impl) << " n=" << n
                  << " hi=" << hi << " lo=" << lo << " state=" << s
                  << " word=" << w;
            }
          }
        }
      }
    }
  }
}

TEST(GimliBatchEquivalence, AosOverloadMatchesScalar) {
  Xoshiro256 rng(0x99);
  for (std::size_t n : {1u, 3u, 8u, 64u}) {
    std::vector<ciphers::GimliState> states(n);
    for (auto& st : states) {
      for (auto& w : st) w = rng.next_u32();
    }
    std::vector<ciphers::GimliState> want = states;
    for (auto& st : want) ciphers::gimli_rounds(st, 24, 1);
    ciphers::gimli_rounds_batch(states.data(), n, 24, 1);
    EXPECT_EQ(states, want) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Batched data collection
// ---------------------------------------------------------------------------

// The batched Gimli targets must produce byte-identical differences to the
// scalar per-sample loop, from the identical RNG stream.
TEST(BatchedCollection, GimliTargetsBatchMatchesLoop) {
  const core::GimliHashTarget hash_plain(8);
  const core::GimliHashTarget hash_prefix(5, {4, 12}, 2);
  const core::GimliCipherTarget cipher_full(8);
  const core::GimliCipherTarget cipher_split(9, {4, 12}, true);
  const core::Target* targets[] = {&hash_plain, &hash_prefix, &cipher_full,
                                   &cipher_split};
  for (const core::Target* target : targets) {
    for (std::size_t count : {1u, 3u, 8u, 33u}) {
      Xoshiro256 rng_loop(0xabcdef);
      std::vector<std::vector<std::vector<std::uint8_t>>> want(count);
      for (std::size_t s = 0; s < count; ++s) {
        target->sample(rng_loop, want[s]);
      }
      Xoshiro256 rng_batch(0xabcdef);
      core::DiffBatch got;
      target->sample_batch(rng_batch, count, got);
      ASSERT_EQ(got.size(), want.size()) << target->name();
      EXPECT_EQ(got, want) << target->name() << " count=" << count;
      // Identical randomness consumed: the streams must line up afterwards.
      EXPECT_EQ(rng_loop.next_u64(), rng_batch.next_u64()) << target->name();
    }
  }
}

// Whole-pipeline check: collect_dataset bytes are invariant to the kernel
// implementation (the batched permutation runs under each forced path).
TEST(BatchedCollection, DatasetBytesKernelInvariant) {
  const core::GimliHashTarget target(6);
  core::CollectOptions options;
  options.seed = 0x5eed;
  options.threads = 1;

  kernels::set_dispatch(Impl::kReference);
  const nn::Dataset want = core::collect_dataset(target, 50, options);
  for (Impl impl : kernels::available_impls()) {
    kernels::set_dispatch(impl);
    const nn::Dataset got = core::collect_dataset(target, 50, options);
    ASSERT_EQ(got.x.size(), want.x.size());
    EXPECT_EQ(got.y, want.y);
    EXPECT_EQ(std::memcmp(got.x.data(), want.x.data(),
                          want.x.size() * sizeof(float)),
              0)
        << "impl=" << kernels::impl_name(impl);
  }
  kernels::set_dispatch(kStartupImpl);
}

// ---------------------------------------------------------------------------
// Training trajectory
// ---------------------------------------------------------------------------

// What a short fit leaves behind: the bits of each epoch's train loss and
// CRC-32s of the final params() and state() bytes.
struct Trajectory {
  std::string arch;
  std::vector<std::uint64_t> loss_bits;
  std::uint32_t params_crc = 0;
  std::uint32_t state_crc = 0;
};

Trajectory fit_trajectory(const std::string& arch) {
  core::ExperimentConfig config;
  config.target = "toy";
  config.arch = arch;
  config.seed = 0x7a11;
  const auto target = config.make_target();
  core::CollectOptions collect;
  collect.seed = 0xda7a;
  // 400 rows: six full batches of 64 and a ragged one of 16.
  const nn::Dataset data = core::collect_dataset(*target, 200, collect);
  auto model = config.make_model(*target);
  nn::Adam opt(config.learning_rate);
  nn::FitOptions fit;
  fit.epochs = 2;
  fit.batch_size = 64;
  Trajectory t{arch, {}, 0, 0};
  fit.on_epoch = [&](const nn::EpochStats& s) {
    t.loss_bits.push_back(std::bit_cast<std::uint64_t>(s.train_loss));
  };
  model->fit(data, opt, fit);
  for (const nn::ParamView& p : model->params()) {
    t.params_crc = util::crc32(p.value, p.size * sizeof(float), t.params_crc);
  }
  for (const std::span<float> s : model->state()) {
    t.state_crc = util::crc32(s.data(), s.size_bytes(), t.state_crc);
  }
  return t;
}

void expect_same_trajectory(const Trajectory& got, const Trajectory& want,
                            const std::string& tag) {
  ASSERT_EQ(got.loss_bits.size(), want.loss_bits.size()) << tag;
  for (std::size_t e = 0; e < want.loss_bits.size(); ++e) {
    EXPECT_EQ(got.loss_bits[e], want.loss_bits[e])
        << tag << " epoch " << e + 1 << " loss "
        << std::bit_cast<double>(got.loss_bits[e]) << std::hex << " bits 0x"
        << got.loss_bits[e];
  }
  EXPECT_EQ(got.params_crc, want.params_crc)
      << tag << std::hex << " params crc 0x" << got.params_crc;
  EXPECT_EQ(got.state_crc, want.state_crc)
      << tag << std::hex << " state crc 0x" << got.state_crc;
}

// Every backend trains the same model, bit for bit: the forward, dX and dW
// products of fit all keep each element's fma chain.  In the Release build
// every backend must reach these constants.  They depend on the compiler's
// code outside the kernels library too: at -O3 GCC contracts some of nn's
// multiply-adds (Adam::step, Dense's weight init, Sequential::fit) into
// fmas, which the sanitizer presets' -O1 does not, so there the backends
// need only agree with each other.  The one legitimate reason to re-pin is
// a libm, toolchain or Release-flag change (Adam's sqrt, the loss's exp and
// log, those contractions); a kernel change that moves them has broken the
// determinism contract.
TEST(TrainingTrajectory, EveryBackendMatchesThePin) {
  const Trajectory pins[] = {
      {"default-mlp",
       {0x3fe380819a5c28f6ull, 0x3fdbe0735dc28f5cull},
       0xb6d15b23u,
       0x0u},
      {"MLP IV",
       {0x3fe41be24547ae14ull, 0x3fdd40fb55851eb8ull},
       0x086e4664u,
       0x0u},
      {"gohr-net/1",
       {0x3fe877d3b191eb85ull, 0x3fe1f313e6f33333ull},
       0x0422e564u,
       0x019a5b27u},
  };
  for (const Trajectory& pin : pins) {
    std::vector<Trajectory> runs;
    for (Impl impl : kernels::available_impls()) {
      kernels::set_dispatch(impl);
      runs.push_back(fit_trajectory(pin.arch));
      const std::string tag = pin.arch + " impl=" + kernels::impl_name(impl);
#ifdef MLDIST_TRAJECTORY_PINNED
      expect_same_trajectory(runs.back(), pin, tag);
#else
      expect_same_trajectory(runs.back(), runs.front(), tag);
#endif
    }
  }
  kernels::set_dispatch(kStartupImpl);
}

}  // namespace
