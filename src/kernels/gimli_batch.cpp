#include "kernels/gimli_batch.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "kernels/gimli_batch_internal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mldist::kernels {

namespace {

/// kernels.gimli.{calls,states,rounds}.<impl> — same shape as the GEMM
/// tallies: deterministic quantities, sharded lock-free recording.
struct GimliMetrics {
  obs::MetricId calls[3];
  obs::MetricId states[3];
  obs::MetricId rounds[3];

  GimliMetrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    for (Impl impl : {Impl::kReference, Impl::kBlocked, Impl::kAvx2}) {
      const auto i = static_cast<std::size_t>(impl);
      const std::string suffix = impl_name(impl);
      calls[i] = reg.counter("kernels.gimli.calls." + suffix);
      states[i] = reg.counter("kernels.gimli.states." + suffix);
      rounds[i] = reg.counter("kernels.gimli.rounds." + suffix);
    }
  }
};

}  // namespace
namespace detail {
namespace {

// Lane-blocked sweep: pull L states into a 12xL register block, run the
// whole round window there (swaps become register/array renames), store
// back.  The fixed inner trip count of L lanes autovectorizes.
template <int L>
void gimli_rounds_lanes(std::uint32_t* soa, std::size_t n, std::size_t s0,
                        int hi, int lo) {
  std::uint32_t v[12][L];
  for (int w = 0; w < 12; ++w) {
    const std::uint32_t* src = soa + static_cast<std::size_t>(w) * n + s0;
    for (int l = 0; l < L; ++l) v[w][l] = src[l];
  }
  for (int r = hi; r >= lo; --r) {
    for (int j = 0; j < 4; ++j) {
      for (int l = 0; l < L; ++l) {
        const std::uint32_t x = std::rotl(v[j][l], 24);
        const std::uint32_t y = std::rotl(v[4 + j][l], 9);
        const std::uint32_t z = v[8 + j][l];
        v[8 + j][l] = x ^ (z << 1) ^ ((y & z) << 2);
        v[4 + j][l] = y ^ x ^ ((x | z) << 1);
        v[j][l] = z ^ y ^ ((x & y) << 3);
      }
    }
    if (r % 4 == 0) {
      const std::uint32_t rc = kGimliRcBase ^ static_cast<std::uint32_t>(r);
      for (int l = 0; l < L; ++l) {
        std::swap(v[0][l], v[1][l]);
        std::swap(v[2][l], v[3][l]);
        v[0][l] ^= rc;
      }
    } else if (r % 4 == 2) {
      for (int l = 0; l < L; ++l) {
        std::swap(v[0][l], v[2][l]);
        std::swap(v[1][l], v[3][l]);
      }
    }
  }
  for (int w = 0; w < 12; ++w) {
    std::uint32_t* dst = soa + static_cast<std::size_t>(w) * n + s0;
    for (int l = 0; l < L; ++l) dst[l] = v[w][l];
  }
}

}  // namespace

void gimli_batch_reference(std::uint32_t* soa, std::size_t n, int hi,
                           int lo) {
  for (std::size_t s = 0; s < n; ++s) gimli_rounds_one(soa + s, n, hi, lo);
}

void gimli_batch_blocked(std::uint32_t* soa, std::size_t n, int hi, int lo) {
  std::size_t s = 0;
  for (; s + 16 <= n; s += 16) gimli_rounds_lanes<16>(soa, n, s, hi, lo);
  // One 8-lane block before the scalar tail: tails of 8-15 states are
  // common (a 32-input collect slab at t = 2 leaves 12 of its 96 states
  // after the 16-lane blocks) and would otherwise all run scalar.
  if (s + 8 <= n) {
    gimli_rounds_lanes<8>(soa, n, s, hi, lo);
    s += 8;
  }
  for (; s < n; ++s) gimli_rounds_one(soa + s, n, hi, lo);
}

}  // namespace detail

void gimli_rounds_batch_impl(Impl impl, std::uint32_t* soa, std::size_t n,
                             int hi, int lo) {
  assert(1 <= lo && lo <= hi && hi <= 24);
  if (n == 0) return;
  if (!supported(impl)) {
    throw std::invalid_argument(std::string("kernel implementation '") +
                                impl_name(impl) +
                                "' is not supported on this machine");
  }
  {
    static const GimliMetrics metrics;
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const auto i = static_cast<std::size_t>(impl);
    reg.add(metrics.calls[i]);
    reg.add(metrics.states[i], n);
    reg.add(metrics.rounds[i], n * static_cast<std::size_t>(hi - lo + 1));
  }
  obs::Span span("gimli", "kernels");
  span.arg("impl", impl_name(impl))
      .arg("states", static_cast<std::uint64_t>(n))
      .arg("rounds", hi - lo + 1);
  switch (impl) {
    case Impl::kReference:
      detail::gimli_batch_reference(soa, n, hi, lo);
      return;
    case Impl::kBlocked:
    case Impl::kAvx2:  // the blocked sweep autovectorises; see DESIGN.md §9
      detail::gimli_batch_blocked(soa, n, hi, lo);
      return;
  }
}

void gimli_rounds_batch(std::uint32_t* soa, std::size_t n, int hi, int lo) {
  gimli_rounds_batch_impl(dispatch(), soa, n, hi, lo);
}

}  // namespace mldist::kernels
