// Kernel probe: the measured peaks the per-layer kernel figures are read
// against, taken in the same benchmark run.
//
//   * GEMM: a 128x128x128 gemm_impl on the dispatched implementation, the
//     peak kernels.gemm_roofline_share divides by.
//   * Gimli: gimli_rounds_batch_impl on every supported implementation at
//     the size one offline-collection slab hands the kernel (32 base inputs
//     x 3 states for Gimli-Cipher with t = 2, 7 rounds), next to the
//     implementation dispatch() picks.
#include <string>
#include <vector>

#include "common.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gemm.hpp"
#include "kernels/gimli_batch.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace mldist;

constexpr int kTimings = 7;  // medians are taken over this many timings

double gemm_gflops(kernels::Impl impl, util::Xoshiro256& rng) {
  constexpr std::size_t n = 128;
  constexpr int calls = 40;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (float& v : a) v = static_cast<float>(rng.next_u64() % 1000) * 1e-3f;
  for (float& v : b) v = static_cast<float>(rng.next_u64() % 1000) * 1e-3f;
  std::vector<double> rates;
  for (int t = 0; t < kTimings; ++t) {
    const util::Timer timer;
    for (int i = 0; i < calls; ++i) {
      kernels::gemm_impl(impl, a.data(), n, 1, b.data(), n, 1, c.data(), n, n,
                         n);
    }
    rates.push_back(2.0 * n * n * n * calls / timer.seconds() * 1e-9);
  }
  return median(rates);
}

double gimli_mstates(kernels::Impl impl, std::size_t states, int rounds,
                     util::Xoshiro256& rng) {
  constexpr int calls = 2000;
  std::vector<std::uint32_t> soa(12 * states);
  for (std::uint32_t& w : soa) w = static_cast<std::uint32_t>(rng.next_u64());
  std::vector<double> rates;
  for (int t = 0; t < kTimings; ++t) {
    const util::Timer timer;
    for (int i = 0; i < calls; ++i) {
      kernels::gimli_rounds_batch_impl(impl, soa.data(), states, rounds, 1);
    }
    rates.push_back(static_cast<double>(states) * calls / timer.seconds() *
                    1e-6);
  }
  return median(rates);
}

}  // namespace

std::string probe_kernels(std::uint64_t seed) {
  constexpr std::size_t kSlabStates = 32 * 3;
  constexpr int kRounds = 7;
  util::Xoshiro256 rng(seed);
  const kernels::Impl picked = kernels::dispatch();
  util::JsonBuilder gimli;
  for (const kernels::Impl impl : kernels::available_impls()) {
    gimli.field(kernels::impl_name(impl),
                gimli_mstates(impl, kSlabStates, kRounds, rng));
  }
  util::JsonBuilder j;
  j.field("dispatch", kernels::impl_name(picked))
      .field("gemm_peak_gflops", gemm_gflops(picked, rng))
      .field("gimli_slab_states", static_cast<std::uint64_t>(kSlabStates))
      .field("gimli_rounds", kRounds)
      .raw("gimli_mstates_per_s", gimli.str());
  return j.str();
}

}  // namespace perfbench
