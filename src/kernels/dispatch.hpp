// Kernel dispatch registry: one process-wide selection of the compute-kernel
// implementation used by the GEMM (nn::mat) and batched-Gimli hot paths.
//
// Three implementations exist:
//   * reference — the executable specification: textbook loops, no blocking,
//     no SIMD.  Every other kernel is pinned bitwise against it.
//   * blocked   — cache-blocked, register-tiled, packing GEMM and a
//     column-sliced SoA Gimli sweep; plain C++, autovectorizable.
//   * avx2      — the blocked structure with an AVX2+FMA GEMM micro-kernel,
//     compiled separately and gated on runtime CPU detection.  Its Gimli
//     batches run the blocked sweep, which the compiler already vectorises.
//
// Determinism contract (tested by tests/kernel_equiv_test.cpp):
//   * every kernel computes each GEMM output element as the k-ascending
//     fused-multiply-add chain c = fma(a_ik, b_kj, c), so on finite inputs
//     all implementations are BITWISE IDENTICAL — the equivalence tests
//     assert exact equality, and training is bitwise reproducible not just
//     per kernel but across kernels;
//   * batched Gimli is integer-only and trivially bitwise equal to the
//     scalar permutation.
//
// Selection order at first use: MLDIST_KERNEL environment variable
// ("reference" | "blocked" | "avx2") if set and supported (an unsupported
// request warns on stderr and falls back), otherwise the best supported
// implementation (avx2 > blocked).  set_dispatch() overrides at runtime
// (the CLI --kernel flag and the test harness use it).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mldist::kernels {

enum class Impl {
  kReference = 0,
  kBlocked = 1,
  kAvx2 = 2,
};

/// Canonical lower-case name ("reference", "blocked", "avx2").
const char* impl_name(Impl impl);

/// Parse a canonical name; returns false on unknown names.
bool parse_impl(std::string_view name, Impl& out);

/// The one name→backend resolver shared by MLDIST_KERNEL env parsing and
/// the --kernel CLI flag.  On an unknown or unsupported name it emits a
/// structured warning through obs::Logger (component "kernels", with a
/// `source` field saying where the name came from) and returns false
/// leaving `out` untouched.
bool backend_from_string(std::string_view name, Impl& out,
                         std::string_view source = "kernel");

/// True when `impl` can run on this machine (reference/blocked always;
/// avx2 requires the CPU feature and an AVX2-capable build).
bool supported(Impl impl);

/// All supported implementations, in ascending Impl order.
std::vector<Impl> available_impls();

/// The active implementation.  First call resolves MLDIST_KERNEL.
Impl dispatch();

/// Force an implementation; throws std::invalid_argument when unsupported.
void set_dispatch(Impl impl);

/// Convenience: set_dispatch by name; throws std::invalid_argument on
/// unknown or unsupported names (message lists the valid ones).
void set_dispatch(std::string_view name);

/// Raw MLDIST_KERNEL value seen at startup ("" when unset).  Tests use it
/// to skip a forced run on hosts that cannot honour the request.
const std::string& env_request();

}  // namespace mldist::kernels
