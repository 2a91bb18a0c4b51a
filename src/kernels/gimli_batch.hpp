// Batched Gimli permutation: apply the round window [hi..lo] of the Gimli
// countdown to n independent 384-bit states at once.
//
// Layout is column-sliced SoA: soa[w * n + s] holds word w (0..11) of state
// s (0..n-1), i.e. the same word of consecutive states is contiguous, so the
// per-round SP-box sweeps map directly onto SIMD lanes.
//
// The round logic mirrors ciphers::gimli_rounds (Algorithm 1 of the paper:
// SP-box on all four columns, Small-Swap + round constant when r % 4 == 0,
// Big-Swap when r % 4 == 2, counting r DOWN from hi to lo); the kernels
// library keeps its own copy so it depends only on mldist_util-level
// primitives, and tests/kernel_equiv_test.cpp pins every implementation
// against the scalar ciphers::gimli_rounds for all windows 1..24.  All
// operations are integer, so every implementation is bitwise identical.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/dispatch.hpp"

namespace mldist::kernels {

/// Apply rounds hi..lo (1 <= lo <= hi <= 24) to n SoA states using the
/// process-wide dispatch() implementation.  n == 0 is a no-op.
void gimli_rounds_batch(std::uint32_t* soa, std::size_t n, int hi, int lo);

/// Same with an explicit implementation (throws std::invalid_argument when
/// unsupported on this machine).
void gimli_rounds_batch_impl(Impl impl, std::uint32_t* soa, std::size_t n,
                             int hi, int lo);

namespace detail {

void gimli_batch_reference(std::uint32_t* soa, std::size_t n, int hi, int lo);
/// 16-lane blocks, one 8-lane block, then scalar states.  The avx2
/// dispatch runs this sweep too (DESIGN.md §9).
void gimli_batch_blocked(std::uint32_t* soa, std::size_t n, int hi, int lo);

}  // namespace detail

}  // namespace mldist::kernels
