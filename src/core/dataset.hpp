// Offline-phase data collection (Algorithm 2, lines 2-9): turn oracle/target
// queries into a labelled bit-feature data set.  Sample row = the output
// difference unpacked into one float per bit; label = difference index i.
//
// Two entry points:
//  - the legacy serial path, which threads one caller-owned RNG through
//    every query in order (kept as the bitwise-stable reference and for
//    callers that interleave collection with other draws from the same
//    stream), and
//  - the parallel engine, which partitions the base inputs into a fixed
//    chunk grid, derives one independent RNG stream per chunk from a master
//    seed (util::derive_stream_seed), and fans the chunks out over the
//    process thread pool (util::ThreadPool::global()).  Each chunk writes a
//    disjoint row range of the pre-sized matrix, so the data set is a pure
//    function of (seed, chunk grid) — bitwise identical for 1, 2 or N
//    workers (the contract kernels::gemm documents for its row split).
#pragma once

#include "core/oracle.hpp"
#include "core/telemetry.hpp"
#include "nn/model.hpp"
#include "util/rng.hpp"

namespace mldist::core {

/// Configuration of the parallel collection engine.
struct CollectOptions {
  std::uint64_t seed = 0x600d5eedULL;  ///< master seed of the chunk streams
  /// Worker cap on the process pool: 0 = the whole pool (hardware sized),
  /// 1 = inline serial execution, N = at most N chunks at a time.  Never
  /// affects the collected bytes, only the wall time.
  std::size_t threads = 0;
  /// Base inputs per chunk.  Part of the determinism contract: changing it
  /// changes the derived streams and therefore the data.
  std::size_t chunk_base_inputs = 64;
};

/// Query `oracle` for `base_inputs` fresh base inputs (producing
/// base_inputs * t labelled rows) and pack them into a Dataset.
nn::Dataset collect_dataset(const Oracle& oracle, std::size_t base_inputs,
                            util::Xoshiro256& rng);

/// Convenience: collect from the real primitive (the offline phase always
/// trains against the cipher).
nn::Dataset collect_dataset(const Target& target, std::size_t base_inputs,
                            util::Xoshiro256& rng);

/// Parallel engine: collect `base_inputs` queries with per-chunk derived
/// RNG streams.  Fills `telemetry` (queries/sec, rows/sec, wall time,
/// thread count) when given.
nn::Dataset collect_dataset(const Oracle& oracle, std::size_t base_inputs,
                            const CollectOptions& options,
                            PhaseTelemetry* telemetry = nullptr);

nn::Dataset collect_dataset(const Target& target, std::size_t base_inputs,
                            const CollectOptions& options,
                            PhaseTelemetry* telemetry = nullptr);

}  // namespace mldist::core
