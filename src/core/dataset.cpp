#include "core/dataset.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bits.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mldist::core {

namespace {

/// Deterministic collection tallies: the query/row counts are functions of
/// (base_inputs, t) alone, never of chunking or worker count, so they are
/// bitwise identical for any --threads setting.
struct CollectMetrics {
  obs::MetricId queries;
  obs::MetricId rows;
  obs::MetricId chunks;

  CollectMetrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    queries = reg.counter("core.oracle.queries");
    rows = reg.counter("core.collect.rows");
    chunks = reg.counter("core.collect.chunks");
  }
};

const CollectMetrics& collect_metrics() {
  static const CollectMetrics metrics;
  return metrics;
}

/// Collect base inputs [s_begin, s_end) into their rows of `ds`, drawing all
/// randomness from `rng`.  Shared by the serial path (one call spanning
/// everything) and the parallel engine (one call per chunk).
void collect_span(const Oracle& oracle, std::size_t s_begin, std::size_t s_end,
                  util::Xoshiro256& rng, nn::Dataset& ds) {
  const std::size_t t = oracle.num_differences();
  {
    // Algorithm 2 issues t+1 primitive queries per base input (the base
    // plus its t partners); each yields t labelled rows.
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    const CollectMetrics& metrics = collect_metrics();
    reg.add(metrics.queries, (s_end - s_begin) * (t + 1));
    reg.add(metrics.rows, (s_end - s_begin) * t);
  }
  // Query in slabs so batched oracles amortise per-call overhead and the
  // Gimli targets run the batched permutation kernel.  The query_batch
  // contract (RNG consumed in per-sample order, byte-identical output)
  // makes the dataset bytes invariant to the slab size — and to whether
  // this loop or the old one-query-at-a-time loop collected them.
  constexpr std::size_t kSlab = 32;
  DiffBatch batch;
  for (std::size_t s = s_begin; s < s_end; s += kSlab) {
    const std::size_t count = std::min(kSlab, s_end - s);
    oracle.query_batch(rng, count, batch);
    for (std::size_t b = 0; b < count; ++b) {
      for (std::size_t i = 0; i < t; ++i) {
        const std::size_t row = (s + b) * t + i;
        util::bits_to_floats(batch[b][i], ds.x.row(row));
        ds.y[row] = static_cast<int>(i);
      }
    }
  }
}

nn::Dataset make_empty(const Oracle& oracle, std::size_t base_inputs) {
  nn::Dataset ds;
  ds.x = nn::Mat(base_inputs * oracle.num_differences(),
                 oracle.output_bytes() * 8);
  ds.y.resize(base_inputs * oracle.num_differences());
  return ds;
}

}  // namespace

nn::Dataset collect_dataset(const Oracle& oracle, std::size_t base_inputs,
                            util::Xoshiro256& rng) {
  nn::Dataset ds = make_empty(oracle, base_inputs);
  collect_span(oracle, 0, base_inputs, rng, ds);
  return ds;
}

nn::Dataset collect_dataset(const Target& target, std::size_t base_inputs,
                            util::Xoshiro256& rng) {
  const CipherOracle oracle(target);
  return collect_dataset(oracle, base_inputs, rng);
}

nn::Dataset collect_dataset(const Oracle& oracle, std::size_t base_inputs,
                            const CollectOptions& options,
                            PhaseTelemetry* telemetry) {
  const util::Timer timer;
  nn::Dataset ds = make_empty(oracle, base_inputs);

  const std::size_t chunk = std::max<std::size_t>(1, options.chunk_base_inputs);
  const std::size_t num_chunks = (base_inputs + chunk - 1) / chunk;
  obs::Span collect_span_trace("collect", "core");
  collect_span_trace.arg("base_inputs", static_cast<std::uint64_t>(base_inputs))
      .arg("chunks", static_cast<std::uint64_t>(num_chunks));
  // One derived stream per chunk: the grid is fixed by (seed, chunk size)
  // alone, so the bytes cannot depend on how chunks land on workers.
  const auto chunks = [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      obs::Span chunk_span("collect.chunk", "core");
      chunk_span.arg("chunk", static_cast<std::uint64_t>(c));
      obs::MetricsRegistry::global().add(collect_metrics().chunks);
      util::Xoshiro256 rng(util::derive_stream_seed(options.seed, c));
      const std::size_t s_begin = c * chunk;
      const std::size_t s_end = std::min(base_inputs, s_begin + chunk);
      collect_span(oracle, s_begin, s_end, rng, ds);
    }
  };

  const std::size_t threads = util::ThreadPool::global().parallel_for(
      num_chunks, chunks, options.threads);

  if (telemetry != nullptr) {
    telemetry->seconds = timer.seconds();
    // Algorithm 2 issues t+1 primitive queries per base input (the base
    // plus its t partners).
    telemetry->queries = base_inputs * (oracle.num_differences() + 1);
    telemetry->rows = ds.size();
    telemetry->threads = threads;
  }
  return ds;
}

nn::Dataset collect_dataset(const Target& target, std::size_t base_inputs,
                            const CollectOptions& options,
                            PhaseTelemetry* telemetry) {
  const CipherOracle oracle(target);
  return collect_dataset(oracle, base_inputs, options, telemetry);
}

}  // namespace mldist::core
