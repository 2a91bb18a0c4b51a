// Process-wide metrics registry: named counters, gauges and histograms with
// per-thread shards merged deterministically at read time.
//
// Hot-path contract (the reason this exists next to PhaseTelemetry instead
// of replacing it): recording a metric from inside a parallel_for body must
// not serialise the workers.  Each thread owns a shard — a fixed-capacity
// array of relaxed-atomic cells indexed by metric id — and increments only
// its own cells, so the hot path is one relaxed fetch_add and never takes a
// lock.  Locks appear only on cold paths: registering a metric name,
// creating/retiring a shard, and snapshot().
//
// Determinism rule (DESIGN.md §10, matching the PR 1 contract): every
// aggregate is an unsigned 64-bit integer.  Integer addition is associative
// and commutative, so the merged total is independent of how work was
// sharded across threads and of the order shards are merged in — a counter
// of deterministic quantities (kernel calls, FLOPs, rows, oracle queries)
// is BITWISE IDENTICAL for any worker count.  Durations are recorded as
// integer nanoseconds; they merge just as deterministically, but their
// values are wall-clock measurements and therefore vary run to run.  By
// convention such metric names end in "_ns" (or "_us"), and the
// thread-count-invariance test skips exactly that suffix.
//
// Threads that exit (a stopped daemon's event loop and model workers, test
// threads, pools a test builds) retire their shard into a retained
// accumulator under the registry lock, so no count is ever lost and shard
// memory does not grow with the number of threads ever created.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mldist::obs {

/// Index into the registry's per-kind metric table, stable for the process
/// lifetime.  Call sites cache it (typically in a function-local static) so
/// the name lookup happens once.
using MetricId = std::size_t;

/// Histograms bucket integer values by bit width: bucket b counts values v
/// with bit_width(v) == b, i.e. v in [2^(b-1), 2^b).  64 buckets cover the
/// full uint64 range; bucket 0 counts exact zeros.
constexpr std::size_t kHistogramBuckets = 65;

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }

  /// Upper bound on the q-quantile (0 < q <= 1) derived from the bit-width
  /// buckets: the upper edge of the first bucket whose cumulative count
  /// reaches ceil(q * count), clamped into [min, max].  Bucket b covers
  /// [2^(b-1), 2^b - 1], so the bound is tight to within one power of two;
  /// when every observation landed in one bucket the clamp against max
  /// makes it exact for the top of the distribution (and exact everywhere
  /// when min == max).  Returns 0 for an empty histogram.
  std::uint64_t quantile(double q) const;
  std::uint64_t p50() const { return quantile(0.50); }
  std::uint64_t p90() const { return quantile(0.90); }
  std::uint64_t p99() const { return quantile(0.99); }
};

/// One merged, immutable view of the registry.  Entries are sorted by name,
/// so two snapshots of identical state render identical JSON.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// The counter's merged value; 0 when absent.
  std::uint64_t counter(std::string_view name) const;
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,...}}}
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry.  Constructed before any shard and never
  /// destroyed, so a thread's exit can always retire() its shard into it.
  static MetricsRegistry& global();

  // --- registration (cold; takes the registry lock) ----------------------
  /// Find-or-create a metric of the given kind.  Throws std::length_error
  /// when the fixed capacity for that kind is exhausted and
  /// std::invalid_argument when `name` is already registered as a different
  /// kind.
  MetricId counter(std::string_view name);
  MetricId gauge(std::string_view name);
  MetricId histogram(std::string_view name);

  // --- recording (hot; lock-free, relaxed atomics on this thread's shard) -
  void add(MetricId id, std::uint64_t delta = 1);
  void observe(MetricId id, std::uint64_t value);
  /// Fold a pre-aggregated histogram delta (count/sum/buckets add, min/max
  /// fold) into this thread's shard — the bulk form of observe() used when
  /// merging a shipped cross-process delta (obs/ship.hpp).  `delta.min` and
  /// `delta.max` are taken as observed values, so a zero-count delta is a
  /// no-op.
  void merge_histogram(MetricId id, const HistogramSnapshot& delta);
  /// Gauges are last-write-wins (not sharded): a gauge records a fact, not
  /// a sum, so it lives in the registry under the lock.  Cold path only.
  void set_gauge(MetricId id, std::uint64_t value);

  // --- reading (cold; takes the registry lock) ---------------------------
  /// Merge all live shards plus the retained totals of exited threads.
  MetricsSnapshot snapshot() const;
  /// Convenience for tests/views: one merged counter by name (0 if absent).
  std::uint64_t counter_value(std::string_view name) const;

  /// Zero every cell (live shards and retained totals) without forgetting
  /// registered names.  Callers must ensure no recorder is concurrently
  /// active (tests and benches reset between phases); concurrent writers
  /// are not undefined behaviour (cells are atomic) but their deltas may
  /// land on either side of the reset.
  void reset();

  // Fixed shard capacities.  Registration beyond these throws; call sites
  // register a statically bounded set of names (per-layer metrics are
  // bounded by the largest architecture in the zoo).
  static constexpr std::size_t kMaxCounters = 512;
  static constexpr std::size_t kMaxGauges = 64;
  static constexpr std::size_t kMaxHistograms = 128;

 private:
  struct HistCells {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~0ULL};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };

  /// One thread's private cells.  Only the owning thread writes; snapshot()
  /// reads concurrently, which is why every cell is atomic (relaxed — the
  /// registry lock orders shard list membership, not cell values, and a
  /// snapshot racing a live recorder may or may not see the last few
  /// increments, which is inherent to sampling a running system).
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
    std::vector<HistCells> hists{std::vector<HistCells>(kMaxHistograms)};
  };

  struct GaugeCell {
    std::uint64_t value = 0;
    bool set = false;
  };

  MetricsRegistry();
  ~MetricsRegistry();

  MetricId register_metric(std::string_view name, int kind, std::size_t cap);
  Shard& local_shard();
  void retire(Shard* shard);
  void merge_into_retired(const Shard& shard);  ///< caller holds mutex_
  void merge_shard_locked(const Shard& shard, MetricsSnapshot& into) const;

  friend struct ShardHandle;

  mutable std::mutex mutex_;
  // name -> (kind, id); names_[kind] lists names in id order.
  std::vector<std::pair<std::string, std::pair<int, MetricId>>> directory_;
  std::array<std::vector<std::string>, 3> names_;
  std::vector<Shard*> shards_;        ///< live, in creation order
  Shard retired_;                     ///< summed totals of exited threads
  std::array<GaugeCell, kMaxGauges> gauges_;
};

// --- convenience wrappers over the global registry -------------------------

/// Add `delta` to the counter `name` (cold name lookup; prefer caching the
/// id via MetricsRegistry::counter for per-batch call sites).
void count(std::string_view name, std::uint64_t delta = 1);
/// Record one duration observation, converting seconds to integer ns.
void observe_seconds(std::string_view name, double seconds);

}  // namespace mldist::obs
