// Cross-process metrics shipping (DESIGN.md §16): the wire codec that lets
// a campaign worker's MetricsRegistry totals survive the process boundary.
//
// A worker periodically snapshots its registry, encodes the DELTA since the
// previous ship as one framed line, and writes it to the supervisor over
// the status pipe as an `OBS` record.  The supervisor decodes the record
// (a pure function of the bytes) and folds the result into its own
// registry under a "campaign.worker." prefix, so one /metrics scrape of the
// supervisor shows live training counters from every worker.
//
// Determinism contract (the PR 4 rule, extended across processes): every
// shipped quantity is an unsigned 64-bit integer and every merge is u64
// addition (histogram min/max fold by min/max, which is equally order
// independent), so the merged totals on a completed campaign are BITWISE
// IDENTICAL for any worker count and any interleaving of OBS records —
// exactly the property the in-process registry already has across thread
// counts.  Deltas rather than absolutes make the ship idempotence-free but
// loss-tolerant in the only way that matters: totals are correct as long as
// the final delta of each worker lands (forced after every cell and on
// QUIT), regardless of how the throttled mid-cell ships were timed.
//
// Wire format (one line, no '\t' or '\n', so it frames inside the
// tab-separated worker status protocol): records separated by 0x1e (ASCII
// record separator), fields within a record by 0x1f (unit separator — the
// spec.hpp codec convention; neither byte can appear in a metric name).
// All values are decimal u64 — integers round-trip exactly, so unlike the
// config codec no hex-float rendering is needed.
//
//   C <name> <delta>                                  counter increment
//   G <name> <value>                                  gauge (last-write-wins)
//   H <name> <dcount> <dsum> <min> <max> <b:n;b:n...> histogram delta
//
// Histogram count/sum/buckets are deltas (mergeable by addition); min/max
// are the worker's cumulative values (mergeable by min/max fold).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace mldist::obs {

/// Encode the change from `prev` to `cur` as one wire record.  Returns an
/// empty string when nothing changed.  `prev` may be a default-constructed
/// snapshot (everything in `cur` ships as the delta from zero).  Counters
/// and histogram counts are assumed monotone between the two snapshots (the
/// registry guarantees this outside reset()).
std::string encode_metrics_delta(const MetricsSnapshot& prev,
                                 const MetricsSnapshot& cur);

/// One decoded wire record, under its unprefixed name.
struct MetricDelta {
  enum class Kind { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  /// Counter increment, gauge value, or histogram count delta.
  std::uint64_t value = 0;
  // Histograms only: the sum delta, the sender's cumulative min and max,
  // and (bucket index, count delta) pairs in wire order.
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;

  bool operator==(const MetricDelta&) const = default;
};

/// Decode a shipped line into `out` (appended, in wire order).  Pure: it
/// touches no registry.  Malformed records are skipped and make the result
/// false; the well-formed records around them are still decoded.  A
/// histogram record with a zero count is well-formed but carries nothing,
/// so it decodes to no entry.
bool decode_metrics_delta(std::string_view line,
                          std::vector<MetricDelta>& out);

/// Decode `line` and fold it into the process-global registry with every
/// metric name prefixed by `prefix` (e.g. "campaign.worker.").  Returns
/// false when a record is malformed or its prefixed name cannot be
/// registered (capacity exhausted, or taken by another metric kind); every
/// other record still applies.
bool apply_metrics_delta(std::string_view line, const std::string& prefix);

}  // namespace mldist::obs
