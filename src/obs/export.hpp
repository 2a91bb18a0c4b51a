// Prometheus text exposition (version 0.0.4) rendered from a
// MetricsSnapshot — the wire half of the registry, consumed by the serving
// daemon's /metrics endpoint (serve/daemon.hpp) or dumped directly by tools.
//
// Name mapping: registry names are dotted ("core.oracle.queries"); exported
// names are "mldist_" + the name with every character outside
// [a-zA-Z0-9_:] replaced by '_'.  Counters gain the "_total" suffix the
// Prometheus convention expects (unless the name already ends in it);
// gauges and histograms keep their name, so the "_ns" wall-clock suffix of
// DESIGN.md §10 survives into the exposition — the unit stays visible in
// the metric name, and the HELP line spells it out.
//
// Histograms: the registry buckets by bit width (bucket b counts values v
// with bit_width(v) == b, i.e. v in [2^(b-1), 2^b)), which maps exactly
// onto Prometheus cumulative buckets with le = 2^b - 1.  Only boundaries up
// to the highest non-empty bucket are emitted (plus the mandatory +Inf), so
// an idle histogram costs two lines, not 65.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace mldist::obs {

/// "mldist_" + sanitised name (+ "_total" when `counter`).
std::string prometheus_name(std::string_view raw, bool counter);

/// The full exposition: one HELP/TYPE pair plus samples per metric, plus a
/// "mldist_build_info" gauge carrying the run manifest as labels.
std::string render_prometheus(const MetricsSnapshot& snapshot);

}  // namespace mldist::obs
