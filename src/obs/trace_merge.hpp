// Merge per-process Chrome trace_event files into one timeline
// (DESIGN.md §16).
//
// A sharded campaign leaves one trace file per worker process (obs/trace
// writes them; campaign workers flush periodically, so even a SIGKILLed
// worker leaves its last atomically-written — truncated but valid — file).
// merge_trace_files() stitches them into a single trace_event JSON that
// Perfetto / chrome://tracing loads as ONE timeline with one pid lane per
// input file:
//
//   * every event's "pid" is rewritten to the file's lane number (inputs
//     are lane 1, 2, ... in the order given — callers sort for
//     determinism), and a process_name metadata row labels the lane with
//     the input's file stem;
//   * every event's "ts" is offset by the difference between the file's
//     otherData.trace_epoch_ns and the earliest epoch across the inputs,
//     so spans line up on the wall clock they actually ran on (the steady
//     clock's epoch is shared by all processes on a host);
//   * otherData carries the summed dropped_events, the lane count and the
//     common epoch.
//
// Each input goes through util::json, the repo's one JSON reader.  Event
// rows are copied from their source spans with only the "pid" and "ts"
// values spliced, so every other byte of a row survives the merge
// unchanged; a file that does not parse, or lacks traceEvents or
// otherData.trace_epoch_ns, is skipped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mldist::obs {

struct TraceMergeResult {
  std::size_t lanes = 0;           ///< input files merged
  std::size_t events = 0;          ///< non-metadata rows in the output
  std::uint64_t dropped = 0;       ///< summed otherData.dropped_events
  std::uint64_t epoch_ns = 0;      ///< earliest input trace_epoch_ns
};

/// Merge `inputs` (paths to obs/trace JSON files, lane order = list order)
/// into `output` (written atomically via util::write_json_file).  Returns
/// false with `error` filled when no input is readable/parsable or the
/// write fails; inputs that fail to parse are skipped with their path noted
/// in `error` only if ALL fail.
bool merge_trace_files(const std::vector<std::string>& inputs,
                       const std::string& output,
                       TraceMergeResult* result = nullptr,
                       std::string* error = nullptr);

/// The "worker-*.trace.json" files of `dir`, sorted by filename so lane
/// numbering is deterministic.  Missing directory = empty list.
std::vector<std::string> list_trace_files(const std::string& dir);

}  // namespace mldist::obs
