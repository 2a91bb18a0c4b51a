// The campaign write-ahead log (ISSUE 7): campaign.state.jsonl.
//
// Every state transition the supervisor commits — lease, trained, done,
// reclaim, failed, interrupted — is one appended JSON line (via
// util::append_jsonl, whose O_APPEND single-write(2) contract keeps records
// whole under concurrency).  "Write-ahead" in the recovery sense: a cell
// only counts as finished once its "done" record (carrying the full pinned
// payload) is on the WAL; the history.jsonl line is derived from it, so a
// supervisor killed between the two reconciles by re-emitting history from
// the WAL — never by re-running the cell.
//
// Replay reads each line with util::json, the repo's one JSON reader, and
// keeps "payload"/"telemetry"/"train" as their source spans: the bytes come
// back exactly as journaled, which is what makes payload pinning bitwise.
//
// Record shapes (one per line, "event" first):
//   {"event":"start","campaign":...,"cells":N,"seed":S,"grid":"crc",
//    "manifest":{...}}
//   {"event":"lease","cell":"id","index":n,"attempt":k,"worker":pid}
//   {"event":"trained","cell":"id","index":n,"train":{train_json()}}
//   {"event":"done","cell":"id","index":n,"payload":{...},"telemetry":{...}}
//   {"event":"reclaim","cell":"id","index":n,"attempt":k,"reason":"died|
//    hung|diverged|error","latency_ns":L}
//   {"event":"failed","cell":"id","index":n,"attempts":k,"reason":...}
//   {"event":"interrupted"}   {"event":"end","done":D,"failed":F}
#pragma once

#include <map>
#include <set>
#include <string>

namespace mldist::campaign {

/// The string value of top-level member `key` of the JSON object `json`
/// (fully unescaped).  False when `json` does not parse, or the key is
/// absent or not a string.
bool extract_json_string(const std::string& json, const std::string& key,
                         std::string& out);

/// Everything a relaunched supervisor needs to know about prior progress,
/// keyed by cell id.
struct JournalState {
  std::map<std::string, std::string> done_payload;    ///< pinned payload JSON
  std::map<std::string, std::string> done_telemetry;  ///< sidecar JSON
  std::set<std::string> failed;                       ///< permanently failed
  /// Cells whose offline phase was journaled (the train_json() object's
  /// bytes): resumable from the model snapshot without retraining.  A
  /// "trained" record whose "train" is not an object is ignored.
  std::map<std::string, std::string> trained;
  bool saw_start = false;
  /// The expanded grid's fingerprint from the latest "start" record (see
  /// campaign::grid_crc); empty when that record has none.  A resume is
  /// refused unless it equals the spec's fingerprint, so a journal whose
  /// start record lacks the field never resumes.
  std::string grid_crc;
};

/// Replay `path` (missing file = empty state).  Later records win: a
/// "done" after a "trained" clears the trained entry; a torn final line
/// (crash mid-append cannot happen under append_jsonl's contract, but a
/// full disk can truncate) is skipped.
JournalState replay_journal(const std::string& path);

}  // namespace mldist::campaign
