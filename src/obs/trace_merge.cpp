#include "obs/trace_merge.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>

#include "obs/manifest.hpp"
#include "util/json.hpp"

namespace mldist::obs {

namespace {

namespace fs = std::filesystem;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return static_cast<bool>(in);
}

/// Microseconds with the sub-µs kept as three decimals — the same rendering
/// obs/trace uses, so a merged file round-trips through another merge.
std::string us_string(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

/// A trace "ts" (JSON number text, µs) in ns; digits past the third
/// decimal are dropped.  False for a sign or an exponent.
bool us_to_ns(std::string_view us, std::uint64_t& ns) {
  if (us.find_first_of("-eE") != std::string_view::npos) return false;
  const std::size_t dot = std::min(us.find('.'), us.size());
  std::uint64_t whole = 0;
  if (util::json::parse_u64(us.substr(0, dot), whole) != std::errc() ||
      whole > UINT64_MAX / 1000) {
    return false;
  }
  ns = whole * 1000;
  std::uint64_t scale = 100;
  for (std::size_t i = dot + 1; i < us.size() && scale > 0; ++i) {
    ns += static_cast<std::uint64_t>(us[i] - '0') * scale;
    scale /= 10;
  }
  return true;
}

/// One event row: its bytes verbatim plus where its "pid" and "ts" values
/// sit in them, so rebasing splices those two spans and copies every other
/// byte unchanged.
struct Row {
  std::string text;
  std::size_t pid_begin = 0, pid_end = 0;  ///< empty span: no "pid"
  std::size_t ts_begin = 0, ts_end = 0;    ///< empty span: "ts" not rebased
  std::uint64_t ts_ns = 0;
};

struct ParsedLane {
  std::string label;                 ///< input file stem, lane display name
  std::uint64_t epoch_ns = 0;        ///< otherData.trace_epoch_ns
  std::uint64_t dropped = 0;         ///< otherData.dropped_events
  std::vector<Row> events;           ///< non-metadata rows
};

/// Read the event rows and otherData fields of one obs/trace file.
bool parse_trace_file(const std::string& path, ParsedLane& lane,
                      std::string* error) {
  using util::json::Value;
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = path + ": " + why;
    return false;
  };
  std::string text;
  if (!read_file(path, text)) return fail("unreadable");
  Value doc;
  util::json::Error parse_error;
  if (!util::json::parse(text, doc, &parse_error)) {
    return fail(parse_error.str());
  }
  const Value* events = doc.find("traceEvents");
  if (events == nullptr || events->kind != Value::Kind::kArray) {
    return fail("no traceEvents array");
  }
  const Value* other = doc.find("otherData");
  const Value* epoch =
      other != nullptr ? other->find("trace_epoch_ns") : nullptr;
  if (epoch == nullptr || !epoch->as_u64(lane.epoch_ns)) {
    return fail("no otherData.trace_epoch_ns");
  }
  if (const Value* dropped = other->find("dropped_events")) {
    dropped->as_u64(lane.dropped);  // optional
  }
  for (const Value& event : events->items) {
    if (event.kind != Value::Kind::kObject) continue;
    // Metadata rows are re-authored per lane by the merger.
    const Value* ph = event.find("ph");
    if (ph != nullptr && ph->kind == Value::Kind::kString && ph->text == "M") {
      continue;
    }
    Row row;
    row.text = std::string(event.span(text));
    if (const Value* pid = event.find("pid")) {
      row.pid_begin = pid->begin - event.begin;
      row.pid_end = pid->end - event.begin;
    }
    const Value* ts = event.find("ts");
    if (ts != nullptr && ts->kind == Value::Kind::kNumber &&
        us_to_ns(ts->text, row.ts_ns)) {
      row.ts_begin = ts->begin - event.begin;
      row.ts_end = ts->end - event.begin;
    }
    lane.events.push_back(std::move(row));
  }
  std::string stem = fs::path(path).filename().string();
  if (const std::size_t dot = stem.find(".trace.json");
      dot != std::string::npos) {
    stem.resize(dot);
  }
  lane.label = stem;
  return true;
}

/// Rewrite one event row for its lane: "pid" becomes the lane number and
/// "ts" is shifted from the file's local epoch onto the common one.
std::string rebase_event(const Row& row, std::size_t lane,
                         std::uint64_t offset_ns) {
  struct Splice {
    std::size_t begin, end;
    std::string with;
  };
  std::vector<Splice> splices;
  if (row.pid_end > row.pid_begin) {
    splices.push_back({row.pid_begin, row.pid_end, std::to_string(lane)});
  }
  if (offset_ns != 0 && row.ts_end > row.ts_begin) {
    splices.push_back({row.ts_begin, row.ts_end,
                       us_string(row.ts_ns + offset_ns)});
  }
  // Back to front, so each splice leaves the earlier spans' offsets valid.
  std::sort(splices.begin(), splices.end(),
            [](const Splice& a, const Splice& b) { return a.begin > b.begin; });
  std::string out = row.text;
  for (const Splice& s : splices) out.replace(s.begin, s.end - s.begin, s.with);
  return out;
}

}  // namespace

std::vector<std::string> list_trace_files(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file(ec)) continue;
    const std::string name = de.path().filename().string();
    if (name.rfind("worker-", 0) == 0 &&
        name.size() >= 11 && name.compare(name.size() - 11, 11,
                                          ".trace.json") == 0) {
      files.push_back(de.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool merge_trace_files(const std::vector<std::string>& inputs,
                       const std::string& output, TraceMergeResult* result,
                       std::string* error) {
  std::vector<ParsedLane> lanes;
  std::string first_error;
  for (const std::string& path : inputs) {
    ParsedLane lane;
    std::string lane_error;
    if (parse_trace_file(path, lane, &lane_error)) {
      lanes.push_back(std::move(lane));
    } else if (first_error.empty()) {
      first_error = lane_error;
    }
  }
  if (lanes.empty()) {
    if (error != nullptr) {
      *error = first_error.empty() ? "trace merge: no input files"
                                   : first_error;
    }
    return false;
  }

  std::uint64_t epoch = lanes.front().epoch_ns;
  for (const ParsedLane& lane : lanes) epoch = std::min(epoch, lane.epoch_ns);

  std::vector<std::string> rows;
  std::uint64_t dropped = 0;
  std::size_t events = 0;
  for (std::size_t n = 0; n < lanes.size(); ++n) {
    const ParsedLane& lane = lanes[n];
    const std::size_t pid = n + 1;
    util::JsonBuilder meta;
    meta.field("name", "process_name")
        .field("ph", "M")
        .field("pid", static_cast<std::uint64_t>(pid));
    util::JsonBuilder meta_args;
    meta_args.field("name", lane.label);
    meta.raw("args", meta_args.str());
    rows.push_back(meta.str());
    const std::uint64_t offset = lane.epoch_ns - epoch;
    for (const Row& row : lane.events) {
      rows.push_back(rebase_event(row, pid, offset));
    }
    dropped += lane.dropped;
    events += lane.events.size();
  }

  util::JsonBuilder other;
  other.field("dropped_events", dropped)
      .field("lanes", static_cast<std::uint64_t>(lanes.size()))
      .field("trace_epoch_ns", epoch)
      .raw("manifest", RunManifest::current().to_json());
  util::JsonBuilder doc;
  doc.raw("traceEvents", util::JsonBuilder::array(rows))
      .field("displayTimeUnit", "ms")
      .raw("otherData", other.str());
  const util::WriteResult written = util::write_json_file(output, doc.str());
  if (!written) {
    if (error != nullptr) *error = written.error;
    return false;
  }
  if (result != nullptr) {
    result->lanes = lanes.size();
    result->events = events;
    result->dropped = dropped;
    result->epoch_ns = epoch;
  }
  return true;
}

}  // namespace mldist::obs
