#include "campaign/journal.hpp"

#include <fstream>
#include <string_view>

#include "util/json.hpp"

namespace mldist::campaign {

namespace {

using util::json::Value;

const std::string* string_member(const Value& record, std::string_view key) {
  const Value* v = record.find(key);
  return v != nullptr && v->kind == Value::Kind::kString ? &v->text : nullptr;
}

}  // namespace

bool extract_json_string(const std::string& json, const std::string& key,
                         std::string& out) {
  Value record;
  if (!util::json::parse(json, record)) return false;
  const std::string* value = string_member(record, key);
  if (value == nullptr) return false;
  out = *value;
  return true;
}

JournalState replay_journal(const std::string& path) {
  JournalState state;
  std::ifstream in(path);
  if (!in) return state;
  std::string line;
  while (std::getline(in, line)) {
    Value record;
    if (!util::json::parse(line, record)) continue;  // torn final line
    const std::string* event = string_member(record, "event");
    if (event == nullptr) continue;
    if (*event == "start") {
      state.saw_start = true;
      const std::string* grid = string_member(record, "grid");
      state.grid_crc = grid != nullptr ? *grid : "";
      continue;
    }
    const std::string* cell = string_member(record, "cell");
    if (cell == nullptr) continue;
    if (*event == "trained") {
      const Value* train = record.find("train");
      if (train != nullptr && train->kind == Value::Kind::kObject) {
        state.trained[*cell] = std::string(train->span(line));
      }
    } else if (*event == "done") {
      const Value* payload = record.find("payload");
      if (payload != nullptr && payload->kind == Value::Kind::kObject) {
        const Value* telemetry = record.find("telemetry");
        state.done_payload[*cell] = std::string(payload->span(line));
        state.done_telemetry[*cell] =
            telemetry != nullptr && telemetry->kind == Value::Kind::kObject
                ? std::string(telemetry->span(line))
                : std::string();
        state.trained.erase(*cell);
        state.failed.erase(*cell);
      }
    } else if (*event == "failed") {
      state.failed.insert(*cell);
    }
  }
  return state;
}

}  // namespace mldist::campaign
