// JSON for the whole repo: JsonBuilder and the durable file writers emit
// it, and util::json::parse is the one reader (DESIGN.md §11).
//
// Emission is by composition: build the child with its own JsonBuilder and
// attach it with raw().  Reading builds a small DOM (json::Value) that
// keeps each value's source span, so a caller can copy a subtree's exact
// bytes back out (WAL payloads, trace events) instead of re-rendering them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace mldist::util {

class JsonBuilder {
 public:
  JsonBuilder& field(const std::string& key, double value);
  JsonBuilder& field(const std::string& key, std::uint64_t value);
  JsonBuilder& field(const std::string& key, int value);
  JsonBuilder& field(const std::string& key, bool value);
  JsonBuilder& field(const std::string& key, const std::string& value);
  JsonBuilder& field(const std::string& key, const char* value);
  /// Attach pre-rendered JSON (an object or array) under `key`.
  JsonBuilder& raw(const std::string& key, const std::string& json);
  /// Splice another builder's fields into this object, preserving order.
  /// The caller guarantees key uniqueness across the two (duplicate keys
  /// are legal JSON but ambiguous to consumers).
  JsonBuilder& merge(const JsonBuilder& other);

  /// The finished object, e.g. {"a":1,"b":"x"}.
  std::string str() const { return "{" + body_ + "}"; }

  /// Render a list of pre-rendered JSON values as an array.
  static std::string array(const std::vector<std::string>& items);
  /// Quote and escape a string as a JSON value.
  static std::string quote(const std::string& s);

 private:
  void key(const std::string& k);

  std::string body_;
};

/// Outcome of write_json_file: converts to true on success, otherwise
/// `error` describes what failed (paths included) for logs and reports.
struct WriteResult {
  std::string error;
  explicit operator bool() const { return error.empty(); }
};

/// Write `json` to `path` (one line, trailing newline), creating parent
/// directories.  Crash-safe: the payload goes to "<path>.tmp", is fsync'd,
/// and is atomically renamed over `path` (the tmp+rename pattern of
/// core::CheckpointManager) with the parent directory fsync'd after the
/// rename — a crash or power loss mid-write leaves the previous artifact,
/// never a torn or vanished results/BENCH_*.json.
WriteResult write_json_file(const std::string& path, const std::string& json);

/// Append one line to a JSONL file (results/history.jsonl, the campaign
/// WAL), creating parent directories.  Multi-process safe: the file is
/// opened with O_APPEND and the record (line + '\n') is issued as a single
/// write(2), so concurrent workers appending to the same history never
/// interleave partial lines — every line in the file is one complete
/// record from one writer.  The tmp+rename dance would clobber earlier
/// lines, which is exactly wrong for an append-only history.
WriteResult append_jsonl(const std::string& path, const std::string& line);

/// fsync `path`'s contents to stable storage.  Returns false (with errno
/// text in `error` when non-null) on failure.  Durable-write helper shared
/// by write_json_file and core::CheckpointManager.
bool fsync_file(const std::string& path, std::string* error = nullptr);

/// fsync the directory containing `path`, making a rename into it durable.
bool fsync_parent_dir(const std::string& path, std::string* error = nullptr);

/// True when `text` is one well-formed JSON value: json::parse without
/// keeping the DOM.  `error` gets "line:col: message" on the first
/// violation.
bool json_validate(std::string_view text, std::string* error = nullptr);

namespace json {

/// Containers nest at most this deep; deeper input is a parse error, so
/// no reader of outside bytes can be driven into unbounded recursion.
inline constexpr int kMaxDepth = 256;

/// One parsed JSON value.  Strings are unescaped; numbers keep their raw
/// text, so 64-bit integers survive exactly (convert with as_u64 or
/// strtod).  Object members stay in source order, duplicates included.
struct Value {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// Line of the value's first byte; a scalar object member reports its
  /// key's line instead, so errors point at `"key": value` as written.
  int line = 1;
  /// [begin, end): the value's bytes in the parsed text.
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string text;  ///< string contents or raw number text
  std::vector<Value> items;                            ///< array elements
  std::vector<std::pair<std::string, Value>> members;  ///< object members

  /// First member named `key`; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// A number in JSON's unsigned-integer grammar that fits in 64 bits.
  bool as_u64(std::uint64_t& out) const;
  /// The value's exact bytes in `text`, the text it was parsed from.
  std::string_view span(std::string_view text) const {
    return text.substr(begin, end - begin);
  }
  const char* kind_name() const;
};

/// Where and why a parse failed.  line and col (1-based, col in bytes)
/// always name a position inside the text or just past its end.
struct Error {
  std::string message;
  std::size_t offset = 0;
  int line = 1;
  int col = 1;
  std::string str() const;  ///< "line:col: message"
};

/// Parse `text` as exactly one RFC 8259 value surrounded by optional
/// whitespace.  Returns false with `error` filled on the first violation.
bool parse(std::string_view text, Value& out, Error* error = nullptr);

/// The repo's one checked text-to-u64 conversion.  `digits` is the whole
/// number: JSON's unsigned-integer grammar (no sign, fraction, exponent or
/// leading zero), or bare hex digits when `base` is 16.  Returns
/// invalid_argument on anything else and result_out_of_range past 2^64-1.
std::errc parse_u64(std::string_view digits, std::uint64_t& out,
                    int base = 10);

/// parse_u64 of decimal `text`, or of the hex digits after a 0x/0X prefix.
std::errc parse_u64_or_hex(std::string_view text, std::uint64_t& out);

}  // namespace json

}  // namespace mldist::util
