#include "util/json.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

namespace mldist::util {

namespace {

template <typename Real>
std::string render_real(Real value) {
  if (!std::isfinite(value)) return "null";  // JSON has no NaN/Inf
  char buf[32];  // the longest shortest double, -2.2250738585072014e-308, is 24
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

}  // namespace

void JsonBuilder::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += quote(k) + ":";
}

JsonBuilder& JsonBuilder::field(const std::string& k, double value) {
  key(k);
  body_ += number(value);
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, float value) {
  key(k);
  body_ += number(value);
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, int value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, const std::string& value) {
  key(k);
  body_ += quote(value);
  return *this;
}

JsonBuilder& JsonBuilder::field(const std::string& k, const char* value) {
  return field(k, std::string(value));
}

JsonBuilder& JsonBuilder::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

JsonBuilder& JsonBuilder::merge(const JsonBuilder& other) {
  if (other.body_.empty()) return *this;
  if (!body_.empty()) body_ += ",";
  body_ += other.body_;
  return *this;
}

std::string JsonBuilder::array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

std::string JsonBuilder::number(double value) { return render_real(value); }

std::string JsonBuilder::number(float value) { return render_real(value); }

std::string JsonBuilder::quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {

std::string errno_text() { return std::strerror(errno); }

/// write(2) all of `data` to `fd`, retrying EINTR and short writes.
bool write_fd_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool fsync_fd(int fd) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  // Some filesystems reject fsync on directories; treat EINVAL as a no-op
  // rather than a durability failure the caller can do anything about.
  return rc == 0 || errno == EINVAL;
}

}  // namespace

bool fsync_file(const std::string& path, std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "fsync_file: cannot open " + path + ": " + errno_text();
    }
    return false;
  }
  const bool ok = fsync_fd(fd);
  if (!ok && error != nullptr) {
    *error = "fsync_file: fsync " + path + ": " + errno_text();
  }
  ::close(fd);
  return ok;
}

bool fsync_parent_dir(const std::string& path, std::string* error) {
  const std::filesystem::path p(path);
  std::string dir = p.has_parent_path() ? p.parent_path().string() : ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "fsync_parent_dir: cannot open " + dir + ": " + errno_text();
    }
    return false;
  }
  const bool ok = fsync_fd(fd);
  if (!ok && error != nullptr) {
    *error = "fsync_parent_dir: fsync " + dir + ": " + errno_text();
  }
  ::close(fd);
  return ok;
}

WriteResult write_json_file(const std::string& path, const std::string& json) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  // Durable atomic publish (the CheckpointManager pattern): write the
  // payload to a sibling tmp file, fsync it so the bytes are on stable
  // storage *before* the rename makes them visible, rename over the
  // destination, then fsync the directory so the rename itself survives a
  // power cut.  Readers and a crashed writer both see either the old
  // artifact or the new one — never a truncated or empty file.
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return {"write_json_file: cannot open " + tmp +
              " for writing: " + errno_text()};
    }
    const std::string payload = json + "\n";
    if (!write_fd_all(fd, payload.data(), payload.size())) {
      const std::string why = errno_text();
      ::close(fd);
      std::filesystem::remove(tmp, ec);
      return {"write_json_file: write to " + tmp + " failed: " + why};
    }
    if (!fsync_fd(fd)) {
      const std::string why = errno_text();
      ::close(fd);
      std::filesystem::remove(tmp, ec);
      return {"write_json_file: fsync " + tmp + " failed: " + why};
    }
    ::close(fd);
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return {"write_json_file: rename " + tmp + " -> " + path +
            " failed: " + ec.message()};
  }
  fsync_parent_dir(path);  // best-effort: the rename is already atomic
  return {};
}

WriteResult append_jsonl(const std::string& path, const std::string& line) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  // O_APPEND + one write(2) per record: POSIX guarantees the offset seek
  // and the write are one atomic step, so records from concurrent
  // processes (campaign workers, the supervisor, bench runs) land whole —
  // lines never interleave mid-record.  Pipe-style short writes cannot
  // split a record either: regular-file writes of this size complete in
  // one syscall, and the EINTR/short-write loop below only re-enters for
  // signals, each retry still appending contiguously at EOF only if the
  // first write wrote nothing.
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return {"append_jsonl: cannot open " + path +
            " for append: " + errno_text()};
  }
  const std::string record = line + "\n";
  if (!write_fd_all(fd, record.data(), record.size())) {
    const std::string why = errno_text();
    ::close(fd);
    return {"append_jsonl: write to " + path + " failed: " + why};
  }
  ::close(fd);
  return {};
}

namespace json {

namespace {

/// Thrown inside the parser only; parse() turns it into an Error.
struct Failure {
  std::string message;
  std::size_t offset;
};

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xc0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xe0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (cp & 0x3f));
  }
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Recursive descent over RFC 8259 with line tracking.  Raw newlines can
/// only appear in whitespace (strings reject them), so counting them in
/// skip_ws() keeps `line_` exact.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  void parse(Value& out) {
    parse_value(out, 0);
    skip_ws();
    if (pos_ < text_.size()) fail("trailing content after the JSON value");
  }

 private:
  [[noreturn]] void fail(std::string message) const {
    fail_at(pos_, std::move(message));
  }
  [[noreturn]] static void fail_at(std::size_t offset, std::string message) {
    throw Failure{std::move(message), offset};
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
      } else if (c != ' ' && c != '\t' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  /// Parse one value into `v`, which must be default-constructed.
  void parse_value(Value& v, int depth) {
    skip_ws();
    const char c = peek();
    v.line = line_;
    v.begin = pos_;
    if ((c == '{' || c == '[') && depth >= kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth));
    }
    switch (c) {
      case '{':
        parse_object(v, depth + 1);
        break;
      case '[':
        parse_array(v, depth + 1);
        break;
      case '"':
        v.kind = Value::Kind::kString;
        v.text = parse_string();
        break;
      case 't':
        v.kind = Value::Kind::kBool;
        v.boolean = true;
        expect_word("true");
        break;
      case 'f':
        v.kind = Value::Kind::kBool;
        expect_word("false");
        break;
      case 'n':
        expect_word("null");
        break;
      default:
        if (c != '-' && !is_digit(c)) {
          fail(std::string("unexpected character '") + c + "'");
        }
        v.kind = Value::Kind::kNumber;
        v.text = parse_number();
    }
    v.end = pos_;
  }

  void expect_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("expected '" + std::string(word) + "'");
    }
    pos_ += word.size();
  }

  void digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && is_digit(text_[pos_])) ++pos_;
    if (pos_ == start) fail("malformed number");
  }

  std::string parse_number() {
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
      if (pos_ < text_.size() && is_digit(text_[pos_])) {
        fail("leading zero in number");
      }
    } else {
      digits();
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      digits();
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Four hex digits at `pos_`, just past a \u.
  std::uint32_t hex4() {
    std::uint64_t cp = 0;
    if (text_.size() - pos_ < 4 ||
        parse_u64(text_.substr(pos_, 4), cp, 16) != std::errc()) {
      fail("malformed \\u escape");
    }
    pos_ += 4;
    return static_cast<std::uint32_t>(cp);
  }

  /// The one string unescaper: every RFC 8259 escape, with \uXXXX (and
  /// surrogate pairs) rendered as UTF-8.  `pos_` is at the opening quote.
  std::string parse_string() {
    ++pos_;
    std::string out;
    while (true) {
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
             static_cast<unsigned char>(text_[run]) >= 0x20) {
        ++run;
      }
      out.append(text_.data() + pos_, run - pos_);
      pos_ = run;
      const char c = peek_in_string();
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\n') fail("unterminated string");
      if (c != '\\') fail("unescaped control character in string");
      const std::size_t escape = pos_++;
      switch (peek_in_string()) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          ++pos_;
          std::uint32_t cp = hex4();
          if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail_at(escape, "unpaired UTF-16 surrogate in \\u escape");
          }
          if (cp >= 0xd800 && cp <= 0xdbff) {
            if (text_.substr(pos_, 2) != "\\u") {
              fail_at(escape, "unpaired UTF-16 surrogate in \\u escape");
            }
            pos_ += 2;
            const std::uint32_t low = hex4();
            if (low < 0xdc00 || low > 0xdfff) {
              fail_at(escape, "unpaired UTF-16 surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          }
          append_utf8(out, cp);
          continue;
        }
        default:
          fail_at(escape, std::string("invalid string escape '\\") +
                              text_[pos_] + "'");
      }
      ++pos_;
    }
  }

  char peek_in_string() const {
    if (pos_ >= text_.size()) fail("unterminated string");
    return text_[pos_];
  }

  void parse_array(Value& v, int depth) {
    v.kind = Value::Kind::kArray;
    ++pos_;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      parse_value(v.items.emplace_back(), depth);
      skip_ws();
      if (peek() == ']') break;
      if (peek() != ',') fail("expected ',' or ']'");
      ++pos_;
    }
    ++pos_;
  }

  void parse_object(Value& v, int depth) {
    v.kind = Value::Kind::kObject;
    ++pos_;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected a quoted object key");
      const int key_line = line_;
      Value& member = v.members.emplace_back(parse_string(), Value()).second;
      skip_ws();
      if (peek() != ':') fail("expected ':' after an object key");
      ++pos_;
      parse_value(member, depth);
      if (member.kind != Value::Kind::kObject &&
          member.kind != Value::Kind::kArray) {
        member.line = key_line;
      }
      skip_ws();
      if (peek() == '}') break;
      if (peek() != ',') fail("expected ',' or '}'");
      ++pos_;
    }
    ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool Value::as_u64(std::uint64_t& out) const {
  return kind == Kind::kNumber && parse_u64(text, out) == std::errc();
}

namespace {

template <typename Real>
bool number_as(const Value& v, Real& out) {
  if (v.kind != Value::Kind::kNumber) return false;
  const char* last = v.text.data() + v.text.size();
  Real parsed = 0;
  const auto [end, ec] = std::from_chars(v.text.data(), last, parsed);
  if (ec != std::errc() || end != last || !std::isfinite(parsed)) return false;
  out = parsed;
  return true;
}

}  // namespace

bool Value::as_f64(double& out) const { return number_as(*this, out); }

bool Value::as_f32(float& out) const { return number_as(*this, out); }

const char* Value::kind_name() const {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "a boolean";
    case Kind::kNumber: return "a number";
    case Kind::kString: return "a string";
    case Kind::kArray: return "an array";
    case Kind::kObject: return "an object";
  }
  return "a value";
}

std::string Error::str() const {
  return std::to_string(line) + ":" + std::to_string(col) + ": " + message;
}

bool parse(std::string_view text, Value& out, Error* error) {
  try {
    Value root;
    Parser(text).parse(root);
    out = std::move(root);
    return true;
  } catch (const Failure& f) {
    if (error != nullptr) {
      const std::size_t offset = std::min(f.offset, text.size());
      const std::string_view before = text.substr(0, offset);
      const std::size_t line_start = before.rfind('\n');
      error->message = f.message;
      error->offset = offset;
      error->line = 1 + static_cast<int>(std::count(before.begin(),
                                                    before.end(), '\n'));
      error->col = static_cast<int>(
          line_start == std::string_view::npos ? offset + 1
                                               : offset - line_start);
    }
    return false;
  }
}

std::errc parse_u64(std::string_view digits, std::uint64_t& out, int base) {
  if (digits.empty() || (base == 10 && digits.size() > 1 && digits[0] == '0')) {
    return std::errc::invalid_argument;
  }
  const char* last = digits.data() + digits.size();
  const auto [end, ec] = std::from_chars(digits.data(), last, out, base);
  if (ec != std::errc()) return ec;
  return end == last ? std::errc() : std::errc::invalid_argument;
}

std::errc parse_u64_or_hex(std::string_view text, std::uint64_t& out) {
  const bool hex = text.size() > 2 && text[0] == '0' &&
                   (text[1] == 'x' || text[1] == 'X');
  return parse_u64(hex ? text.substr(2) : text, out, hex ? 16 : 10);
}

}  // namespace json

bool json_validate(std::string_view text, std::string* error) {
  json::Value ignored;
  json::Error parse_error;
  if (json::parse(text, ignored, &parse_error)) return true;
  if (error != nullptr) *error = parse_error.str();
  return false;
}

}  // namespace mldist::util
