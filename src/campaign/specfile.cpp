#include "campaign/specfile.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <system_error>

#include "core/targets.hpp"
#include "util/json.hpp"

namespace mldist::campaign {

SpecError::SpecError(const std::string& origin, int line,
                     const std::string& message)
    : std::invalid_argument(origin + ":" + std::to_string(line) + ": " +
                            message),
      line_(line) {}

namespace {

using util::json::Value;

/// Walks the util::json DOM into a CampaignSpec.  Errors report each
/// value's DOM line: a scalar member's key line, a container's first line.
class Mapper {
 public:
  explicit Mapper(const std::string& origin) : origin_(origin) {}

  CampaignSpec map(const Value& root) {
    require(root, Value::Kind::kObject, "spec");
    CampaignSpec spec;
    for (const auto& [key, v] : root.members) {
      if (key == "name") {
        spec.name = as_string(v, key);
      } else if (key == "seed") {
        spec.seed = as_u64(v, key);
      } else if (key == "defaults") {
        map_defaults(v, spec.base);
      } else if (key == "grid") {
        require(v, Value::Kind::kArray, key);
        for (const Value& b : v.items) {
          spec.blocks.push_back(map_block(b));
        }
      } else {
        unknown_key(v, key, "the spec",
                    "name, seed, defaults, grid");
      }
    }
    if (spec.blocks.empty()) {
      throw SpecError(origin_, root.line,
                      "spec needs a non-empty \"grid\" array");
    }
    validate(spec);
    return spec;
  }

 private:
  [[noreturn]] void unknown_key(const Value& v, const std::string& key,
                                const std::string& where,
                                const char* known) const {
    throw SpecError(origin_, v.line,
                    "unknown key \"" + key + "\" in " + where +
                        " (known keys: " + known + ")");
  }

  void require(const Value& v, Value::Kind kind, const std::string& key) const {
    if (v.kind == kind) return;
    const char* want = "a value";
    switch (kind) {
      case Value::Kind::kString: want = "a string"; break;
      case Value::Kind::kNumber: want = "a number"; break;
      case Value::Kind::kArray: want = "an array"; break;
      case Value::Kind::kObject: want = "an object"; break;
      default: break;
    }
    throw SpecError(origin_, v.line,
                    "\"" + key + "\" must be " + want + ", got " +
                        v.kind_name());
  }

  std::string as_string(const Value& v, const std::string& key) const {
    require(v, Value::Kind::kString, key);
    return v.text;
  }

  std::uint64_t as_u64(const Value& v, const std::string& key) const {
    // JSON integers, decimal strings and (for masks) hex strings like
    // "0x40"; no sign, no whitespace, no leading zero, no wrap-around.
    if (v.kind == Value::Kind::kNumber &&
        v.text.find_first_of(".eE-") != std::string::npos) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" must be a non-negative integer, got " +
                          v.text);
    }
    if (v.kind != Value::Kind::kNumber && v.kind != Value::Kind::kString) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" must be an integer or a hex string, "
                      "got " + std::string(v.kind_name()));
    }
    // A JSON number never starts with 0x, so only strings can be hex.
    std::uint64_t out = 0;
    const std::errc ec = util::json::parse_u64_or_hex(v.text, out);
    if (ec == std::errc::result_out_of_range) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" is out of range (above 2^64-1): " +
                          v.text);
    }
    if (ec != std::errc()) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" is not a valid integer: \"" + v.text +
                          "\" (decimal digits or a 0x hex string)");
    }
    return out;
  }

  int as_int(const Value& v, const std::string& key) const {
    require(v, Value::Kind::kNumber, key);
    if (v.text.find_first_of(".eE") != std::string::npos) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" must be an integer, got " + v.text);
    }
    // Checked parse (parse-time-validation contract): empty text, trailing
    // garbage and out-of-int-range values are all rejected here with the
    // spec file:line, never silently truncated by an unchecked strtol.
    errno = 0;
    char* end = nullptr;
    const long parsed = std::strtol(v.text.c_str(), &end, 10);
    if (v.text.empty() || end != v.text.c_str() + v.text.size()) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" is not a valid integer: \"" + v.text +
                          "\"");
    }
    if (errno == ERANGE || parsed > 2147483647L || parsed < -2147483648L) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" is out of integer range: " + v.text);
    }
    return static_cast<int>(parsed);
  }

  double as_double(const Value& v, const std::string& key) const {
    require(v, Value::Kind::kNumber, key);
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(v.text.c_str(), &end);
    if (v.text.empty() || end != v.text.c_str() + v.text.size()) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" is not a valid number: \"" + v.text +
                          "\"");
    }
    if (errno == ERANGE || !std::isfinite(parsed)) {
      throw SpecError(origin_, v.line,
                      "\"" + key + "\" is out of range: " + v.text);
    }
    return parsed;
  }

  std::vector<std::uint64_t> as_diff_set(const Value& v,
                                         const std::string& key) const {
    require(v, Value::Kind::kArray, key);
    std::vector<std::uint64_t> out;
    out.reserve(v.items.size());
    for (const Value& item : v.items) out.push_back(as_u64(item, key));
    return out;
  }

  void map_defaults(const Value& v, core::ExperimentConfig& base) const {
    require(v, Value::Kind::kObject, "defaults");
    for (const auto& [key, m] : v.members) {
      if (key == "target") base.target = as_string(m, key);
      else if (key == "rounds") base.rounds = as_int(m, key);
      else if (key == "arch") base.arch = as_string(m, key);
      else if (key == "diff_site") base.diff_site = as_string(m, key);
      else if (key == "diffs") base.diffs = as_diff_set(m, key);
      else if (key == "epochs") base.epochs = as_int(m, key);
      else if (key == "batch_size") base.batch_size = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "learning_rate") base.learning_rate = static_cast<float>(as_double(m, key));
      else if (key == "validation_fraction") base.validation_fraction = as_double(m, key);
      else if (key == "z_threshold") base.z_threshold = as_double(m, key);
      else if (key == "threads") base.threads = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "offline_base_inputs") base.offline_base_inputs = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "online_base_inputs") base.online_base_inputs = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "games") base.games = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "max_retries") base.max_retries = as_int(m, key);
      else if (key == "lr_backoff") base.lr_backoff = static_cast<float>(as_double(m, key));
      else {
        unknown_key(m, key, "defaults",
                    "target, rounds, arch, diff_site, diffs, epochs, "
                    "batch_size, learning_rate, validation_fraction, "
                    "z_threshold, threads, offline_base_inputs, "
                    "online_base_inputs, games, max_retries, lr_backoff");
      }
    }
  }

  CellOverrides map_overrides(const Value& v) const {
    require(v, Value::Kind::kObject, "overrides");
    CellOverrides o;
    for (const auto& [key, m] : v.members) {
      if (key == "epochs") o.epochs = as_int(m, key);
      else if (key == "batch_size") o.batch_size = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "learning_rate") o.learning_rate = static_cast<float>(as_double(m, key));
      else if (key == "validation_fraction") o.validation_fraction = as_double(m, key);
      else if (key == "z_threshold") o.z_threshold = as_double(m, key);
      else if (key == "online_base_inputs") o.online_base_inputs = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "games") o.games = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "max_retries") o.max_retries = as_int(m, key);
      else {
        unknown_key(m, key, "overrides",
                    "epochs, batch_size, learning_rate, "
                    "validation_fraction, z_threshold, online_base_inputs, "
                    "games, max_retries");
      }
    }
    return o;
  }

  GridBlock map_block(const Value& v) const {
    require(v, Value::Kind::kObject, "grid block");
    GridBlock block;
    for (const auto& [key, m] : v.members) {
      if (key == "targets") {
        require(m, Value::Kind::kArray, key);
        for (const Value& item : m.items) {
          block.targets.push_back(as_string(item, key));
        }
      } else if (key == "rounds") {
        require(m, Value::Kind::kArray, key);
        for (const Value& item : m.items) {
          block.rounds.push_back(as_int(item, key));
        }
      } else if (key == "archs") {
        require(m, Value::Kind::kArray, key);
        for (const Value& item : m.items) {
          block.archs.push_back(as_string(item, key));
        }
      } else if (key == "diff_sites") {
        require(m, Value::Kind::kArray, key);
        for (const Value& item : m.items) {
          const std::string site = as_string(item, key);
          try {
            core::parse_diff_site(site);
          } catch (const std::invalid_argument& e) {
            throw SpecError(origin_, item.line, e.what());
          }
          block.diff_sites.push_back(site);
        }
      } else if (key == "diff_sets") {
        require(m, Value::Kind::kArray, key);
        for (const Value& item : m.items) {
          block.diff_sets.push_back(as_diff_set(item, key));
        }
      } else if (key == "offline_base_inputs") {
        require(m, Value::Kind::kArray, key);
        for (const Value& item : m.items) {
          block.offline_budgets.push_back(
              static_cast<std::size_t>(as_u64(item, key)));
        }
      } else if (key == "overrides") {
        block.overrides = map_overrides(m);
      } else {
        unknown_key(m, key, "a grid block",
                    "targets, rounds, archs, diff_sites, diff_sets, "
                    "offline_base_inputs, overrides");
      }
    }
    return block;
  }

  void validate(const CampaignSpec& spec) const {
    // Instantiating every cell's target catches unknown target names, bad
    // diff sites and out-of-range rounds/diffs before any worker forks.
    for (const Cell& cell : expand_grid(spec)) {
      try {
        (void)cell.config.make_target();
      } catch (const std::invalid_argument& e) {
        throw SpecError(origin_, 1,
                        "cell " + std::to_string(cell.index) + " (" +
                            cell.config.target + "/" +
                            std::to_string(cell.config.rounds) + "r, " +
                            cell.config.diff_site + "): " + e.what());
      }
    }
  }

  const std::string& origin_;
};

}  // namespace

CampaignSpec parse_spec_text(const std::string& text,
                             const std::string& origin) {
  Value root;
  util::json::Error error;
  if (!util::json::parse(text, root, &error)) {
    throw SpecError(origin, error.line, error.message);
  }
  Mapper mapper(origin);
  return mapper.map(root);
}

CampaignSpec load_spec_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("campaign: cannot read spec file " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_spec_text(buf.str(), path);
}

}  // namespace mldist::campaign
