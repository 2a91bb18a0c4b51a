#include "campaign/specfile.hpp"

#include <array>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <span>
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

/// ExperimentConfig::to_json()'s keys.  A spec file's `defaults` takes all
/// but the last, which the campaign sets per cell.
constexpr std::array<std::string_view, 17> kConfigKeys = {
    "target", "rounds", "arch", "diff_site", "diffs", "epochs", "batch_size",
    "learning_rate", "validation_fraction", "z_threshold", "threads",
    "offline_base_inputs", "online_base_inputs", "games", "max_retries",
    "lr_backoff", "seed"};
constexpr std::size_t kDefaultsKeys = 16;

/// train_json()'s keys.
constexpr std::array<std::string_view, 9> kTrainKeys = {
    "train_accuracy", "val_accuracy", "train_loss", "samples", "log2_data",
    "usable", "attempts", "divergences", "rollbacks"};

std::string join(std::span<const std::string_view> keys) {
  std::string out;
  for (std::string_view k : keys) {
    if (!out.empty()) out += ", ";
    out += k;
  }
  return out;
}

Value parse_text(std::string_view text, const std::string& origin) {
  Value root;
  util::json::Error error;
  if (!util::json::parse(text, root, &error)) {
    throw SpecError(origin, error.line, error.message);
  }
  return root;
}

/// Walks the util::json DOM into a CampaignSpec, a cell's config or its
/// train report.  Errors report each value's DOM line: a scalar member's
/// key line, a container's first line.
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
        map_config(v, spec.base, /*cell=*/false);
      } else if (key == "grid") {
        require(v, Value::Kind::kArray, key);
        for (const Value& b : v.items) {
          spec.blocks.push_back(map_block(b));
        }
      } else {
        unknown_key(v, key, "the spec", "name, seed, defaults, grid");
      }
    }
    if (spec.blocks.empty()) {
      throw SpecError(origin_, root.line,
                      "spec needs a non-empty \"grid\" array");
    }
    validate(spec);
    return spec;
  }

  /// The `defaults` keys of `v` onto `c`; with `cell` set, also the keys
  /// the campaign sets, and every key must be present.
  void map_config(const Value& v, core::ExperimentConfig& c, bool cell) const {
    require(v, Value::Kind::kObject, cell ? "config" : "defaults");
    for (const auto& [key, m] : v.members) {
      if (key == "target") c.target = as_string(m, key);
      else if (key == "rounds") c.rounds = as_int(m, key);
      else if (key == "arch") c.arch = as_string(m, key);
      else if (key == "diff_site") c.diff_site = as_string(m, key);
      else if (key == "diffs") c.diffs = as_diff_set(m, key);
      else if (key == "epochs") c.epochs = as_int(m, key);
      else if (key == "batch_size") c.batch_size = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "learning_rate") c.learning_rate = as_float(m, key);
      else if (key == "validation_fraction") c.validation_fraction = as_double(m, key);
      else if (key == "z_threshold") c.z_threshold = as_double(m, key);
      else if (key == "threads") c.threads = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "offline_base_inputs") c.offline_base_inputs = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "online_base_inputs") c.online_base_inputs = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "games") c.games = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "max_retries") c.max_retries = as_int(m, key);
      else if (key == "lr_backoff") c.lr_backoff = as_float(m, key);
      else if (cell && key == "seed") c.seed = as_u64(m, key);
      else if (cell) unknown_key(m, key, "the config", join(kConfigKeys));
      else {
        unknown_key(m, key, "defaults",
                    join(std::span(kConfigKeys).first(kDefaultsKeys)));
      }
    }
    if (cell) require_keys(v, kConfigKeys, "the config");
  }

  /// A train_json() object: every key, nothing else.
  core::TrainReport map_train(const Value& v) const {
    require(v, Value::Kind::kObject, "train");
    core::TrainReport t;
    for (const auto& [key, m] : v.members) {
      if (key == "train_accuracy") t.train_accuracy = as_double(m, key);
      else if (key == "val_accuracy") t.val_accuracy = as_double(m, key);
      else if (key == "train_loss") t.train_loss = as_double(m, key);
      else if (key == "samples") t.samples = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "log2_data") t.log2_data = as_double(m, key);
      else if (key == "usable") t.usable = as_bool(m, key);
      else if (key == "attempts") t.robustness.attempts = as_int(m, key);
      else if (key == "divergences") t.robustness.divergences = as_int(m, key);
      else if (key == "rollbacks") t.robustness.rollbacks = as_int(m, key);
      else unknown_key(m, key, "the train report", join(kTrainKeys));
    }
    require_keys(v, kTrainKeys, "the train report");
    return t;
  }

 private:
  [[noreturn]] void unknown_key(const Value& v, const std::string& key,
                                const std::string& where,
                                const std::string& known) const {
    throw SpecError(origin_, v.line,
                    "unknown key \"" + key + "\" in " + where +
                        " (known keys: " + known + ")");
  }

  void require_keys(const Value& v, std::span<const std::string_view> keys,
                    const std::string& where) const {
    for (std::string_view k : keys) {
      if (v.find(k) == nullptr) {
        throw SpecError(origin_, v.line,
                        where + " lacks \"" + std::string(k) + "\"");
      }
    }
  }

  void require(const Value& v, Value::Kind kind, const std::string& key) const {
    if (v.kind == kind) return;
    const char* want = "a value";
    switch (kind) {
      case Value::Kind::kBool: want = "a boolean"; break;
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
    double out = 0.0;
    if (!v.as_f64(out)) out_of_range(v, key);
    return out;
  }

  float as_float(const Value& v, const std::string& key) const {
    require(v, Value::Kind::kNumber, key);
    float out = 0.0f;
    if (!v.as_f32(out)) out_of_range(v, key);
    return out;
  }

  [[noreturn]] void out_of_range(const Value& v, const std::string& key) const {
    throw SpecError(origin_, v.line,
                    "\"" + key + "\" is out of range: " + v.text);
  }

  bool as_bool(const Value& v, const std::string& key) const {
    require(v, Value::Kind::kBool, key);
    return v.boolean;
  }

  std::vector<std::uint64_t> as_diff_set(const Value& v,
                                         const std::string& key) const {
    require(v, Value::Kind::kArray, key);
    std::vector<std::uint64_t> out;
    out.reserve(v.items.size());
    for (const Value& item : v.items) out.push_back(as_u64(item, key));
    return out;
  }

  CellOverrides map_overrides(const Value& v) const {
    require(v, Value::Kind::kObject, "overrides");
    CellOverrides o;
    for (const auto& [key, m] : v.members) {
      if (key == "epochs") o.epochs = as_int(m, key);
      else if (key == "batch_size") o.batch_size = static_cast<std::size_t>(as_u64(m, key));
      else if (key == "learning_rate") o.learning_rate = as_float(m, key);
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
  return Mapper(origin).map(parse_text(text, origin));
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

core::ExperimentConfig read_config_json(std::string_view json) {
  const std::string origin = "cell config";
  core::ExperimentConfig config;
  Mapper(origin).map_config(parse_text(json, origin), config, /*cell=*/true);
  return config;
}

core::TrainReport read_train_json(std::string_view json) {
  const std::string origin = "train report";
  return Mapper(origin).map_train(parse_text(json, origin));
}

}  // namespace mldist::campaign
