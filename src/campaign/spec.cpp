#include "campaign/spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <system_error>

#include "util/crc32.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace mldist::campaign {

namespace {

constexpr char kSep = '\x1f';  // ASCII unit separator

std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::vector<std::string> split_fields(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == kSep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool parse_f64(const std::string& s, double& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  return util::json::parse_u64(s, out) == std::errc();
}

/// An int as std::to_string renders it: an optional '-', then parse_u64
/// digits, within int's range.
bool parse_i32(std::string_view s, int& out) {
  const bool neg = !s.empty() && s.front() == '-';
  std::uint64_t magnitude = 0;
  if (!parse_u64(s.substr(neg ? 1 : 0), magnitude)) return false;
  const std::uint64_t limit =
      std::uint64_t{std::numeric_limits<int>::max()} + (neg ? 1 : 0);
  if (magnitude > limit) return false;
  const auto v = static_cast<std::int64_t>(magnitude);
  out = static_cast<int>(neg ? -v : v);
  return true;
}

}  // namespace

std::string cell_id(const core::ExperimentConfig& config) {
  core::ExperimentConfig keyed = config;
  keyed.checkpoint_path.clear();  // ids must not depend on the state dir
  const std::string json = keyed.to_json();
  const std::uint32_t crc = util::crc32(json.data(), json.size());
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

void CellOverrides::apply(core::ExperimentConfig& config) const {
  if (epochs) config.epochs = *epochs;
  if (batch_size) config.batch_size = *batch_size;
  if (learning_rate) config.learning_rate = *learning_rate;
  if (validation_fraction) config.validation_fraction = *validation_fraction;
  if (z_threshold) config.z_threshold = *z_threshold;
  if (online_base_inputs) config.online_base_inputs = *online_base_inputs;
  if (games) config.games = *games;
  if (max_retries) config.max_retries = *max_retries;
}

namespace {
template <typename T>
std::vector<T> or_default(const std::vector<T>& axis, const T& fallback) {
  return axis.empty() ? std::vector<T>{fallback} : axis;
}

void expand_block(const GridBlock& block, const CampaignSpec& spec,
                  std::vector<Cell>& cells) {
  core::ExperimentConfig base = spec.base;
  block.overrides.apply(base);
  const auto targets = or_default(block.targets, base.target);
  const auto rounds = or_default(block.rounds, base.rounds);
  const auto archs = or_default(block.archs, base.arch);
  const auto sites = or_default(block.diff_sites, base.diff_site);
  const auto diff_sets = or_default(block.diff_sets, base.diffs);
  const auto budgets = or_default(block.offline_budgets,
                                  base.offline_base_inputs);
  for (const std::string& target : targets) {
    for (int r : rounds) {
      for (const std::string& arch : archs) {
        for (const std::string& site : sites) {
          for (const auto& diffs : diff_sets) {
            for (std::size_t budget : budgets) {
              Cell cell;
              cell.index = cells.size();
              cell.config = base;
              cell.config.target = target;
              cell.config.rounds = r;
              cell.config.arch = arch;
              cell.config.diff_site = site;
              cell.config.diffs = diffs;
              cell.config.offline_base_inputs = budget;
              cell.config.seed =
                  util::derive_stream_seed(spec.seed, cell.index);
              cell.config.on_epoch = nullptr;
              cell.id = cell_id(cell.config);
              cells.push_back(std::move(cell));
            }
          }
        }
      }
    }
  }
}
}  // namespace

std::vector<Cell> expand_grid(const CampaignSpec& spec) {
  std::vector<Cell> cells;
  for (const GridBlock& block : spec.blocks) {
    expand_block(block, spec, cells);
  }
  return cells;
}

std::string grid_crc(const std::vector<Cell>& cells) {
  std::string all;
  all.reserve(cells.size() * 9);
  for (const Cell& cell : cells) {
    all += cell.id;
    all += '\n';
  }
  const std::uint32_t crc = util::crc32(all.data(), all.size());
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

double cell_cost(const core::ExperimentConfig& config) {
  // Unitless relative work estimate: offline rows dominate ((1 + epochs)
  // passes over offline_base_inputs * t rows), plus the online games.  The
  // arch weight approximates per-row inference/backprop cost relative to
  // the default MLP.
  double arch_weight = 1.0;
  const std::string& a = config.arch;
  if (a.rfind("gohr-net/", 0) == 0) {
    // Checked parse: an unparseable depth ("gohr-net/d=x") is rejected
    // elsewhere before any cell runs, but the cost model must not silently
    // read it as depth 0 — fall back to a conservative mid-range weight so
    // scheduling stays sane even for names that slip through.
    double depth = 0.0;
    arch_weight = parse_f64(a.substr(9), depth) ? 4.0 + 2.0 * depth : 10.0;
  } else if (a.rfind("LSTM", 0) == 0) {
    arch_weight = 10.0;
  } else if (a.rfind("CNN", 0) == 0) {
    arch_weight = 6.0;
  } else if (a == "MLP III" || a == "MLP VI") {
    arch_weight = 3.0;  // the 1.2M-parameter zoo members
  }
  const double t =
      config.diffs.empty() ? 2.0 : static_cast<double>(config.diffs.size());
  const double offline_rows =
      static_cast<double>(config.offline_base_inputs) * t;
  const double online_rows = static_cast<double>(config.online_base_inputs) *
                             t * static_cast<double>(config.games);
  return arch_weight * (offline_rows * (1.0 + config.epochs)) + online_rows;
}

std::string encode_config(const core::ExperimentConfig& c) {
  std::string out;
  const auto add = [&](const std::string& field) {
    if (!out.empty()) out += kSep;
    out += field;
  };
  add(c.target);
  add(std::to_string(c.rounds));
  add(c.diff_site);
  {
    std::string diffs;
    for (std::size_t i = 0; i < c.diffs.size(); ++i) {
      if (i > 0) diffs += ',';
      char buf[24];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(c.diffs[i]));
      diffs += buf;
    }
    add(diffs);
  }
  add(c.arch);
  add(std::to_string(c.epochs));
  add(std::to_string(c.batch_size));
  add(hexf(static_cast<double>(c.learning_rate)));
  add(hexf(c.validation_fraction));
  add(hexf(c.z_threshold));
  add(std::to_string(c.seed));
  add(std::to_string(c.threads));
  add(std::to_string(c.offline_base_inputs));
  add(std::to_string(c.online_base_inputs));
  add(std::to_string(c.games));
  add(std::to_string(c.max_retries));
  add(hexf(static_cast<double>(c.lr_backoff)));
  add(c.checkpoint_path);
  return out;
}

bool decode_config(const std::string& text, core::ExperimentConfig& out) {
  const std::vector<std::string> f = split_fields(text);
  if (f.size() != 18) return false;
  core::ExperimentConfig c;
  std::uint64_t u = 0;
  double d = 0.0;
  c.target = f[0];
  if (!parse_i32(f[1], c.rounds)) return false;
  c.diff_site = f[2];
  c.diffs.clear();
  if (!f[3].empty()) {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= f[3].size(); ++i) {
      if (i == f[3].size() || f[3][i] == ',') {
        if (util::json::parse_u64_or_hex(
                std::string_view(f[3]).substr(start, i - start), u) !=
            std::errc()) {
          return false;
        }
        c.diffs.push_back(u);
        start = i + 1;
      }
    }
  }
  c.arch = f[4];
  if (!parse_i32(f[5], c.epochs)) return false;
  if (!parse_u64(f[6], u)) return false;
  c.batch_size = static_cast<std::size_t>(u);
  if (!parse_f64(f[7], d)) return false;
  c.learning_rate = static_cast<float>(d);
  if (!parse_f64(f[8], c.validation_fraction)) return false;
  if (!parse_f64(f[9], c.z_threshold)) return false;
  if (!parse_u64(f[10], c.seed)) return false;
  if (!parse_u64(f[11], u)) return false;
  c.threads = static_cast<std::size_t>(u);
  if (!parse_u64(f[12], u)) return false;
  c.offline_base_inputs = static_cast<std::size_t>(u);
  if (!parse_u64(f[13], u)) return false;
  c.online_base_inputs = static_cast<std::size_t>(u);
  if (!parse_u64(f[14], u)) return false;
  c.games = static_cast<std::size_t>(u);
  if (!parse_i32(f[15], c.max_retries)) return false;
  if (!parse_f64(f[16], d)) return false;
  c.lr_backoff = static_cast<float>(d);
  c.checkpoint_path = f[17];
  out = std::move(c);
  return true;
}

std::string encode_train_result(const CellTrainResult& r) {
  std::string out;
  const auto add = [&](const std::string& field) {
    if (!out.empty()) out += kSep;
    out += field;
  };
  add(hexf(r.report.train_accuracy));
  add(hexf(r.report.val_accuracy));
  add(hexf(r.report.train_loss));
  add(std::to_string(r.report.samples));
  add(hexf(r.report.log2_data));
  add(r.report.usable ? "1" : "0");
  add(std::to_string(r.report.robustness.attempts));
  add(std::to_string(r.report.robustness.divergences));
  add(std::to_string(r.report.robustness.rollbacks));
  add(std::to_string(r.t));
  return out;
}

bool decode_train_result(const std::string& text, CellTrainResult& out) {
  const std::vector<std::string> f = split_fields(text);
  if (f.size() != 10) return false;
  CellTrainResult r;
  std::uint64_t u = 0;
  if (!parse_f64(f[0], r.report.train_accuracy)) return false;
  if (!parse_f64(f[1], r.report.val_accuracy)) return false;
  if (!parse_f64(f[2], r.report.train_loss)) return false;
  if (!parse_u64(f[3], u)) return false;
  r.report.samples = static_cast<std::size_t>(u);
  if (!parse_f64(f[4], r.report.log2_data)) return false;
  if (f[5] != "0" && f[5] != "1") return false;
  r.report.usable = f[5] == "1";
  if (!parse_i32(f[6], r.report.robustness.attempts)) return false;
  if (!parse_i32(f[7], r.report.robustness.divergences)) return false;
  if (!parse_i32(f[8], r.report.robustness.rollbacks)) return false;
  if (!parse_u64(f[9], u)) return false;
  r.t = static_cast<std::size_t>(u);
  out = std::move(r);
  return true;
}

std::string cell_payload_json(const Cell& cell,
                              const core::TrainReport& train,
                              const core::OnlineReport* online) {
  core::ExperimentConfig rendered = cell.config;
  rendered.checkpoint_path.clear();  // execution detail, not cell identity
  util::JsonBuilder t;
  t.field("train_accuracy", train.train_accuracy)
      .field("val_accuracy", train.val_accuracy)
      .field("train_loss", train.train_loss)
      .field("samples", train.samples)
      .field("log2_data", train.log2_data)
      .field("usable", train.usable)
      .field("attempts", train.robustness.attempts)
      .field("divergences", train.robustness.divergences)
      .field("rollbacks", train.robustness.rollbacks);
  util::JsonBuilder j;
  j.field("cell", cell.id)
      .field("index", static_cast<std::uint64_t>(cell.index))
      .raw("config", rendered.to_json())
      .raw("train", t.str());
  if (online != nullptr) {
    util::JsonBuilder o;
    o.field("accuracy", online->accuracy)
        .field("samples", online->samples)
        .field("log2_data", online->log2_data)
        .field("z_vs_random", online->z_vs_random)
        .field("verdict", core::verdict_name(online->verdict));
    j.raw("online", o.str());
  } else {
    j.raw("online", "null");
  }
  return j.str();
}

std::string cell_telemetry_json(const core::TrainReport& train,
                                const core::OnlineReport* online) {
  util::JsonBuilder j;
  j.raw("collect", train.collect.to_json())
      .raw("fit", train.fit.to_json())
      .field("seconds_per_epoch", train.seconds_per_epoch);
  if (online != nullptr) {
    j.raw("online_collect", online->collect.to_json())
        .raw("predict", online->predict.to_json());
  }
  return j.str();
}

}  // namespace mldist::campaign
