#include "campaign/spec.hpp"

#include <cstdio>
#include <stdexcept>

#include "core/arch_zoo.hpp"
#include "util/crc32.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace mldist::campaign {

std::string cell_id(const core::ExperimentConfig& config) {
  const std::string json = config.to_json();
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
    // A malformed depth ("gohr-net/d=x") fails the cell when its model is
    // built; until then it costs a conservative mid-range weight, so
    // scheduling stays sane for names that slip through.
    try {
      arch_weight = 4.0 + 2.0 * static_cast<double>(core::gohr_net_depth(a));
    } catch (const std::invalid_argument&) {
      arch_weight = 10.0;
    }
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

std::string train_json(const core::TrainReport& train) {
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
  return t.str();
}

std::string cell_payload_json(const Cell& cell,
                              const core::TrainReport& train,
                              const core::OnlineReport* online) {
  util::JsonBuilder j;
  j.field("cell", cell.id)
      .field("index", static_cast<std::uint64_t>(cell.index))
      .raw("config", cell.config.to_json())
      .raw("train", train_json(train));
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
