// Campaign grid specification (ISSUE 7): the declarative record for a full
// target × rounds × architecture sweep, expanded into Cells — one
// core::ExperimentConfig per grid point.
//
// Determinism contract: a cell's results are a pure function of its config.
// Each cell's seed is derived from the campaign seed and the cell *index*
// (util::derive_stream_seed, the same stream-derivation the parallel data
// engine uses) — never from the worker that happens to run it — so any
// sharding, any retry and any crash/recovery schedule produces bitwise
// identical payloads.  cell_payload_json() renders only deterministic
// fields (accuracies, sample counts, z-scores, verdicts); wall-clock
// telemetry travels in a separate, unpinned JSON object.
//
// Cells cross a process boundary: the supervisor sends a cell's config to a
// worker over a pipe and journals the worker's train report in the WAL.
// Both travel as the JSON the payload carries, ExperimentConfig::to_json()
// and train_json(), and come back through specfile.hpp's readers.
// JsonBuilder renders each real as the shortest text that reads back to the
// same bits, so resumed runs cannot drift by a ULP through the text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/distinguisher.hpp"
#include "core/experiment.hpp"

namespace mldist::campaign {

/// Per-block hyper-parameter overrides (ISSUE 8): applied on top of the
/// campaign base config before the block's axes are stamped.  A block of
/// one grid point makes these per-cell overrides.
struct CellOverrides {
  std::optional<int> epochs;
  std::optional<std::size_t> batch_size;
  std::optional<float> learning_rate;
  std::optional<double> validation_fraction;
  std::optional<double> z_threshold;
  std::optional<std::size_t> online_base_inputs;
  std::optional<std::size_t> games;
  std::optional<int> max_retries;

  void apply(core::ExperimentConfig& config) const;
};

/// One block of the declarative grid: the cross product of its axes.  Empty
/// axes fall back to the (override-patched) base config's value, so a block
/// listing only targets sweeps one cell per target.
struct GridBlock {
  std::vector<std::string> targets;  ///< core::make_target names
  std::vector<int> rounds;
  std::vector<std::string> archs;
  std::vector<std::string> diff_sites;  ///< "plaintext" / "related-key"
  /// Each entry is one set of t difference specifiers ({} = target default).
  std::vector<std::vector<std::uint64_t>> diff_sets;
  std::vector<std::size_t> offline_budgets;  ///< offline_base_inputs sweeps
  CellOverrides overrides;
};

struct CampaignSpec {
  std::string name = "campaign";
  /// The grid: expand_grid() concatenates the blocks' cells in order.
  std::vector<GridBlock> blocks;
  /// Everything the grid axes don't override (budgets, epochs, threads...).
  core::ExperimentConfig base;
  /// Campaign master seed; cell i runs with derive_stream_seed(seed, i).
  std::uint64_t seed = 0xca3fa16eULL;
};

struct Cell {
  std::size_t index = 0;  ///< position in the expanded grid
  /// 8-hex CRC-32 of the cell config's JSON: the WAL / history /
  /// snapshot-file key for this cell.
  std::string id;
  core::ExperimentConfig config;
};

/// Expand the grid, deriving each cell's seed and id.  Blocks expand in
/// order, each row-major target > rounds > arch > diff_site > diff_set >
/// budget, with cell indices global across blocks.  Empty axes fall back to
/// the base config's value.
std::vector<Cell> expand_grid(const CampaignSpec& spec);

/// The stable cell id for `config` (CRC-32 of its JSON).
std::string cell_id(const core::ExperimentConfig& config);

/// 8-hex CRC-32 over the expanded grid's cell ids (in index order): the
/// fingerprint journaled in the WAL "start" record so a resume against a
/// spec edit that changed the grid is rejected instead of silently mixing
/// two campaigns' cells.
std::string grid_crc(const std::vector<Cell>& cells);

/// Deterministic relative cost estimate for one cell — sample budget ×
/// epochs × an architecture weight × the class count.  Unitless; the
/// supervisor leases expensive cells first and converts completed cost per
/// wall-clock second into per-cell ETAs for /runz.
double cell_cost(const core::ExperimentConfig& config);

/// The payload's "train" object: a train report's deterministic fields
/// (telemetry and timing are not carried).  It is also the worker's TRAINED
/// record and the WAL "trained" event, read back by read_train_json().
std::string train_json(const core::TrainReport& train);

/// The pinned per-cell result object: deterministic fields only.  Bitwise
/// identical across worker counts, retries and crash/resume schedules.
/// `online` may be null (cell trained but was not usable, so Algorithm 2
/// aborted before the online phase).
std::string cell_payload_json(const Cell& cell,
                              const core::TrainReport& train,
                              const core::OnlineReport* online);

/// The unpinned sidecar: wall-clock/throughput telemetry of this particular
/// execution of the cell.
std::string cell_telemetry_json(const core::TrainReport& train,
                                const core::OnlineReport* online);

}  // namespace mldist::campaign
