// Declarative campaign spec files (ISSUE 8): the JSON front end that turns
// one committed file into a full CampaignSpec — cipher × rounds ×
// input/related-key differences × architecture × sample budgets, with
// per-block hyper-parameter overrides (see examples/paper_grid.json and
// EXPERIMENTS.md for the schema walkthrough).
//
// The text goes through util::json, the repo's one JSON reader; this file
// maps its DOM onto the schema.  A spec file is human-authored input, so
// every error carries file:line ("paper_grid.json:17: unknown key 'epoch'
// in overrides ...") instead of a byte offset.
//
// The same mapper reads a cell's two records back: its config as
// ExperimentConfig::to_json() renders it (the worker's CELL command) and
// its train report as train_json() renders it (the worker's TRAINED record
// and the WAL "trained" event).  JsonBuilder writes each real as the
// shortest text that reads back to the same bits, so both round-trip
// exactly.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "campaign/spec.hpp"

namespace mldist::campaign {

/// Spec-file rejection with file/line context.  Derives from
/// std::invalid_argument so the CLI maps it onto the config-error exit
/// code like every other bad-flag failure.
class SpecError : public std::invalid_argument {
 public:
  SpecError(const std::string& origin, int line, const std::string& message);
  int line() const { return line_; }

 private:
  int line_;
};

/// Parse spec-file text.  `origin` names the source in error messages.
CampaignSpec parse_spec_text(const std::string& text,
                             const std::string& origin = "<spec>");

/// Read and parse a spec file; throws std::runtime_error if unreadable and
/// SpecError on schema violations.
CampaignSpec load_spec_file(const std::string& path);

/// A cell's config JSON, read by the `defaults` mapper.  Unlike `defaults`
/// it takes the key the campaign sets (seed) and needs every key.  Throws
/// SpecError.
core::ExperimentConfig read_config_json(std::string_view json);

/// A train_json() object: every key and no other, reals finite.  Throws
/// SpecError.
core::TrainReport read_train_json(std::string_view json);

}  // namespace mldist::campaign
