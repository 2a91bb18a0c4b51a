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
#pragma once

#include <stdexcept>
#include <string>

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

}  // namespace mldist::campaign
