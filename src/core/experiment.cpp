#include "core/experiment.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "core/arch_zoo.hpp"
#include "core/targets.hpp"
#include "util/json.hpp"

namespace mldist::core {

namespace {
// Re-type the generic u64 difference specifiers for a target whose
// constructor wants narrower masks or positions; empty input yields an
// empty vector so the target's own defaults apply.
template <typename T>
std::vector<T> narrow_diffs(const std::vector<std::uint64_t>& in) {
  std::vector<T> out;
  out.reserve(in.size());
  for (std::uint64_t v : in) out.push_back(static_cast<T>(v));
  return out;
}

[[noreturn]] void reject_site(const std::string& target,
                              const std::string& site) {
  throw std::invalid_argument("ExperimentConfig: target " + target +
                              " does not support diff_site \"" + site + "\"");
}
}  // namespace

std::unique_ptr<Target> ExperimentConfig::make_target() const {
  const DiffSite site = parse_diff_site(diff_site);
  const bool related = site == DiffSite::kRelatedKey;

  // Targets with a related-key game: masks + site flow straight through.
  if (target == "speck") {
    if (diffs.empty()) {
      return std::make_unique<SpeckTarget>(
          rounds, std::vector<std::uint32_t>{0x00400000u, 0x00102000u}, site);
    }
    return std::make_unique<SpeckTarget>(
        rounds, narrow_diffs<std::uint32_t>(diffs), site);
  }
  if (target == "simon") {
    if (diffs.empty()) return std::make_unique<SimonTarget>(rounds, std::vector<std::uint64_t>{0x40ULL, 0x4000ULL}, site);
    return std::make_unique<SimonTarget>(rounds, diffs, site);
  }
  if (target == "simeck") {
    if (diffs.empty()) return std::make_unique<SimeckTarget>(rounds, std::vector<std::uint64_t>{0x40ULL, 0x4000ULL}, site);
    return std::make_unique<SimeckTarget>(rounds, diffs, site);
  }
  if (target == "present") {
    if (diffs.empty()) return std::make_unique<PresentTarget>(rounds, std::vector<std::uint64_t>{0x1ULL, 0x10ULL}, site);
    return std::make_unique<PresentTarget>(rounds, diffs, site);
  }
  if (target == "chaskey") {
    if (diffs.empty()) return std::make_unique<ChaskeyTarget>(rounds, std::vector<std::uint64_t>{0x1ULL, 0x80000000ULL}, site);
    return std::make_unique<ChaskeyTarget>(rounds, diffs, site);
  }

  // Plaintext-only targets.
  if (related) reject_site(target, diff_site);
  if (target == "gimli-hash") {
    if (diffs.empty()) return std::make_unique<GimliHashTarget>(rounds);
    return std::make_unique<GimliHashTarget>(rounds, narrow_diffs<std::size_t>(diffs));
  }
  if (target == "gimli-cipher") {
    if (diffs.empty()) return std::make_unique<GimliCipherTarget>(rounds);
    return std::make_unique<GimliCipherTarget>(rounds, narrow_diffs<std::size_t>(diffs));
  }
  if (target == "gift64") {
    if (diffs.empty()) return std::make_unique<Gift64Target>(rounds);
    return std::make_unique<Gift64Target>(rounds, diffs);
  }
  if (target == "gift128") {
    if (diffs.empty()) return std::make_unique<Gift128Target>(rounds);
    return std::make_unique<Gift128Target>(rounds, diffs);
  }
  if (target == "toy") {
    if (diffs.empty()) return std::make_unique<ToyGiftTarget>();
    return std::make_unique<ToyGiftTarget>(narrow_diffs<std::uint8_t>(diffs));
  }
  if (target == "salsa") {
    if (diffs.empty()) return std::make_unique<SalsaTarget>(rounds);
    return std::make_unique<SalsaTarget>(rounds, narrow_diffs<int>(diffs));
  }
  if (target == "trivium") {
    if (diffs.empty()) return std::make_unique<TriviumTarget>(rounds);
    return std::make_unique<TriviumTarget>(rounds, narrow_diffs<std::size_t>(diffs));
  }
  throw std::invalid_argument("ExperimentConfig: unknown target " + target);
}

std::unique_ptr<nn::Sequential> ExperimentConfig::make_model(
    const Target& t) const {
  const std::size_t input_bits = t.output_bytes() * 8;
  const std::size_t classes = t.num_differences();
  util::Xoshiro256 rng(seed);
  return build_architecture(arch, input_bits, classes, rng);
}

std::string ExperimentConfig::to_json() const {
  util::JsonBuilder j;
  std::vector<std::string> diff_items;
  diff_items.reserve(diffs.size());
  for (std::uint64_t d : diffs) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%" PRIx64, d);
    diff_items.push_back(util::JsonBuilder::quote(buf));
  }
  j.field("target", target)
      .field("rounds", rounds)
      .field("diff_site", diff_site)
      .raw("diffs", util::JsonBuilder::array(diff_items))
      .field("arch", arch)
      .field("epochs", epochs)
      .field("batch_size", batch_size)
      .field("learning_rate", learning_rate)
      .field("validation_fraction", validation_fraction)
      .field("z_threshold", z_threshold)
      .field("seed", seed)
      .field("threads", threads)
      .field("offline_base_inputs", offline_base_inputs)
      .field("online_base_inputs", online_base_inputs)
      .field("games", games)
      .field("max_retries", max_retries)
      .field("lr_backoff", lr_backoff);
  return j.str();
}

}  // namespace mldist::core
