#include "core/checkpoint.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mldist::core {

namespace {

std::size_t value_count(nn::Sequential& model) {
  std::size_t n = 0;
  for (const auto& p : model.params()) n += p.size;
  for (const auto& s : model.state()) n += s.size();
  return n;
}

}  // namespace

bool CheckpointManager::update(nn::Sequential& model, double val_accuracy) {
  obs::count("core.checkpoint.update_calls");
  if (has_checkpoint() && val_accuracy <= best_) return false;
  obs::Span span("checkpoint.update", "core");
  span.arg("val_accuracy", val_accuracy);
  values_.resize(value_count(model));
  float* out = values_.data();
  for (const auto& p : model.params()) out = std::copy_n(p.value, p.size, out);
  for (const auto& s : model.state()) out = std::copy(s.begin(), s.end(), out);
  best_ = val_accuracy;
  obs::count("core.checkpoint.updates");
  return true;
}

void CheckpointManager::restore(nn::Sequential& model) const {
  if (!has_checkpoint()) {
    throw std::runtime_error("CheckpointManager: no checkpoint to restore");
  }
  if (value_count(model) != values_.size()) {
    throw std::runtime_error(
        "CheckpointManager: the model does not match its checkpoint");
  }
  obs::Span span("checkpoint.restore", "core");
  obs::count("core.checkpoint.restores");
  const float* in = values_.data();
  for (const auto& p : model.params()) {
    std::copy_n(in, p.size, p.value);
    in += p.size;
  }
  for (const auto& s : model.state()) {
    std::copy_n(in, s.size(), s.data());
    in += s.size();
  }
}

}  // namespace mldist::core
