// Model parameter persistence.
//
// The paper stores the trained Keras model in an ".h5" file between the
// offline and online phases; our equivalent is a compact binary ".nnb"
// format holding every parameter tensor and every state tensor (BatchNorm's
// running mean and variance, Sequential::state()) in layer order, so a
// reloaded model predicts exactly as the saved one did.  Loading requires a
// structurally identical model (same layer stack); shapes are verified.
//
// Format (NNB3):
//   magic "NNB3" | u32 topology hash
//   | u32 param_count | per param tensor: u64 size | f32[size]
//   | u32 state_count | per state tensor: u64 size | f32[size]
//   | footer "CRC1" | u32 crc32 of every byte before the footer.
// load_params rejects a file whose magic (NNB2 and older included),
// topology hash, tensor counts and shapes or CRC-32 footer (util/crc32) do
// not match, including one cut short at any byte.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/model.hpp"

namespace mldist::nn {

/// Write all parameters of `model` to `path`.  Throws std::runtime_error on
/// I/O failure.
void save_params(Sequential& model, const std::string& path);

/// Load parameters saved by save_params into a structurally identical
/// model.  Throws std::runtime_error on I/O failure or shape mismatch.
void load_params(Sequential& model, const std::string& path);

/// Stream variants (used by core::save_model to embed the payload after a
/// self-describing header).
void save_params(Sequential& model, std::ostream& out);
void load_params(Sequential& model, std::istream& in);

}  // namespace mldist::nn
