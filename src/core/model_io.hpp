// Architecture-aware model persistence.
//
// nn::save_params stores only the parameter tensors; the online phase then
// needs to rebuild the exact architecture by hand.  These helpers store a
// small text header (architecture name from the arch zoo, input bits,
// classes) next to the tensors so a model file is self-describing — the
// role the paper's ".h5" files play between the offline and online phases.
//
// Format: "MLDM1\n<arch>\n<input_bits> <classes>\n" followed by the
// nn::save_params payload (which ends in a CRC-32 footer, so corruption or
// truncation of the tensor data is detected at load time).
#pragma once

#include <memory>
#include <string>

#include "nn/model.hpp"
#include "util/rng.hpp"

namespace mldist::core {

/// Persist `model` (which must have been produced by build_architecture /
/// build_default_mlp / build_gohr_net with the given metadata).
void save_model(nn::Sequential& model, const std::string& arch,
                std::size_t input_bits, std::size_t classes,
                const std::string& path);

struct LoadedModel {
  std::unique_ptr<nn::Sequential> model;
  std::string arch;
  std::size_t input_bits = 0;
  std::size_t classes = 0;
};

/// Rebuild the architecture named in the file and load its parameters.
/// Throws std::runtime_error on malformed files or unknown architectures.
LoadedModel load_model(const std::string& path);

}  // namespace mldist::core
