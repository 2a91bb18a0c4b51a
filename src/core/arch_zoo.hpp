// The ten Table-3 architectures from the paper's manual search (§5.1), plus
// the exact parameter counts the paper reports.
//
// The paper's "(128, 1024, 2)" notation counts an INPUT Dense(128) layer —
// that is the only reading under which the printed parameter counts match
// Keras (e.g. MLP I: 226,633 exactly).  We adopt it: every MLP is
// Dense(in->128) -> act -> Dense(...) -> ... -> Dense(2), acting on
// `input_bits` features (128 for the Gimli experiments).
//
// LSTMs read the 128 input bits as 16 timesteps x 8 features and keep the
// dense tail; CNNs read them as 128 positions x 1 channel with kernel-3
// convolutions and a global max-pool before the dense tail (the paper does
// not state kernel sizes; parameter counts for CNNs therefore differ and
// `paper_params` records the paper's number for the comparison table).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "util/rng.hpp"

namespace mldist::core {

struct ArchInfo {
  std::string name;         ///< "MLP III", "LSTM I", ...
  std::string architecture; ///< the tuple as printed in the paper
  std::string activation;   ///< hidden activation as printed
  std::size_t paper_params = 0;
  double paper_time_s = 0.0;
  double paper_accuracy = 0.0;
  bool params_should_match = false;  ///< true for the MLPs
};

/// All ten Table-3 rows, in the paper's order.
const std::vector<ArchInfo>& table3_architectures();

/// Instantiate the named architecture for `input_bits` features and
/// `classes` outputs: "default-mlp", "gohr-net/D" or a Table-3 name.  The
/// one name dispatcher: ExperimentConfig::make_model and core::load_model
/// both build through it.  Throws std::invalid_argument for unknown names
/// and malformed depths.
std::unique_ptr<nn::Sequential> build_architecture(const std::string& name,
                                                   std::size_t input_bits,
                                                   std::size_t classes,
                                                   util::Xoshiro256& rng);

/// The paper's default model for the Table-2 experiments: MLP II
/// (128, 1024, 2) with ReLU — "even a three layer neural network works".
std::unique_ptr<nn::Sequential> build_default_mlp(std::size_t input_bits,
                                                  std::size_t classes,
                                                  util::Xoshiro256& rng);

/// Extension: a small residual convolutional network in the spirit of
/// Gohr's CRYPTO'19 distinguisher (width-1 input convolution, `depth`
/// residual blocks of kernel-3 convolutions with batch normalisation, then
/// a dense head).  Not part of the paper's Table 3; used by the extension
/// benches to compare against the paper's plain MLPs.
std::unique_ptr<nn::Sequential> build_gohr_net(std::size_t input_bits,
                                               std::size_t classes,
                                               std::size_t depth,
                                               util::Xoshiro256& rng);

/// Parse and validate the depth of a "gohr-net/D" architecture name.
/// D must be a plain decimal in [1, 64] with nothing following it; throws
/// std::invalid_argument (the CLI's typed config-error path, exit 2)
/// naming the offending string otherwise.  build_architecture goes through
/// this, so "gohr-net/d=x" surfaces as a descriptive config error instead
/// of an uncaught std::stoul exception.
std::size_t gohr_net_depth(const std::string& arch);

}  // namespace mldist::core
