#include "core/arch_zoo.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/residual.hpp"

namespace mldist::core {

const std::vector<ArchInfo>& table3_architectures() {
  static const std::vector<ArchInfo> kTable = {
      {"MLP I", "(128, 296, 258, 207, 112, 160, 2)", "ReLU", 226633, 330.8,
       0.5465, true},
      {"MLP II", "(128, 1024, 2)", "ReLU", 150658, 270.2, 0.5462, true},
      {"MLP III", "(128, 1024, 1024, 2)", "ReLU", 1200256, 287.4, 0.5654, true},
      {"MLP IV", "(128, 256, 128, 64, 2)", "LeakyReLU", 90818, 307.9, 0.5473,
       true},
      {"MLP V", "(128, 1024, 2)", "LeakyReLU", 150658, 271.3, 0.5470, true},
      {"MLP VI", "(128, 1024, 1024, 2)", "LeakyReLU", 1200256, 290.8, 0.5476,
       true},
      {"LSTM I", "(128, 256, 128, 2)", "tanh/sigmoid", 444162, 2814.6, 0.5305,
       false},
      {"LSTM II", "(128, 200, 100, 128, 2)", "tanh/sigmoid", 313170, 2727.7,
       0.5324, false},
      {"CNN I", "(128, 128, 128, 100, 2)", "ReLU", 128046, 475.6, 0.5000,
       false},
      {"CNN II", "(128, 1024, 128, 128, 100, 2)", "ReLU", 604206, 537.3,
       0.5000, false},
  };
  return kTable;
}

namespace {

enum class Act { kRelu, kLeaky };

std::unique_ptr<nn::Layer> make_act(Act a) {
  if (a == Act::kRelu) return std::make_unique<nn::ReLU>();
  return std::make_unique<nn::LeakyReLU>();
}

/// Dense stack per the paper's tuple convention: the first entry is an
/// input Dense layer of that width; the last entry is the softmax head
/// (softmax itself lives in the loss).
std::unique_ptr<nn::Sequential> mlp(const std::vector<std::size_t>& widths,
                                    Act act, std::size_t input_bits,
                                    std::size_t classes,
                                    util::Xoshiro256& rng) {
  auto model = std::make_unique<nn::Sequential>();
  std::size_t in = input_bits;
  for (std::size_t width : widths) {
    model->add(std::make_unique<nn::Dense>(in, width, rng));
    model->add(make_act(act));
    in = width;
  }
  model->add(std::make_unique<nn::Dense>(in, classes, rng));
  return model;
}

/// LSTM stack: input Dense(128), reshape to 16x8, LSTM(hidden...), dense
/// tail.  tanh/sigmoid activations live inside the LSTM cells.
std::unique_ptr<nn::Sequential> lstm_stack(
    const std::vector<std::size_t>& hidden, std::size_t dense_tail,
    std::size_t input_bits, std::size_t classes, util::Xoshiro256& rng) {
  constexpr std::size_t kTimesteps = 16;
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Dense>(input_bits, 128, rng));
  std::size_t t = kTimesteps;
  std::size_t f = 128 / kTimesteps;
  for (std::size_t h : hidden) {
    model->add(std::make_unique<nn::LSTM>(t, f, h, rng));
    // Subsequent LSTMs see the final hidden state as one timestep.
    t = 1;
    f = h;
  }
  if (dense_tail > 0) {
    model->add(std::make_unique<nn::Dense>(f, dense_tail, rng));
    model->add(std::make_unique<nn::Tanh>());
    f = dense_tail;
  }
  model->add(std::make_unique<nn::Dense>(f, classes, rng));
  return model;
}

/// CNN stack: input Dense(128), reshape to 128x1, Conv1D layers (kernel 3,
/// same padding), global max pool, dense tail.
std::unique_ptr<nn::Sequential> cnn_stack(const std::vector<std::size_t>& filters,
                                          std::size_t dense_tail,
                                          std::size_t input_bits,
                                          std::size_t classes,
                                          util::Xoshiro256& rng) {
  constexpr std::size_t kKernel = 3;
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Dense>(input_bits, 128, rng));
  constexpr std::size_t kLength = 128;
  std::size_t channels = 1;
  for (std::size_t fct : filters) {
    model->add(std::make_unique<nn::Conv1D>(kLength, channels, fct, kKernel, rng));
    model->add(std::make_unique<nn::ReLU>());
    channels = fct;
  }
  model->add(std::make_unique<nn::GlobalMaxPool1D>(kLength, channels));
  model->add(std::make_unique<nn::Dense>(channels, dense_tail, rng));
  model->add(std::make_unique<nn::ReLU>());
  model->add(std::make_unique<nn::Dense>(dense_tail, classes, rng));
  return model;
}

}  // namespace

std::unique_ptr<nn::Sequential> build_architecture(const std::string& name,
                                                   std::size_t input_bits,
                                                   std::size_t classes,
                                                   util::Xoshiro256& rng) {
  if (name == "default-mlp") {
    return build_default_mlp(input_bits, classes, rng);
  }
  if (name.rfind("gohr-net/", 0) == 0) {
    return build_gohr_net(input_bits, classes, gohr_net_depth(name), rng);
  }
  if (name == "MLP I") {
    return mlp({128, 296, 258, 207, 112, 160}, Act::kRelu, input_bits, classes,
               rng);
  }
  if (name == "MLP II") {
    return mlp({128, 1024}, Act::kRelu, input_bits, classes, rng);
  }
  if (name == "MLP III") {
    return mlp({128, 1024, 1024}, Act::kRelu, input_bits, classes, rng);
  }
  if (name == "MLP IV") {
    return mlp({128, 256, 128, 64}, Act::kLeaky, input_bits, classes, rng);
  }
  if (name == "MLP V") {
    return mlp({128, 1024}, Act::kLeaky, input_bits, classes, rng);
  }
  if (name == "MLP VI") {
    return mlp({128, 1024, 1024}, Act::kLeaky, input_bits, classes, rng);
  }
  if (name == "LSTM I") {
    return lstm_stack({256}, 128, input_bits, classes, rng);
  }
  if (name == "LSTM II") {
    return lstm_stack({200, 100}, 128, input_bits, classes, rng);
  }
  if (name == "CNN I") {
    return cnn_stack({128, 128}, 100, input_bits, classes, rng);
  }
  if (name == "CNN II") {
    return cnn_stack({1024, 128, 128}, 100, input_bits, classes, rng);
  }
  throw std::invalid_argument("build_architecture: unknown name " + name);
}

std::unique_ptr<nn::Sequential> build_default_mlp(std::size_t input_bits,
                                                  std::size_t classes,
                                                  util::Xoshiro256& rng) {
  return mlp({128, 1024}, Act::kRelu, input_bits, classes, rng);
}

std::unique_ptr<nn::Sequential> build_gohr_net(std::size_t input_bits,
                                               std::size_t classes,
                                               std::size_t depth,
                                               util::Xoshiro256& rng) {
  constexpr std::size_t kChannels = 32;
  const std::size_t length = input_bits;
  auto model = std::make_unique<nn::Sequential>();
  // Width-1 "embedding" convolution lifting each bit into kChannels.
  model->add(std::make_unique<nn::Conv1D>(length, 1, kChannels, 1, rng));
  model->add(std::make_unique<nn::BatchNorm>(length * kChannels));
  model->add(std::make_unique<nn::ReLU>());
  for (std::size_t d = 0; d < depth; ++d) {
    auto block = std::make_unique<nn::Residual>();
    block->add(std::make_unique<nn::Conv1D>(length, kChannels, kChannels, 3, rng));
    block->add(std::make_unique<nn::BatchNorm>(length * kChannels));
    block->add(std::make_unique<nn::ReLU>());
    block->add(std::make_unique<nn::Conv1D>(length, kChannels, kChannels, 3, rng));
    block->add(std::make_unique<nn::BatchNorm>(length * kChannels));
    model->add(std::move(block));
    model->add(std::make_unique<nn::ReLU>());
  }
  model->add(std::make_unique<nn::GlobalMaxPool1D>(length, kChannels));
  model->add(std::make_unique<nn::Dense>(kChannels, 64, rng));
  model->add(std::make_unique<nn::ReLU>());
  model->add(std::make_unique<nn::Dense>(64, classes, rng));
  return model;
}

std::size_t gohr_net_depth(const std::string& arch) {
  constexpr std::string_view kPrefix = "gohr-net/";
  if (arch.rfind(kPrefix, 0) != 0) {
    throw std::invalid_argument("not a gohr-net architecture name: '" + arch +
                                "'");
  }
  const std::string depth_text = arch.substr(kPrefix.size());
  if (depth_text.empty() ||
      depth_text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(
        "bad architecture '" + arch +
        "': expected gohr-net/<depth> with a decimal depth");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long depth =
      std::strtoull(depth_text.c_str(), &end, 10);
  if (errno == ERANGE || depth < 1 || depth > 64) {
    throw std::invalid_argument("bad architecture '" + arch +
                                "': depth must be in [1, 64]");
  }
  return static_cast<std::size_t>(depth);
}

}  // namespace mldist::core
