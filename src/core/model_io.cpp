#include "core/model_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/arch_zoo.hpp"
#include "nn/serialize.hpp"

namespace mldist::core {

namespace {
constexpr const char* kHeaderMagic = "MLDM1";
}  // namespace

void save_model(nn::Sequential& model, const std::string& arch,
                std::size_t input_bits, std::size_t classes,
                const std::string& path) {
  if (arch.find('\n') != std::string::npos) {
    throw std::invalid_argument("save_model: architecture name has newline");
  }
  // Validate that the name round-trips before writing anything.
  util::Xoshiro256 rng(1);
  (void)build_architecture(arch, input_bits, classes, rng);

  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_model: cannot open " + path);
  out << kHeaderMagic << "\n" << arch << "\n" << input_bits << " " << classes
      << "\n";
  nn::save_params(model, out);
  if (!out) throw std::runtime_error("save_model: write failed for " + path);
}

LoadedModel load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_model: cannot open " + path);
  std::string magic;
  std::getline(in, magic);
  if (magic != kHeaderMagic) {
    throw std::runtime_error("load_model: bad header in " + path);
  }
  LoadedModel out;
  std::getline(in, out.arch);
  std::string dims;
  std::getline(in, dims);
  std::istringstream ds(dims);
  if (!(ds >> out.input_bits >> out.classes) || out.arch.empty()) {
    throw std::runtime_error("load_model: malformed header in " + path);
  }
  // The weights are overwritten below; the init RNG seed is irrelevant.
  util::Xoshiro256 rng(1);
  out.model = build_architecture(out.arch, out.input_bits, out.classes, rng);
  // The payload carries a CRC-32 footer (see nn/serialize.hpp); surface
  // integrity failures with the path so "corrupt model file" errors are
  // actionable.
  try {
    nn::load_params(*out.model, in);
  } catch (const std::exception& e) {
    throw std::runtime_error("load_model: " + path + ": " + e.what());
  }
  return out;
}

}  // namespace mldist::core
