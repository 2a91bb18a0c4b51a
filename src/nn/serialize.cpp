#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/crc32.hpp"

namespace mldist::nn {

namespace {
// The uint32 after the magic is Sequential::topology_hash(): CRC-32 over
// the lowered inference graph's op kinds, edges, and shapes.  Tensor
// count/shape checks catch most architecture mismatches by accident; the
// hash pins the structure itself, so e.g. two different layer orders with
// identical parameter shapes cannot swap files.  NNB3 added the state
// tensors (BatchNorm's running statistics); NNB2 files are refused.
constexpr char kMagic[4] = {'N', 'N', 'B', '3'};
// CRC footer appended after the tensors: kCrcMagic + uint32 CRC-32 of every
// payload byte before the footer.
constexpr char kCrcMagic[4] = {'C', 'R', 'C', '1'};

std::vector<std::span<float>> param_tensors(Sequential& model) {
  std::vector<std::span<float>> out;
  for (const ParamView& p : model.params()) out.emplace_back(p.value, p.size);
  return out;
}
}  // namespace

void save_params(Sequential& model, std::ostream& out) {
  util::Crc32 crc;
  const auto put = [&](const void* data, std::size_t n) {
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
    crc.update(data, n);
  };
  put(kMagic, sizeof(kMagic));
  const std::uint32_t topo = model.topology_hash();
  put(&topo, sizeof(topo));
  const auto put_tensors = [&](const std::vector<std::span<float>>& tensors) {
    const std::uint32_t count = static_cast<std::uint32_t>(tensors.size());
    put(&count, sizeof(count));
    for (const std::span<float> t : tensors) {
      const std::uint64_t size = t.size();
      put(&size, sizeof(size));
      put(t.data(), size * sizeof(float));
    }
  };
  put_tensors(param_tensors(model));
  put_tensors(model.state());
  out.write(kCrcMagic, sizeof(kCrcMagic));
  const std::uint32_t sum = crc.value();
  out.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
  if (!out) throw std::runtime_error("save_params: stream write failed");
}

void load_params(Sequential& model, std::istream& in) {
  util::Crc32 crc;
  const auto get = [&](void* data, std::size_t n) {
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (in) crc.update(data, n);
  };
  char magic[4];
  get(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_params: bad magic");
  }
  std::uint32_t topo = 0;
  get(&topo, sizeof(topo));
  if (!in) throw std::runtime_error("load_params: truncated stream");
  const std::uint32_t expect = model.topology_hash();
  if (topo != expect) {
    throw std::runtime_error(
        "load_params: model topology mismatch (file graph hash " +
        std::to_string(topo) + ", model graph hash " +
        std::to_string(expect) + ")");
  }
  const auto get_tensors = [&](const std::vector<std::span<float>>& tensors) {
    std::uint32_t count = 0;
    get(&count, sizeof(count));
    if (!in || count != tensors.size()) {
      throw std::runtime_error("load_params: tensor count mismatch");
    }
    for (const std::span<float> t : tensors) {
      std::uint64_t size = 0;
      get(&size, sizeof(size));
      if (!in || size != t.size()) {
        throw std::runtime_error("load_params: tensor shape mismatch");
      }
      get(t.data(), size * sizeof(float));
      if (!in) throw std::runtime_error("load_params: truncated stream");
    }
  };
  get_tensors(param_tensors(model));
  get_tensors(model.state());
  // Integrity footer: must be present, and its checksum must match the
  // payload just read.
  char footer[4];
  in.read(footer, sizeof(footer));
  if (in.gcount() != sizeof(footer) ||
      std::memcmp(footer, kCrcMagic, sizeof(kCrcMagic)) != 0) {
    throw std::runtime_error(
        "load_params: corrupt model file (bad CRC footer)");
  }
  std::uint32_t stored = 0;
  in.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!in) {
    throw std::runtime_error(
        "load_params: corrupt model file (truncated CRC footer)");
  }
  if (stored != crc.value()) {
    throw std::runtime_error(
        "load_params: corrupt model file (CRC32 mismatch)");
  }
}

void save_params(Sequential& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_params: cannot open " + path);
  save_params(model, out);
  if (!out) throw std::runtime_error("save_params: write failed for " + path);
}

void load_params(Sequential& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_params: cannot open " + path);
  load_params(model, in);
}

}  // namespace mldist::nn
