// Plugging YOUR OWN cipher into the framework: implement core::Target once
// and the whole Algorithm 2 pipeline (data collection, training, online
// game) works unchanged.  The paper stresses this genericity: "our work is
// generic, and can be applied to any symmetric key primitive".
//
// The toy primitive here is a deliberately weak 16-bit Feistel network so
// the distinguisher's verdicts are easy to sanity-check by eye.
//
//   $ ./custom_cipher
#include <cstdio>
#include <memory>

#include "core/arch_zoo.hpp"
#include "core/distinguisher.hpp"
#include "core/targets.hpp"
#include "util/bits.hpp"

namespace {

using namespace mldist;

/// A weak 4-round 16-bit Feistel cipher with an 8-bit nonlinear round
/// function — plenty of differential structure left after 4 rounds.
class WeakFeistel {
 public:
  explicit WeakFeistel(std::uint32_t key) : key_(key) {}

  std::uint16_t encrypt(std::uint16_t p, int rounds = 4) const {
    std::uint8_t l = static_cast<std::uint8_t>(p >> 8);
    std::uint8_t r = static_cast<std::uint8_t>(p);
    for (int i = 0; i < rounds; ++i) {
      const std::uint8_t rk = static_cast<std::uint8_t>(key_ >> (8 * (i % 4)));
      const std::uint8_t f = static_cast<std::uint8_t>(
          ((r ^ rk) * 0x1d) ^ ((r ^ rk) >> 3));
      const std::uint8_t nl = static_cast<std::uint8_t>(r);
      r = static_cast<std::uint8_t>(l ^ f);
      l = nl;
    }
    return static_cast<std::uint16_t>((l << 8) | r);
  }

 private:
  std::uint32_t key_;
};

/// Adapter: everything the framework needs to know about the primitive.
class WeakFeistelTarget : public core::Target {
 public:
  std::size_t num_differences() const override { return 2; }
  std::size_t output_bytes() const override { return 2; }

  void sample(util::Xoshiro256& rng,
              std::vector<std::vector<std::uint8_t>>& out_diffs) const override {
    const WeakFeistel cipher(rng.next_u32());
    const std::uint16_t p = static_cast<std::uint16_t>(rng.next_u32());
    const std::uint16_t c = cipher.encrypt(p);
    const std::uint16_t deltas[2] = {0x0001, 0x0100};
    out_diffs.assign(2, std::vector<std::uint8_t>(2));
    for (int i = 0; i < 2; ++i) {
      const std::uint16_t d = static_cast<std::uint16_t>(
          cipher.encrypt(static_cast<std::uint16_t>(p ^ deltas[i])) ^ c);
      out_diffs[static_cast<std::size_t>(i)][0] = static_cast<std::uint8_t>(d);
      out_diffs[static_cast<std::size_t>(i)][1] =
          static_cast<std::uint8_t>(d >> 8);
    }
  }

  std::string name() const override { return "weak-feistel/4r"; }
};

}  // namespace

int main() {
  const WeakFeistelTarget target;
  std::printf("custom target: %s (t = %zu, %zu output bytes)\n",
              target.name().c_str(), target.num_differences(),
              target.output_bytes());

  mldist::util::Xoshiro256 rng(99);
  auto model =
      mldist::core::build_default_mlp(target.output_bytes() * 8, 2, rng);
  mldist::core::ExperimentConfig config;
  config.epochs = 5;
  mldist::core::MLDistinguisher dist(std::move(model), config);

  const mldist::core::TrainReport train = dist.train(target, 5000);
  std::printf("training accuracy a = %.4f (1/t = 0.5): %s\n",
              train.val_accuracy,
              train.usable ? "distinguisher found" : "no distinguisher");

  const mldist::core::CipherOracle oracle(target);
  const mldist::core::OnlineReport rep = dist.test(oracle, 1500);
  std::printf("online a' = %.4f -> %s\n", rep.accuracy,
              mldist::core::verdict_name(rep.verdict));
  return 0;
}
