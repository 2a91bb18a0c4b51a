#include "core/key_recovery.hpp"

#include <algorithm>

#include "ciphers/speck3264.hpp"
#include "util/bits.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mldist::core {

namespace {

using ciphers::Speck3264;
using ciphers::SpeckBlock;

/// Score one candidate subkey: fraction of (decrypted) output differences
/// the model assigns to the correct difference index.
double score_candidate(nn::Sequential& model, std::uint16_t candidate,
                       const std::vector<SpeckBlock>& base_ct,
                       const std::vector<std::vector<SpeckBlock>>& diff_ct) {
  const std::size_t m = base_ct.size();
  const std::size_t t = diff_ct.size();
  nn::Mat x(m * t, 32);
  std::vector<int> labels(m * t);
  std::uint8_t bytes[4];
  for (std::size_t s = 0; s < m; ++s) {
    const SpeckBlock base = Speck3264::round_inverse(base_ct[s], candidate);
    for (std::size_t i = 0; i < t; ++i) {
      const SpeckBlock partner =
          Speck3264::round_inverse(diff_ct[i][s], candidate);
      const std::uint32_t diff = base.as_u32() ^ partner.as_u32();
      util::store_u32_le(bytes, diff);
      util::bits_to_floats(std::span<const std::uint8_t>(bytes, 4),
                           x.row(s * t + i));
      labels[s * t + i] = static_cast<int>(i);
    }
  }
  const std::vector<int> pred = model.predict(x);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) hits += (pred[i] == labels[i]);
  return static_cast<double>(hits) / static_cast<double>(pred.size());
}

}  // namespace

KeyRecoveryResult speck_last_round_key_recovery(
    nn::Sequential& model, std::span<const std::uint32_t> diffs,
    const KeyRecoveryOptions& options) {
  util::Xoshiro256 rng(options.seed);

  // The victim instance.
  const std::array<std::uint16_t, 4> master_key = {
      static_cast<std::uint16_t>(rng.next_u32()),
      static_cast<std::uint16_t>(rng.next_u32()),
      static_cast<std::uint16_t>(rng.next_u32()),
      static_cast<std::uint16_t>(rng.next_u32())};
  const Speck3264 victim(master_key);
  const int rounds = options.total_rounds;
  const std::uint16_t true_subkey =
      victim.round_keys()[static_cast<std::size_t>(rounds - 1)];

  // Chosen-plaintext collection: C = E(P), C_i = E(P ^ d_i).
  const std::size_t t = diffs.size();
  std::vector<SpeckBlock> base_ct(options.base_inputs);
  std::vector<std::vector<SpeckBlock>> diff_ct(
      t, std::vector<SpeckBlock>(options.base_inputs));
  for (std::size_t s = 0; s < options.base_inputs; ++s) {
    const std::uint32_t p = rng.next_u32();
    base_ct[s] = victim.encrypt(SpeckBlock::from_u32(p), rounds);
    for (std::size_t i = 0; i < t; ++i) {
      diff_ct[i][s] =
          victim.encrypt(SpeckBlock::from_u32(p ^ diffs[i]), rounds);
    }
  }

  // Candidate set: explicit list, or all 2^16 — the true key is always
  // scored (injected if the sampled list happens to miss it).
  std::vector<std::uint16_t> candidates = options.candidates;
  if (candidates.empty()) {
    candidates.resize(1 << 16);
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      candidates[k] = static_cast<std::uint16_t>(k);
    }
  } else if (std::find(candidates.begin(), candidates.end(), true_subkey) ==
             candidates.end()) {
    candidates.push_back(true_subkey);
  }

  KeyRecoveryResult res;
  res.true_subkey = true_subkey;
  res.candidates_scored = candidates.size();
  std::vector<double> scores(candidates.size());

  // Candidates are independent; score them in parallel (disjoint slots) and
  // reduce serially in candidate order below, so the ranking is bitwise
  // identical for any worker count.
  const util::Timer score_timer;
  const auto score_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) {
      scores[c] = score_candidate(model, candidates[c], base_ct, diff_ct);
    }
  };
  const std::size_t workers = util::ThreadPool::global().parallel_for(
      candidates.size(), score_range, options.threads);
  res.telemetry.seconds = score_timer.seconds();
  res.telemetry.rows = candidates.size() * options.base_inputs * t;
  res.telemetry.threads = workers;

  double best = -1.0;
  double wrong_sum = 0.0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (candidates[c] == true_subkey) {
      res.true_score = scores[c];
    } else {
      wrong_sum += scores[c];
    }
    if (scores[c] > best) {
      best = scores[c];
      res.best_guess = candidates[c];
    }
  }
  // Rank = number of wrong candidates scoring strictly higher.
  std::size_t better_than_true = 0;
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (candidates[c] != true_subkey && scores[c] > res.true_score) {
      ++better_than_true;
    }
  }
  res.best_score = best;
  res.true_rank = better_than_true;
  res.mean_wrong_score =
      candidates.size() > 1
          ? wrong_sum / static_cast<double>(candidates.size() - 1)
          : 0.0;
  return res;
}

}  // namespace mldist::core
