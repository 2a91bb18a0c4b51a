#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "kernels/gemm.hpp"
#include "obs/metrics.hpp"
#include "util/bits.hpp"
#include "util/flags.hpp"
#include "util/hex.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mldist::util;

// ---------------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitMix64KnownValue) {
  // Reference value from the splitmix64 public-domain implementation.
  std::uint64_t s = 0;
  EXPECT_EQ(splitmix64_next(s), 0xe220a8397b1dcdafULL);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Xoshiro256 rng(13);
  constexpr int kN = 20000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sq / kN, 1.0, 0.05);
}

TEST(Rng, FillBytesDeterministicAndBalanced) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  auto va = a.bytes(1000);
  auto vb = b.bytes(1000);
  EXPECT_EQ(va, vb);
  const int weight = hamming_weight(va);
  EXPECT_NEAR(weight, 4000, 300);  // 8000 bits, half set
}

TEST(Rng, FillBytesOddLengths) {
  Xoshiro256 rng(5);
  for (std::size_t n : {0u, 1u, 3u, 7u, 9u, 15u}) {
    EXPECT_EQ(rng.bytes(n).size(), n);
  }
}

TEST(Rng, ForkIndependentButDeterministic) {
  Xoshiro256 a(21);
  Xoshiro256 b(21);
  Xoshiro256 fa = a.fork();
  Xoshiro256 fb = b.fork();
  EXPECT_EQ(fa.next_u64(), fb.next_u64());
  // Parent stream continues after fork identically.
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UsableWithStdShuffle) {
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  const auto orig = v;
  Xoshiro256 rng(17);
  std::shuffle(v.begin(), v.end(), rng);
  EXPECT_NE(v, orig);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ---------------------------------------------------------------------------
// bits
// ---------------------------------------------------------------------------

TEST(Bits, LoadStoreRoundTrip) {
  std::uint8_t buf[4];
  for (std::uint32_t v : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0x01020304u}) {
    store_u32_le(buf, v);
    EXPECT_EQ(load_u32_le(buf), v);
  }
}

TEST(Bits, LoadIsLittleEndian) {
  const std::uint8_t buf[4] = {0x01, 0x02, 0x03, 0x04};
  EXPECT_EQ(load_u32_le(buf), 0x04030201u);
}

TEST(Bits, XorVec) {
  const std::vector<std::uint8_t> a = {0xff, 0x00, 0xaa};
  const std::vector<std::uint8_t> b = {0x0f, 0xf0, 0xaa};
  const auto c = xor_vec(a, b);
  EXPECT_EQ(c, (std::vector<std::uint8_t>{0xf0, 0xf0, 0x00}));
}

TEST(Bits, XorVecLengthMismatchThrows) {
  const std::vector<std::uint8_t> a = {1, 2};
  const std::vector<std::uint8_t> b = {1};
  EXPECT_THROW((void)xor_vec(a, b), std::invalid_argument);
}

TEST(Bits, BitsToFloatsLsbFirst) {
  const std::vector<std::uint8_t> in = {0b00000101, 0b10000000};
  float out[16];
  bits_to_floats(in, out);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 1.0f);
  for (int i = 3; i < 15; ++i) EXPECT_FLOAT_EQ(out[i], 0.0f);
  EXPECT_FLOAT_EQ(out[15], 1.0f);
}

TEST(Bits, GetFlipBit) {
  std::uint8_t buf[2] = {0, 0};
  EXPECT_EQ(get_bit(buf, 11), 0);
  flip_bit(buf, 11);
  EXPECT_EQ(get_bit(buf, 11), 1);
  EXPECT_EQ(buf[1], 0x08);
  flip_bit(buf, 11);
  EXPECT_EQ(buf[1], 0x00);
}

TEST(Bits, HammingWeight) {
  EXPECT_EQ(hamming_weight(std::vector<std::uint8_t>{}), 0);
  EXPECT_EQ(hamming_weight(std::vector<std::uint8_t>{0xff}), 8);
  EXPECT_EQ(hamming_weight(std::vector<std::uint8_t>{0x0f, 0xf0, 0x01}), 9);
}

// ---------------------------------------------------------------------------
// hex
// ---------------------------------------------------------------------------

TEST(Hex, RoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x00, 0x12, 0xab, 0xff};
  EXPECT_EQ(to_hex(bytes), "0012abff");
  EXPECT_EQ(from_hex("0012abff"), bytes);
}

TEST(Hex, AcceptsUppercaseAndWhitespace) {
  EXPECT_EQ(from_hex("DE AD\nBE EF"),
            (std::vector<std::uint8_t>{0xde, 0xad, 0xbe, 0xef}));
}

TEST(Hex, RejectsMalformed) {
  EXPECT_THROW((void)from_hex("abc"), std::invalid_argument);
  EXPECT_THROW((void)from_hex("zz"), std::invalid_argument);
}

TEST(Hex, EmptyInput) {
  EXPECT_EQ(to_hex(std::vector<std::uint8_t>{}), "");
  EXPECT_TRUE(from_hex("").empty());
}

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(Flags, AcceptsInRangeDecimalAndOptionalHex) {
  std::uint64_t seed = 0;
  EXPECT_TRUE(flag_value("--seed", "0x2A", seed, 0, /*hex=*/true));
  EXPECT_EQ(seed, 42u);
  EXPECT_TRUE(flag_value("--seed", "42", seed, 0, /*hex=*/true));
  EXPECT_EQ(seed, 42u);
  int epochs = 0;
  EXPECT_TRUE(flag_value("--epochs", "2147483647", epochs, 1));
  EXPECT_EQ(epochs, 2147483647);
  std::size_t workers = 7;
  EXPECT_TRUE(flag_value("--workers", "0", workers));
  EXPECT_EQ(workers, 0u);
}

TEST(Flags, RejectsMalformedAndOutOfRangeLeavingTheValue) {
  int epochs = 3;
  for (const char* bad : {"abc", "-5", "", "12x", " 1", "+1", "007", "0",
                          "2147483648", "0x10"}) {
    EXPECT_FALSE(flag_value("--epochs", bad, epochs, 1)) << bad;
  }
  EXPECT_EQ(epochs, 3);
  std::uint64_t seed = 9;
  for (const char* bad : {"0x", "0xzz", "18446744073709551616", "1e3"}) {
    EXPECT_FALSE(flag_value("--seed", bad, seed, 0, /*hex=*/true))
        << bad;
  }
  EXPECT_EQ(seed, 9u);
}

TEST(Stats, MeanAndStddev) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0, 4.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
  EXPECT_NEAR(stddev({2.0, 4.0, 6.0}), 2.0, 1e-12);
}

TEST(Stats, BinomialSummary) {
  const auto s = binomial_summary(60, 100);
  EXPECT_DOUBLE_EQ(s.p_hat, 0.6);
  EXPECT_NEAR(s.std_error, std::sqrt(0.6 * 0.4 / 100), 1e-12);
  EXPECT_LT(s.ci_low, 0.6);
  EXPECT_GT(s.ci_high, 0.6);
  const auto empty = binomial_summary(0, 0);
  EXPECT_DOUBLE_EQ(empty.p_hat, 0.0);
}

// Wilson score KATs, computed by hand from the closed form with z = 1.96:
//   center = (p_hat + z^2/2n) / (1 + z^2/n)
//   half   = z/(1 + z^2/n) * sqrt(p_hat(1-p_hat)/n + z^2/(4n^2))
TEST(Stats, BinomialSummaryWilsonKnownAnswers) {
  // 8/10: the textbook Wilson example.
  const auto s = binomial_summary(8, 10);
  EXPECT_NEAR(s.ci_low, 0.4901568, 1e-6);
  EXPECT_NEAR(s.ci_high, 0.9433191, 1e-6);
  // 15/50.
  const auto t = binomial_summary(15, 50);
  EXPECT_NEAR(t.ci_low, 0.1910339, 1e-6);
  EXPECT_NEAR(t.ci_high, 0.4375061, 1e-6);
}

TEST(Stats, BinomialSummaryAllSuccessesKeepsWidth) {
  // 20/20: the Wald interval degenerates to [1, 1]; Wilson keeps nonzero
  // width.  At p_hat = 1, center + half = 1 exactly and the lower bound is
  // 1/(1 + z^2/n).
  const auto s = binomial_summary(20, 20);
  EXPECT_DOUBLE_EQ(s.p_hat, 1.0);
  EXPECT_NEAR(s.ci_low, 1.0 / (1.0 + 1.96 * 1.96 / 20.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.ci_high, 1.0);
  EXPECT_LT(s.ci_low, 1.0);
}

TEST(Stats, BinomialSummaryZeroSuccessesKeepsWidth) {
  // 0/20 mirrors 20/20: [0, z^2/n / (1 + z^2/n)].
  const auto s = binomial_summary(0, 20);
  EXPECT_DOUBLE_EQ(s.p_hat, 0.0);
  EXPECT_DOUBLE_EQ(s.ci_low, 0.0);
  const double z2n = 1.96 * 1.96 / 20.0;
  EXPECT_NEAR(s.ci_high, z2n / (1.0 + z2n), 1e-12);
  EXPECT_GT(s.ci_high, 0.0);
}

TEST(Stats, BinomialSummaryAlwaysInsideUnitInterval) {
  for (std::size_t n : {1u, 2u, 5u, 30u, 1000u}) {
    for (std::size_t k = 0; k <= n; k += std::max<std::size_t>(1, n / 7)) {
      const auto s = binomial_summary(k, n);
      EXPECT_GE(s.ci_low, 0.0) << k << "/" << n;
      EXPECT_LE(s.ci_high, 1.0) << k << "/" << n;
      EXPECT_LE(s.ci_low, s.p_hat) << k << "/" << n;
      EXPECT_GE(s.ci_high, s.p_hat) << k << "/" << n;
    }
  }
}

TEST(Stats, RandomGuessAccuracyMatchesPaperExamples) {
  // §3.1: accuracy 0.5 for t = 2 and 0.03125 for t = 32.
  EXPECT_DOUBLE_EQ(random_guess_accuracy(2), 0.5);
  EXPECT_DOUBLE_EQ(random_guess_accuracy(32), 0.03125);
}

TEST(Stats, SamplesToDistinguish) {
  // No advantage -> not distinguishable.
  EXPECT_EQ(samples_to_distinguish(0.5, 2),
            std::numeric_limits<std::size_t>::max());
  // Larger advantage -> fewer samples.
  const auto n_small = samples_to_distinguish(0.51, 2);
  const auto n_large = samples_to_distinguish(0.6, 2);
  EXPECT_LT(n_large, n_small);
  // The paper's 8-round accuracy ~0.51 needs on the order of 2^14 samples
  // at 3 sigma; sanity-check the magnitude.
  EXPECT_GT(n_small, 5000u);
  EXPECT_LT(n_small, 50000u);
}

TEST(Stats, BinomialZScore) {
  EXPECT_DOUBLE_EQ(binomial_z_score(50, 100, 0.5), 0.0);
  EXPECT_GT(binomial_z_score(60, 100, 0.5), 1.9);
  EXPECT_LT(binomial_z_score(40, 100, 0.5), -1.9);
  EXPECT_DOUBLE_EQ(binomial_z_score(0, 0, 0.5), 0.0);
}


// ---------------------------------------------------------------------------
// JSON artifacts
// ---------------------------------------------------------------------------

TEST(Json, WriteJsonFilePublishesAtomically) {
  const auto dir = std::filesystem::temp_directory_path() / "mldist_json_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "deep" / "out.json").string();
  // Parent directories are created on demand.
  ASSERT_TRUE(write_json_file(path, "{\"a\":1}"));
  // The temp staging file must not be left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "{\"a\":1}\n");
  // Overwrite: the old content is fully replaced, never torn.
  ASSERT_TRUE(write_json_file(path, "{\"b\":2}"));
  std::ifstream in2(path);
  std::string text2((std::istreambuf_iterator<char>(in2)),
                    std::istreambuf_iterator<char>());
  EXPECT_EQ(text2, "{\"b\":2}\n");
  std::filesystem::remove_all(dir);
}

TEST(Json, WriteJsonFileReportsDescriptiveError) {
  // A directory at the destination path makes the final rename fail; the
  // error must name the paths involved so callers can print it as-is.
  const auto target = std::filesystem::temp_directory_path() /
                      "mldist_json_test_target.json";
  std::filesystem::create_directories(target);
  const WriteResult r = write_json_file(target.string(), "{}");
  EXPECT_FALSE(r);
  EXPECT_NE(r.error.find("mldist_json_test_target.json"), std::string::npos)
      << r.error;
  // The staging file is cleaned up on failure.
  EXPECT_FALSE(std::filesystem::exists(target.string() + ".tmp"));
  std::filesystem::remove_all(target);
}

TEST(Json, ValidatorAcceptsWellFormedDocuments) {
  for (const char* doc : {
           "{}", "[]", "null", "true", "-1.5e-3", "\"str\"",
           "{\"a\":[1,2,{\"b\":null}],\"c\":\"\\u00e9\\n\"}",
           "[0.5, 1e10, -0]",
       }) {
    std::string error;
    EXPECT_TRUE(json_validate(doc, &error)) << doc << ": " << error;
  }
}

TEST(Json, ValidatorRejectsMalformedDocuments) {
  for (const char* doc : {
           "", "{", "}", "[1,]", "{\"a\":}", "{\"a\" 1}", "nul",
           "\"unterminated", "01", "1.", "+1", "[1] extra",
           "\"bad \\x escape\"", "{\"a\":1,}",
       }) {
    std::string error;
    EXPECT_FALSE(json_validate(doc, &error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
  }
}

TEST(Json, BuilderOutputValidates) {
  JsonBuilder j;
  j.field("name", "quote\"backslash\\and\nnewline")
      .field("count", std::size_t{42})
      .field("ratio", 0.25)
      .field("flag", true)
      .raw("nested", "{\"x\":[1,2,3]}");
  std::string error;
  EXPECT_TRUE(json_validate(j.str(), &error)) << j.str() << ": " << error;
}

// ---------------------------------------------------------------------------
// thread pool
// ---------------------------------------------------------------------------

TEST(ThreadPool, CoversWholeRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(3);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> total{0};
  pool.parallel_for(1, [&](std::size_t b, std::size_t e) {
    total += static_cast<int>(e - b);
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> hits(64, 0);
  pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(97, [&](std::size_t b, std::size_t e) {
      long local = 0;
      for (std::size_t i = b; i < e; ++i) local += static_cast<long>(i);
      sum += local;
    });
  }
  EXPECT_EQ(sum.load(), 200L * (96L * 97L / 2));
}

TEST(ThreadPool, GlobalPoolExists) {
  EXPECT_GE(ThreadPool::global().thread_count(), 1u);
}

// Regression for the exception-escape bug: a throw from a chunk running on
// a worker thread used to escape worker_loop and std::terminate the whole
// process.  It must instead surface on the calling thread.
TEST(ThreadPool, WorkerExceptionRethrownOnCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t b, std::size_t) {
                          // Chunk 0 runs on the calling thread; make sure a
                          // *worker* chunk is the one that throws.
                          if (b > 0) throw std::runtime_error("worker boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, CallerExceptionTakesPrecedence) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(100, [&](std::size_t b, std::size_t) {
      if (b == 0) throw std::logic_error("caller boom");
      throw std::runtime_error("worker boom");
    });
    FAIL() << "parallel_for did not rethrow";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "caller boom");
  }
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(pool.parallel_for(
                     64, [&](std::size_t, std::size_t) {
                       throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The error slot must be cleared: the next generation succeeds and
    // covers the whole range exactly once.
    std::atomic<int> total{0};
    pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
      total += static_cast<int>(e - b);
    });
    EXPECT_EQ(total.load(), 64);
  }
}

TEST(ThreadPool, OtherChunksStillRunWhenOneThrows) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(256);
  try {
    pool.parallel_for(256, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      if (b > 0 && b < 128) throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
  }
  // No cancellation: every chunk ran to completion exactly once.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, MaxWorkersCapsTheFanOut) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  const auto count = [&](std::size_t, std::size_t) { chunks.fetch_add(1); };
  EXPECT_EQ(pool.parallel_for(100, count, 2), 2u);
  EXPECT_EQ(chunks.exchange(0), 2);
  EXPECT_EQ(pool.parallel_for(100, count), 4u);
  EXPECT_EQ(chunks.exchange(0), 4);
  // 5 rows over 4 workers split 2+2+1: the empty fourth chunk never runs.
  EXPECT_EQ(pool.parallel_for(5, count), 3u);
  EXPECT_EQ(chunks.exchange(0), 3);
  // A cap of 1 runs the whole range inline, as a parallel region.
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_EQ(pool.parallel_for(100,
                              [&](std::size_t b, std::size_t e) {
                                EXPECT_EQ(b, 0u);
                                EXPECT_EQ(e, 100u);
                                EXPECT_EQ(std::this_thread::get_id(), caller);
                                EXPECT_TRUE(ThreadPool::in_parallel_region());
                              },
                              1),
            1u);
}

// A ScopedCap limits every range its thread starts, kernels' included, and
// ends with its scope.
TEST(ThreadPool, ScopedCapLimitsEveryRangeItsThreadStarts) {
  ThreadPool& pool = ThreadPool::global();
  const auto chunks = [&] {
    return pool.parallel_for(100, [](std::size_t, std::size_t) {});
  };
  const std::size_t uncapped = chunks();
  EXPECT_EQ(uncapped, std::min<std::size_t>(pool.thread_count(), 100));
  {
    const ThreadPool::ScopedCap cap(1);
    const std::thread::id caller = std::this_thread::get_id();
    EXPECT_EQ(pool.width(), 1u);
    EXPECT_EQ(pool.parallel_for(100,
                                [&](std::size_t b, std::size_t e) {
                                  EXPECT_EQ(b, 0u);
                                  EXPECT_EQ(e, 100u);
                                  EXPECT_EQ(std::this_thread::get_id(),
                                            caller);
                                }),
              1u);
    // An inner cap cannot widen an outer one.
    const ThreadPool::ScopedCap wider(4);
    EXPECT_EQ(chunks(), 1u);
  }
  {
    const ThreadPool::ScopedCap cap(2);
    EXPECT_LE(chunks(), 2u);
    EXPECT_LE(pool.width(8), 2u);
  }
  EXPECT_EQ(chunks(), uncapped);  // the cap ended with its scope

  // kernels::gemm splits its rows over the pool above kParallelThreshold;
  // each row chunk is one gemm_impl call on the kernels.gemm.calls.*
  // counters.
  constexpr std::size_t m = 64, k = 128, n = 128;
  static_assert(m * k * n >= mldist::kernels::kParallelThreshold);
  std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f), c(m * n);
  const auto gemm_chunks = [&] {
    const auto calls = [] {
      std::uint64_t total = 0;
      for (const auto& [name, value] :
           mldist::obs::MetricsRegistry::global().snapshot().counters) {
        if (name.rfind("kernels.gemm.calls.", 0) == 0) total += value;
      }
      return total;
    };
    const std::uint64_t before = calls();
    mldist::kernels::gemm(a.data(), k, 1, b.data(), n, 1, c.data(), m, k, n);
    return calls() - before;
  };
  EXPECT_EQ(gemm_chunks(), std::min(uncapped, m));
  {
    const ThreadPool::ScopedCap cap(1);
    EXPECT_EQ(gemm_chunks(), 1u);
  }
  {
    const ThreadPool::ScopedCap cap(2);
    EXPECT_LE(gemm_chunks(), 2u);
  }
  EXPECT_EQ(c[0], 0.5f * 0.25f * static_cast<float>(k));
}

// A caller that finds the pool running another caller's range runs its
// own range inline on its own thread instead of waiting or sharing.
TEST(ThreadPool, BusyPoolRunsTheSecondCallerInline) {
  ThreadPool pool(2);
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  std::size_t first_fan_out = 0;
  std::thread first([&] {
    first_fan_out = pool.parallel_for(2, [&](std::size_t, std::size_t) {
      entered.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (entered.load() == 0) std::this_thread::yield();

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(50, 0);
  bool inline_region = true;
  const std::size_t fan_out =
      pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
        inline_region = inline_region &&
                        std::this_thread::get_id() == caller &&
                        ThreadPool::in_parallel_region();
        for (std::size_t i = b; i < e; ++i) ++hits[i];
      });
  release.store(true);
  first.join();
  EXPECT_EQ(fan_out, 1u);
  EXPECT_TRUE(inline_region);
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(first_fan_out, 2u);
  EXPECT_EQ(entered.load(), 2);
}

// Several threads outside the pool call the one process pool at once, as
// two models' serving workers do.  Every call must visit each index of its
// own range exactly once; a wedged pool fails at the deadline instead of
// stalling the suite.
TEST(ThreadPool, ConcurrentCallersCoverEveryIndexOnce) {
  constexpr int kCallers = 4;
  constexpr int kCalls = 3000;
  std::atomic<int> finished{0};
  std::atomic<int> bad_calls{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int call = 0; call < kCalls; ++call) {
        const auto n = static_cast<std::size_t>(1 + (call * 7 + t * 13) % 61);
        std::array<std::atomic<int>, 64> hits{};
        ThreadPool::global().parallel_for(n, [&](std::size_t b, std::size_t e) {
          for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i) {
          if (hits[i].load() != 1) {
            bad_calls.fetch_add(1);
            break;
          }
        }
      }
      finished.fetch_add(1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (finished.load() < kCallers) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "ConcurrentCallersCoverEveryIndexOnce: %d of %d "
                   "callers finished before the deadline; the pool is "
                   "wedged\n", finished.load(), kCallers);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& th : callers) th.join();
  EXPECT_EQ(bad_calls.load(), 0);
}

}  // namespace
