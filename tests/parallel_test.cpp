// Determinism contract of the parallel pipeline (see DESIGN.md):
//   * derive_stream_seed gives independent, reproducible per-chunk streams;
//   * collect_dataset's chunked engine is a pure function of (seed, chunk
//     size) — bitwise identical for every worker count, including sizes
//     that do not divide evenly into chunks;
//   * Sequential::evaluate / predict reduce per-batch partials in batch
//     order — identical results for every worker cap;
//   * nested parallel_for calls run inline instead of deadlocking;
//   * concurrent GEMMs on per-thread pack panels stay bitwise equal to the
//     reference kernel;
//   * a full MLDistinguisher::train is reproducible across thread counts,
//     and a fit capped at one thread equals one on the whole pool.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "campaign/spec.hpp"
#include "core/dataset.hpp"
#include "core/distinguisher.hpp"
#include "core/experiment.hpp"
#include "core/targets.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gemm.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mldist;

// ---------------------------------------------------------------------------
// derive_stream_seed
// ---------------------------------------------------------------------------

TEST(StreamSeed, DeterministicPerIndex) {
  EXPECT_EQ(util::derive_stream_seed(42, 0), util::derive_stream_seed(42, 0));
  EXPECT_EQ(util::derive_stream_seed(42, 7), util::derive_stream_seed(42, 7));
}

TEST(StreamSeed, DistinctAcrossIndicesAndMasters) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t master : {0ULL, 1ULL, 42ULL, 0xdeadbeefULL}) {
    for (std::uint64_t index = 0; index < 256; ++index) {
      seen.insert(util::derive_stream_seed(master, index));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 256u);
}

TEST(StreamSeed, StreamsAreNotShiftedCopies) {
  // The first outputs of adjacent streams must not overlap: a plain
  // counter seed would make stream c+1 replay stream c shifted by one.
  util::Xoshiro256 a(util::derive_stream_seed(9, 0));
  util::Xoshiro256 b(util::derive_stream_seed(9, 1));
  std::set<std::uint64_t> outputs;
  for (int i = 0; i < 64; ++i) {
    outputs.insert(a.next_u64());
    outputs.insert(b.next_u64());
  }
  EXPECT_EQ(outputs.size(), 128u);
}

// ---------------------------------------------------------------------------
// collect_dataset engine
// ---------------------------------------------------------------------------

bool same_dataset(const nn::Dataset& a, const nn::Dataset& b) {
  return a.x.rows() == b.x.rows() && a.x.cols() == b.x.cols() &&
         a.y == b.y &&
         std::memcmp(a.x.data(), b.x.data(),
                     a.x.size() * sizeof(float)) == 0;
}

TEST(CollectEngine, BitwiseIdenticalAcrossThreadCounts) {
  const core::GimliHashTarget target(2);
  const core::CipherOracle oracle(target);
  // 130 base inputs with chunk 16: 8 full chunks plus a ragged tail.
  core::CollectOptions opt;
  opt.seed = 0xfeedULL;
  opt.chunk_base_inputs = 16;

  opt.threads = 1;
  const nn::Dataset serial = core::collect_dataset(oracle, 130, opt);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    opt.threads = threads;
    const nn::Dataset ds = core::collect_dataset(oracle, 130, opt);
    EXPECT_TRUE(same_dataset(serial, ds)) << "threads=" << threads;
  }
}

TEST(CollectEngine, SeedAndChunkSizeDefineTheBytes) {
  const core::ToyGiftTarget target;
  const core::CipherOracle oracle(target);
  core::CollectOptions opt;
  opt.seed = 5;
  opt.threads = 1;
  opt.chunk_base_inputs = 8;
  const nn::Dataset a = core::collect_dataset(oracle, 64, opt);
  const nn::Dataset b = core::collect_dataset(oracle, 64, opt);
  EXPECT_TRUE(same_dataset(a, b));

  opt.seed = 6;
  const nn::Dataset other_seed = core::collect_dataset(oracle, 64, opt);
  EXPECT_FALSE(same_dataset(a, other_seed));

  // The chunk grid is part of the contract: a different chunk size maps
  // streams to different spans, so the bytes legitimately change.
  opt.seed = 5;
  opt.chunk_base_inputs = 16;
  const nn::Dataset other_chunk = core::collect_dataset(oracle, 64, opt);
  EXPECT_FALSE(same_dataset(a, other_chunk));
}

TEST(CollectEngine, TelemetryCountsQueriesAndRows) {
  const core::GimliHashTarget target(2);
  const core::CipherOracle oracle(target);
  core::CollectOptions opt;
  opt.threads = 2;
  core::PhaseTelemetry tel;
  const nn::Dataset ds = core::collect_dataset(oracle, 50, opt, &tel);
  const std::size_t t = oracle.num_differences();
  EXPECT_EQ(ds.size(), 50 * t);
  EXPECT_EQ(tel.rows, 50 * t);
  EXPECT_EQ(tel.queries, 50 * (t + 1));
  EXPECT_GE(tel.threads, 1u);
  EXPECT_GE(tel.seconds, 0.0);
}

// ---------------------------------------------------------------------------
// evaluate / predict across worker caps
// ---------------------------------------------------------------------------

TEST(ParallelEval, EvaluateAndPredictStableAcrossPoolSizes) {
  const core::GimliHashTarget target(2);
  const core::CipherOracle oracle(target);
  core::CollectOptions copt;
  copt.seed = 11;
  copt.threads = 1;
  const nn::Dataset data = core::collect_dataset(oracle, 200, copt);

  core::ExperimentConfig config;
  config.seed = 3;
  auto model = config.make_model(target);

  // Small batches force many parallel slices over the 400-row set.
  const nn::EvalResult ref = model->evaluate(data, 32, 1);
  const std::vector<int> ref_pred = model->predict(data.x, 32, 1);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const nn::EvalResult got = model->evaluate(data, 32, threads);
    EXPECT_EQ(got.loss, ref.loss) << "threads=" << threads;
    EXPECT_EQ(got.accuracy, ref.accuracy) << "threads=" << threads;
    EXPECT_EQ(model->predict(data.x, 32, threads), ref_pred)
        << "threads=" << threads;
  }
  // The whole pool (whatever its size) must agree too.
  const nn::EvalResult global = model->evaluate(data, 32);
  EXPECT_EQ(global.loss, ref.loss);
  EXPECT_EQ(global.accuracy, ref.accuracy);
}

// A predict of one batch obeys `threads` too: at 1 every Dense layer is one
// unsplit GEMM, where the whole pool would split the wide ones by rows.
TEST(ParallelEval, SingleBatchPredictObeysThreadCap) {
  const core::GimliHashTarget target(2);
  const core::CipherOracle oracle(target);
  core::CollectOptions copt;
  copt.seed = 12;
  copt.threads = 1;
  const nn::Dataset data = core::collect_dataset(oracle, 200, copt);
  ASSERT_EQ(data.size(), 400u);

  core::ExperimentConfig config;
  config.seed = 4;
  auto model = config.make_model(target);
  ASSERT_EQ(model->summary().find("dense"), 0u) << model->summary();
  const auto gemm_calls = [] {
    std::uint64_t total = 0;
    for (const auto& [name, value] :
         obs::MetricsRegistry::global().snapshot().counters) {
      if (name.rfind("kernels.gemm.calls.", 0) == 0) total += value;
    }
    return total;
  };
  const std::vector<int> whole_pool = model->predict(data.x, 512, 0);
  const std::uint64_t before = gemm_calls();
  const std::vector<int> capped = model->predict(data.x, 512, 1);
  EXPECT_EQ(gemm_calls() - before, 3u) << "one GEMM per Dense layer";
  EXPECT_EQ(capped, whole_pool);
}

// An evaluate of one batch (fit's validation pass, say) runs it the way
// predict does, outside any pool region: at threads 0 its Dense layers
// split their rows over the whole pool, as predict's do, and at 1 each is
// one unsplit GEMM.  Loss and accuracy are the same bits either way.
TEST(ParallelEval, SingleBatchEvaluateUsesThePool) {
  const core::GimliHashTarget target(2);
  const core::CipherOracle oracle(target);
  core::CollectOptions copt;
  copt.seed = 12;
  copt.threads = 1;
  const nn::Dataset data = core::collect_dataset(oracle, 200, copt);
  ASSERT_EQ(data.size(), 400u);

  core::ExperimentConfig config;
  config.seed = 4;
  auto model = config.make_model(target);
  const auto gemm_calls = [] {
    std::uint64_t total = 0;
    for (const auto& [name, value] :
         obs::MetricsRegistry::global().snapshot().counters) {
      if (name.rfind("kernels.gemm.calls.", 0) == 0) total += value;
    }
    return total;
  };
  std::uint64_t before = gemm_calls();
  (void)model->predict(data.x, 512, 0);
  const std::uint64_t predict_calls = gemm_calls() - before;
  before = gemm_calls();
  const nn::EvalResult whole_pool = model->evaluate(data, 512, 0);
  EXPECT_EQ(gemm_calls() - before, predict_calls);
  if (util::ThreadPool::global().thread_count() > 1) {
    EXPECT_GT(predict_calls, 3u) << "the wide layers split their rows";
  }
  before = gemm_calls();
  const nn::EvalResult capped = model->evaluate(data, 512, 1);
  EXPECT_EQ(gemm_calls() - before, 3u) << "one GEMM per Dense layer";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(capped.loss),
            std::bit_cast<std::uint64_t>(whole_pool.loss));
  EXPECT_EQ(capped.accuracy, whole_pool.accuracy);
}

// ---------------------------------------------------------------------------
// nested parallel regions
// ---------------------------------------------------------------------------

TEST(NestedParallel, InnerParallelForRunsInlineWithoutDeadlock) {
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  const auto outer_body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      ++outer;
      EXPECT_TRUE(util::ThreadPool::in_parallel_region());
      // Would deadlock (or mis-schedule) if it re-entered the same pool.
      util::ThreadPool::global().parallel_for(
          4, [&](std::size_t b, std::size_t e) {
            inner += static_cast<int>(e - b);
          });
    }
  };
  util::ThreadPool::global().parallel_for(8, outer_body, 4);
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8 * 4);
  EXPECT_FALSE(util::ThreadPool::in_parallel_region());
}

// ---------------------------------------------------------------------------
// concurrent GEMMs on per-thread pack panels
// ---------------------------------------------------------------------------

// Each thread alternates a product crossing every cache block with a small
// edge-tile product (m % 6 != 0, n % 16 != 0) on the same per-thread pack
// panels.  Every result must equal the reference kernel bit for bit, so a
// panel shared between threads or a stale lane surviving from the larger
// shape would show up here (and as a race under TSAN).
TEST(ParallelGemm, PerThreadPanelsStayBitwiseEqualToReference) {
  struct Product {
    std::size_t m, k, n;
    std::vector<float> a, b, want;
  };
  util::Xoshiro256 rng(0x9e33);
  std::vector<Product> products;
  for (const auto [m, k, n] : {std::array<std::size_t, 3>{131, 260, 521},
                               std::array<std::size_t, 3>{7, 33, 17}}) {
    Product p{m, k, n, std::vector<float>(m * k), std::vector<float>(k * n),
              std::vector<float>(m * n)};
    for (float& v : p.a) v = static_cast<float>(rng.next_gaussian());
    for (float& v : p.b) v = static_cast<float>(rng.next_gaussian());
    kernels::gemm_impl(kernels::Impl::kReference, p.a.data(),
                       static_cast<std::ptrdiff_t>(k), 1, p.b.data(),
                       static_cast<std::ptrdiff_t>(n), 1, p.want.data(), m, k,
                       n);
    products.push_back(std::move(p));
  }
  const std::vector<kernels::Impl> impls = kernels::available_impls();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < products.size(); ++i) {
          // Threads start on different shapes so large and small products
          // overlap in time.
          const Product& p =
              products[(i + static_cast<std::size_t>(t)) % products.size()];
          for (kernels::Impl impl : impls) {
            if (impl == kernels::Impl::kReference) continue;
            std::vector<float> got(p.m * p.n, -1.0f);
            kernels::gemm_impl(impl, p.a.data(),
                               static_cast<std::ptrdiff_t>(p.k), 1,
                               p.b.data(), static_cast<std::ptrdiff_t>(p.n), 1,
                               got.data(), p.m, p.k, p.n);
            for (std::size_t e = 0; e < got.size(); ++e) {
              if (std::bit_cast<std::uint32_t>(got[e]) !=
                  std::bit_cast<std::uint32_t>(p.want[e])) {
                mismatches.fetch_add(1, std::memory_order_relaxed);
                break;
              }
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// end-to-end train reproducibility
// ---------------------------------------------------------------------------

TEST(ParallelTrain, TrainReportIdenticalAcrossThreadSettings) {
  const auto run = [](std::size_t threads) {
    core::ExperimentConfig config;
    config.target = "gimli-hash";
    config.rounds = 2;
    config.epochs = 1;
    config.seed = 77;
    config.threads = threads;
    const auto target = config.make_target();
    core::MLDistinguisher dist(*target, config);
    return dist.train(*target, 300);
  };
  const core::TrainReport a = run(1);
  const core::TrainReport b = run(2);
  EXPECT_EQ(a.train_accuracy, b.train_accuracy);
  EXPECT_EQ(a.val_accuracy, b.val_accuracy);
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(ParallelTrain, FitCappedAtOneThreadMatchesTheWholePool) {
  // default-mlp's 128x1024 layer at batch 128 is above the GEMM split
  // threshold, so an uncapped fit splits rows over the pool and a
  // threads=1 fit runs every product inline.
  struct Run {
    core::TrainReport report;
    std::vector<float> weights;
  };
  const auto run = [](std::size_t threads) {
    core::ExperimentConfig config;
    config.target = "gimli-hash";
    config.rounds = 2;
    config.epochs = 2;
    config.seed = 78;
    config.threads = threads;
    const auto target = config.make_target();
    core::MLDistinguisher dist(*target, config);
    Run r;
    r.report = dist.train(*target, 600);
    for (const auto& p : dist.model().params()) {
      r.weights.insert(r.weights.end(), p.value, p.value + p.size);
    }
    return r;
  };
  const Run capped = run(1);
  const Run whole = run(0);
  ASSERT_EQ(capped.weights.size(), whole.weights.size());
  EXPECT_EQ(std::memcmp(capped.weights.data(), whole.weights.data(),
                        capped.weights.size() * sizeof(float)),
            0);
  EXPECT_EQ(campaign::train_json(capped.report),
            campaign::train_json(whole.report));
  EXPECT_EQ(capped.report.fit.rows, whole.report.fit.rows);
  EXPECT_EQ(capped.report.fit.threads, 1u);
  EXPECT_EQ(whole.report.fit.threads,
            util::ThreadPool::global().thread_count());
}

}  // namespace
