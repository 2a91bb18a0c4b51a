// Graph-IR suite (ctest label "ir"): lowering, optimisation passes, the
// executor's bitwise equivalence to the layer-by-layer reference forward,
// the golden --dump-ir text format, and the topology-hash serialization
// guard.  Runs under the sanitizer presets like every other test
// (-DMLDIST_UBSAN=ON; see the top-level CMakeLists comment).
//
// Tolerance documentation: all output comparisons are EXACT, bit for bit
// (std::bit_cast), because every IR pass only rewrites computation into
// sequences that are bitwise identical per element (see DESIGN.md §12).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/arch_zoo.hpp"
#include "kernels/conv1d.hpp"
#include "kernels/dispatch.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/ir/executor.hpp"
#include "nn/ir/graph.hpp"
#include "nn/ir/pass.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/residual.hpp"
#include "nn/serialize.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mldist;
using kernels::Impl;
using mldist::util::Xoshiro256;

const Impl kStartupImpl = kernels::dispatch();

std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }

void expect_mat_bitwise_equal(const nn::Mat& got, const nn::Mat& want,
                              const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(bits_of(got.data()[i]), bits_of(want.data()[i]))
        << what << ": element " << i << " got " << got.data()[i] << " want "
        << want.data()[i];
  }
}

nn::Mat random_input(std::size_t rows, std::size_t cols, Xoshiro256& rng) {
  nn::Mat x(rows, cols);
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Exact zeros exercise padded-lane and ReLU-boundary logic.
    x.data()[i] = (rng.next_below(4) == 0)
                      ? 0.0f
                      : static_cast<float>(rng.next_gaussian());
  }
  return x;
}

/// A model touching every op the lowering knows: dense (plain, act-fused,
/// bn+act-fused), opaque (tanh), conv (bn and bn+act fused), residual add
/// with a fused activation, dropout (identity), pool, dense head.
std::unique_ptr<nn::Sequential> build_zoo_model(Xoshiro256& rng) {
  auto model = std::make_unique<nn::Sequential>();
  model->add(std::make_unique<nn::Dense>(12, 18, rng));
  model->add(std::make_unique<nn::Tanh>());
  model->add(std::make_unique<nn::Dense>(18, 18, rng));
  model->add(std::make_unique<nn::LeakyReLU>(0.3f));
  model->add(std::make_unique<nn::Dense>(18, 18, rng));
  model->add(std::make_unique<nn::BatchNorm>(18));
  model->add(std::make_unique<nn::ReLU>());
  model->add(std::make_unique<nn::Conv1D>(6, 3, 4, 3, rng));
  model->add(std::make_unique<nn::BatchNorm>(24));
  model->add(std::make_unique<nn::ReLU>());
  auto block = std::make_unique<nn::Residual>();
  block->add(std::make_unique<nn::Conv1D>(6, 4, 4, 3, rng));
  block->add(std::make_unique<nn::BatchNorm>(24));
  model->add(std::move(block));
  model->add(std::make_unique<nn::ReLU>());
  model->add(std::make_unique<nn::Dropout>(0.25f));
  model->add(std::make_unique<nn::GlobalMaxPool1D>(6, 4));
  model->add(std::make_unique<nn::Dense>(4, 3, rng));
  return model;
}

/// Make the BatchNorm running statistics non-trivial (fresh models have
/// mean 0 / var 1, which would mask mean/var indexing bugs).
void warm_running_stats(nn::Sequential& model, Xoshiro256& rng) {
  const nn::Mat x = random_input(16, 12, rng);
  for (int i = 0; i < 3; ++i) (void)model.forward(x, /*training=*/true);
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

TEST(IrLowering, StructureAndWidths) {
  Xoshiro256 rng(1);
  auto model = build_zoo_model(rng);
  const nn::ir::Graph g = nn::ir::Graph::lower(*model);
  const auto& nodes = g.nodes();
  ASSERT_GE(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].kind, nn::ir::OpKind::kInput);
  EXPECT_EQ(nodes[0].out_width, 12u);
  // The Residual lowered to an explicit two-input add whose skip edge
  // reaches back past the inner chain.
  bool saw_add = false;
  for (const auto& n : nodes) {
    if (n.kind == nn::ir::OpKind::kAdd) {
      saw_add = true;
      ASSERT_EQ(n.inputs.size(), 2u);
      EXPECT_GT(n.inputs[0], n.inputs[1]);  // F(x) comes after the skip
    } else if (!n.inputs.empty()) {
      ASSERT_EQ(n.inputs.size(), 1u);
    }
  }
  EXPECT_TRUE(saw_add);
  // Output is the final dense head.
  EXPECT_EQ(nodes[static_cast<std::size_t>(g.output())].kind,
            nn::ir::OpKind::kDense);
  EXPECT_EQ(nodes[static_cast<std::size_t>(g.output())].out_width, 3u);
}

TEST(IrLowering, TopologyHashStableAcrossPipelinesAndWeights) {
  Xoshiro256 rng1(2), rng2(99);
  auto a = build_zoo_model(rng1);
  auto b = build_zoo_model(rng2);  // same structure, different weights
  EXPECT_EQ(a->topology_hash(), b->topology_hash());

  // The hash pins structure, not optimisation level.
  const std::uint32_t before = a->topology_hash();
  a->set_pipeline(nn::ir::PassManager::default_pipeline());
  (void)a->forward(random_input(2, 12, rng1), false);
  EXPECT_EQ(a->topology_hash(), before);

  nn::Sequential other;
  Xoshiro256 rng3(3);
  other.add(std::make_unique<nn::Dense>(12, 18, rng3));
  other.add(std::make_unique<nn::Dense>(18, 3, rng3));
  EXPECT_NE(other.topology_hash(), before);
}

// ---------------------------------------------------------------------------
// Pass manager
// ---------------------------------------------------------------------------

TEST(IrPasses, ParsePipeline) {
  using nn::ir::PassManager;
  EXPECT_TRUE(PassManager::parse_pipeline("").empty());
  EXPECT_TRUE(PassManager::parse_pipeline("none").empty());
  EXPECT_EQ(PassManager::parse_pipeline("default"),
            PassManager::default_pipeline());
  const auto two = PassManager::parse_pipeline("fuse-batchnorm,plan-exec");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], "fuse-batchnorm");
  EXPECT_EQ(two[1], "plan-exec");
  EXPECT_THROW(PassManager::parse_pipeline("fuse-batchnorm,bogus"),
               std::invalid_argument);
  EXPECT_THROW(nn::Sequential().set_pipeline({"bogus"}),
               std::invalid_argument);
}

TEST(IrPasses, FusionAnnotationsAndElision) {
  Xoshiro256 rng(4);
  auto model = build_zoo_model(rng);
  nn::ir::Graph g = nn::ir::Graph::lower(*model);
  const std::size_t lowered = g.nodes().size();
  nn::ir::PassManager().run(g);
  EXPECT_LT(g.nodes().size(), lowered);  // BN/act/dropout nodes folded away
  for (const auto& n : g.nodes()) {
    // After the default pipeline no standalone BatchNorm, Activation, or
    // Identity survives in this model: every one has a fusable producer.
    EXPECT_NE(n.kind, nn::ir::OpKind::kBatchNorm);
    EXPECT_NE(n.kind, nn::ir::OpKind::kActivation);
    EXPECT_NE(n.kind, nn::ir::OpKind::kIdentity);
  }
  // plan-exec assigned a small arena: a chain re-uses freed slots instead
  // of one buffer per node.
  EXPECT_GT(g.slot_count(), 0u);
  EXPECT_LE(g.slot_count(), 3u);
}

TEST(IrPasses, ActivationAfterBatchNormDoesNotFuseIntoProducer) {
  // Dense -> ReLU -> BN must keep the BN standalone (epilogue order is
  // bias, bn, act; fusing here would compute act before bn).
  Xoshiro256 rng(5);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(8, 8, rng));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::BatchNorm>(8));
  nn::ir::Graph g = nn::ir::Graph::lower(model);
  nn::ir::PassManager().run(g);
  bool saw_standalone_bn = false;
  for (const auto& n : g.nodes()) {
    if (n.kind == nn::ir::OpKind::kBatchNorm) saw_standalone_bn = true;
    EXPECT_FALSE(n.fused_bn);
  }
  EXPECT_TRUE(saw_standalone_bn);
}

// ---------------------------------------------------------------------------
// Executor equivalence (the determinism contract, per backend)
// ---------------------------------------------------------------------------

TEST(IrExecutor, MatchesReferenceForwardAllBackends) {
  for (Impl impl : kernels::available_impls()) {
    kernels::set_dispatch(impl);
    Xoshiro256 rng(6);
    auto model = build_zoo_model(rng);
    warm_running_stats(*model, rng);
    const nn::Mat x = random_input(9, 12, rng);
    const nn::Mat want = model->forward_reference(x);
    const nn::Mat got = model->forward(x, /*training=*/false);
    expect_mat_bitwise_equal(
        got, want, std::string("impl=") + kernels::impl_name(impl));
    // Second run re-uses the pooled executor and its warm arena.
    expect_mat_bitwise_equal(
        model->forward(x, /*training=*/false), want,
        std::string("warm-arena impl=") + kernels::impl_name(impl));

    // The executor refreshes sqrt(running_var + eps) as a vector loop and
    // the fused epilogues run as vector rows; running variances of 0,
    // subnormals and 1e30 must still give BatchNorm's scalar forward.
    // BatchNorm's state is (running mean, running variance) per layer.
    const float kVars[] = {0.0f,  1e-40f, 3e-39f, 1e30f, 0.25f,
                           std::numeric_limits<float>::denorm_min()};
    const std::vector<std::span<float>> state = model->state();
    ASSERT_EQ(state.size(), 6u);
    for (std::size_t t = 1; t < state.size(); t += 2) {
      for (std::size_t j = 0; j < state[t].size(); ++j) {
        state[t][j] = kVars[j % std::size(kVars)];
      }
    }
    expect_mat_bitwise_equal(
        model->forward(x, /*training=*/false), model->forward_reference(x),
        std::string("extreme variances impl=") + kernels::impl_name(impl));
  }
  kernels::set_dispatch(kStartupImpl);
}

TEST(IrExecutor, LstmOpaqueDelegationMatchesReference) {
  Xoshiro256 rng(7);
  nn::Sequential model;
  model.add(std::make_unique<nn::LSTM>(4, 3, 5, rng));
  model.add(std::make_unique<nn::Dense>(5, 2, rng));
  const nn::Mat x = random_input(3, 12, rng);
  expect_mat_bitwise_equal(model.forward(x, false), model.forward_reference(x),
                           "lstm-opaque");
}

TEST(IrExecutor, RecompilesAfterAddAndAcrossBackends) {
  Xoshiro256 rng(8);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(6, 5, rng));
  const nn::Mat x = random_input(4, 6, rng);
  (void)model.forward(x, false);  // compile for the current backend
  model.add(std::make_unique<nn::ReLU>());
  expect_mat_bitwise_equal(model.forward(x, false),
                           model.forward_reference(x), "after-add");
  for (Impl impl : kernels::available_impls()) {
    kernels::set_dispatch(impl);  // backend switch must trigger a recompile
    expect_mat_bitwise_equal(model.forward(x, false),
                             model.forward_reference(x),
                             std::string("impl=") + kernels::impl_name(impl));
  }
  kernels::set_dispatch(kStartupImpl);
}

// ---------------------------------------------------------------------------
// Conv1D kernel: direct vs im2col
// ---------------------------------------------------------------------------

TEST(IrConv1D, DirectMatchesIm2colBitwise) {
  Xoshiro256 rng(9);
  for (const auto& s : std::vector<kernels::Conv1DShape>{
           {3, 8, 2, 3, 3},   // borders + interior
           {2, 5, 1, 4, 5},   // wide kernel, half=2
           {4, 7, 3, 2, 1},   // kernel 1: whole-batch GEMM degenerate case
           {1, 2, 2, 2, 3},   // length < kernel: direct falls back to im2col
           {8, 64, 32, 32, 3},  // above kParallelThreshold: batch split
       }) {
    std::vector<float> x(s.batch * s.length * s.cin);
    std::vector<float> w(s.kernel * s.cin * s.cout);
    std::vector<float> bias(s.cout);
    for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
    for (auto& v : w) v = static_cast<float>(rng.next_gaussian());
    for (auto& v : bias) v = static_cast<float>(rng.next_gaussian());
    kernels::GemmEpilogue ep;
    ep.bias = bias.data();
    ep.act = kernels::Activation::kRelu;
    const std::string tag = "batch=" + std::to_string(s.batch) +
                            " length=" + std::to_string(s.length) +
                            " kernel=" + std::to_string(s.kernel);
    std::vector<float> want(s.batch * s.length * s.cout);
    std::vector<float> got(want.size());
    // Inside a (one-chunk) parallel region the conv runs unsplit: the
    // specification the batch split must match.
    const auto conv = [&](kernels::Conv1DAlgo algo, bool split,
                          std::vector<float>& y) {
      std::fill(y.begin(), y.end(), -1.0f);
      const auto run = [&](std::size_t, std::size_t) {
        kernels::conv1d_forward(x.data(), y.data(), s, w.data(), ep, algo);
      };
      if (split) {
        run(0, 1);
      } else {
        util::ThreadPool::global().parallel_for(1, run);
      }
    };
    for (Impl impl : kernels::available_impls()) {
      kernels::set_dispatch(impl);
      conv(kernels::Conv1DAlgo::kIm2col, /*split=*/false, want);
      for (const auto algo :
           {kernels::Conv1DAlgo::kIm2col, kernels::Conv1DAlgo::kDirect}) {
        for (const bool split : {true, false}) {
          conv(algo, split, got);
          for (std::size_t i = 0; i < want.size(); ++i) {
            ASSERT_EQ(bits_of(got[i]), bits_of(want[i]))
                << tag << " impl=" << kernels::impl_name(impl)
                << " algo=" << kernels::conv1d_algo_name(algo)
                << (split ? " split" : " unsplit") << " i=" << i;
          }
        }
      }
    }
  }
  kernels::set_dispatch(kStartupImpl);
}

// ---------------------------------------------------------------------------
// Golden --dump-ir text
// ---------------------------------------------------------------------------

TEST(IrDump, GoldenMlp) {
  Xoshiro256 rng(10);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(8, 16, rng));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::Dense>(16, 2, rng));
  EXPECT_EQ(model.dump_ir(),
            "ir {\n"
            "  %0 = input out=8\n"
            "  %1 = dense(8->16) (%0) out=16 fused=[relu]\n"
            "  %2 = dense(16->2) (%1) out=2\n"
            "  output %2\n"
            "}\n");
}

TEST(IrDump, GoldenConvPerBackendPlan) {
  Xoshiro256 rng(11);
  nn::Sequential model;
  model.add(std::make_unique<nn::Conv1D>(4, 1, 2, 3, rng));
  model.add(std::make_unique<nn::BatchNorm>(8));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::GlobalMaxPool1D>(4, 2));
  model.add(std::make_unique<nn::Dense>(2, 2, rng));
  const auto golden = [](const char* algo) {
    return std::string("ir {\n"
                       "  %0 = input out=4\n"
                       "  %1 = conv1d(1->2,k=3) (%0) out=8 algo=") +
           algo +
           " fused=[bn relu]\n"
           "  %2 = global_max_pool1d (%1) out=2\n"
           "  %3 = dense(2->2) (%2) out=2\n"
           "  output %3\n"
           "}\n";
  };
  // The lower-conv pass bakes a per-backend plan: reference keeps the one
  // whole-batch im2col GEMM, the packing backends go im2col-free.
  kernels::set_dispatch(Impl::kReference);
  EXPECT_EQ(model.dump_ir(), golden("im2col"));
  kernels::set_dispatch(Impl::kBlocked);
  EXPECT_EQ(model.dump_ir(), golden("direct"));
  kernels::set_dispatch(kStartupImpl);
}

// ---------------------------------------------------------------------------
// Topology-hash serialization guard
// ---------------------------------------------------------------------------

TEST(IrSerialize, TopologyHashRoundTripAndMismatch) {
  Xoshiro256 rng(12);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(6, 4, rng));
  model.add(std::make_unique<nn::ReLU>());
  model.add(std::make_unique<nn::Dense>(4, 2, rng));
  std::stringstream buf;
  nn::save_params(model, buf);

  nn::Sequential same;
  Xoshiro256 rng2(77);
  same.add(std::make_unique<nn::Dense>(6, 4, rng2));
  same.add(std::make_unique<nn::ReLU>());
  same.add(std::make_unique<nn::Dense>(4, 2, rng2));
  nn::load_params(same, buf);
  const nn::Mat x = random_input(3, 6, rng);
  expect_mat_bitwise_equal(same.forward(x, false), model.forward(x, false),
                           "round-trip");

  // Identical parameter shapes, different structure (no ReLU): the tensor
  // checks alone cannot tell the files apart — the topology hash can.
  nn::Sequential other;
  Xoshiro256 rng3(78);
  other.add(std::make_unique<nn::Dense>(6, 4, rng3));
  other.add(std::make_unique<nn::Dense>(4, 2, rng3));
  std::stringstream buf2;
  nn::save_params(model, buf2);
  try {
    nn::load_params(other, buf2);
    FAIL() << "topology mismatch loaded silently";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("topology mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(IrSerialize, Nnb1AndNnb2MagicsAreRejected) {
  Xoshiro256 rng(13);
  nn::Sequential model;
  model.add(std::make_unique<nn::Dense>(5, 3, rng));
  std::stringstream buf;
  nn::save_params(model, buf);
  const std::string current = buf.str();
  // Rebuild the payload in the two retired layouts, each with a fresh CRC
  // footer over the rewritten payload: NNB1 had no topology word, and NNB2
  // had no state section, which for this stateless model is the u32 count
  // 0 before the footer.  Only NNB3 loads now.
  ASSERT_GE(current.size(), 20u);
  const std::string body = current.substr(0, current.size() - 8);
  for (std::string payload : {"NNB1" + body.substr(8),
                              "NNB2" + body.substr(4, body.size() - 8)}) {
    const std::uint32_t crc = util::crc32(payload.data(), payload.size());
    payload += "CRC1";
    payload.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
    std::stringstream legacy(payload);
    nn::Sequential same;
    Xoshiro256 rng2(14);
    same.add(std::make_unique<nn::Dense>(5, 3, rng2));
    try {
      nn::load_params(same, legacy);
      FAIL() << payload.substr(0, 4) << " model file loaded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
          << e.what();
    }
  }
}

// A model file keeps BatchNorm's running statistics: a trained gohr-net
// reloaded into a freshly built one predicts exactly as it did.
TEST(IrSerialize, TrainedBatchNormModelReloadsBitwise) {
  Xoshiro256 rng(16);
  auto model = core::build_gohr_net(16, 2, 1, rng);
  nn::Dataset data;
  data.x = nn::Mat(96, 16);
  for (std::size_t i = 0; i < data.x.size(); ++i) {
    data.x.data()[i] = static_cast<float>(rng.next_u64() & 1);
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.y.push_back(static_cast<int>(data.x.data()[i * 16] != 0.0f));
  }
  nn::Adam opt(0.01f);
  nn::FitOptions fit;
  fit.epochs = 2;
  fit.batch_size = 32;
  model->fit(data, opt, fit);

  std::stringstream buf;
  nn::save_params(*model, buf);
  Xoshiro256 other(17);
  auto reloaded = core::build_gohr_net(16, 2, 1, other);
  nn::load_params(*reloaded, buf);
  const nn::Mat x = random_input(40, 16, rng);
  expect_mat_bitwise_equal(reloaded->predict_proba(x), model->predict_proba(x),
                           "reloaded gohr-net/1");
}

}  // namespace
