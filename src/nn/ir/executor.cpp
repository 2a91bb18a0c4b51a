#include "nn/ir/executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "kernels/conv1d.hpp"
#include "kernels/gemm.hpp"
#include "kernels/norm_act.hpp"
#include "nn/layer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace mldist::nn::ir {

namespace {

/// Epilogue for the node's own kernel call.  For Conv1D + fused BN the
/// norm/act stages cannot ride the GEMM (BN's feature axis spans
/// length*cout while the conv GEMM has cout columns), so they are split
/// into a second, post-GEMM epilogue; `post` is that split.
struct EpiloguePlan {
  kernels::GemmEpilogue main;
  kernels::GemmEpilogue post;
  bool has_post = false;
};

EpiloguePlan plan_epilogue(const Node& n, const std::vector<float>& norm_std) {
  EpiloguePlan p;
  if (n.bias != nullptr) p.main.bias = n.bias->data();
  const bool conv_bn = n.kind == OpKind::kConv1D && n.fused_bn;
  kernels::GemmEpilogue& tail = conv_bn ? p.post : p.main;
  if (n.fused_bn || n.kind == OpKind::kBatchNorm) {
    tail.norm_mean = n.norm.mean->data();
    tail.norm_std = norm_std.data();
    tail.norm_gamma = n.norm.gamma->data();
    tail.norm_beta = n.norm.beta->data();
  }
  if (n.fused_act || n.kind == OpKind::kActivation) {
    tail.act = n.act;
    tail.alpha = n.alpha;
  }
  p.has_post = conv_bn;
  return p;
}

/// Bitwise-identical to GlobalMaxPool1D::forward(x, /*training=*/false).
void global_max_pool(const float* in, float* out, std::size_t rows,
                     std::size_t length, std::size_t channels) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = in + r * length * channels;
    float* yr = out + r * channels;
    for (std::size_t c = 0; c < channels; ++c) {
      float best = -std::numeric_limits<float>::infinity();
      for (std::size_t p = 0; p < length; ++p) {
        const float v = xr[p * channels + c];
        if (v > best) best = v;
      }
      yr[c] = best;
    }
  }
}

}  // namespace

Executor::Executor(std::shared_ptr<const Graph> graph)
    : graph_(std::move(graph)) {
  const auto& nodes = graph_->nodes();
  slot_of_.resize(nodes.size(), -1);
  std::size_t slot_count = graph_->slot_count();
  const bool planned = slot_count > 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].kind == OpKind::kInput) continue;
    // Unplanned graphs (pipeline without plan-exec) get the trivial
    // one-slot-per-node layout — correct, just not arena-minimal.
    slot_of_[i] = planned ? nodes[i].slot : static_cast<int>(slot_count++);
  }
  slots_.resize(slot_count);
  norm_std_.resize(nodes.size());
  node_obs_.resize(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].kind == OpKind::kInput) continue;
    const std::string base = "nn.ir.node." + std::to_string(i) + "." +
                             op_kind_name(nodes[i].kind);
    node_obs_[i].ns =
        obs::MetricsRegistry::global().counter(base + ".forward_ns");
    node_obs_[i].span_name = base;
  }
}

const float* Executor::buffer_of(int id, const Mat& x) const {
  const std::size_t i = static_cast<std::size_t>(id);
  if (graph_->nodes()[i].kind == OpKind::kInput) return x.data();
  return slots_[static_cast<std::size_t>(slot_of_[i])].data();
}

std::size_t Executor::width_of(const Node& n, const Mat& x) const {
  // Width 0 marks a width-polymorphic chain with no declaring layer; every
  // such node inherits the runtime batch width.
  return n.out_width != 0 ? n.out_width : x.cols();
}

Mat Executor::run(const Mat& x) {
  const auto& nodes = graph_->nodes();
  const std::size_t rows = x.rows();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();

  // Refresh the only derived parameters.  Everything else is referenced
  // live, so training steps / checkpoint loads need no cache invalidation.
  // The refresh is not free (a gohr-net/4 has 9 x 2048 features, a fifth
  // of a one-row forward when run as scalar sqrt calls), so this file
  // builds with -fno-math-errno and the loop runs as vector sqrt: IEEE sqrt
  // is correctly rounded in either form, so the bits do not change.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (!n.norm.valid()) continue;
    const float* var = n.norm.var->data();
    const float eps = n.norm.eps;
    const std::size_t features = n.norm.var->size();
    norm_std_[i].resize(features);
    float* sd = norm_std_[i].data();
    for (std::size_t j = 0; j < features; ++j) sd[j] = std::sqrt(var[j] + eps);
  }

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.kind == OpKind::kInput) {
      if (n.in_width != 0 && x.cols() != n.in_width) {
        throw std::invalid_argument("ir::Executor: input width mismatch");
      }
      continue;
    }
    const std::size_t out_w = width_of(n, x);
    std::vector<float>& buf = slots_[static_cast<std::size_t>(slot_of_[i])];
    if (buf.size() < rows * out_w) buf.resize(rows * out_w);
    float* out = buf.data();
    const float* in = buffer_of(n.inputs[0], x);

    obs::Span span(node_obs_[i].span_name, "nn");
    if (n.fused_bn || n.fused_act) span.arg("fused", 1);
    const util::Timer timer;

    switch (n.kind) {
      case OpKind::kDense: {
        const EpiloguePlan ep = plan_epilogue(n, norm_std_[i]);
        kernels::gemm(in, static_cast<std::ptrdiff_t>(n.in_width), 1,
                      n.weights->data(), static_cast<std::ptrdiff_t>(out_w), 1,
                      out, rows, n.in_width, out_w, ep.main);
        break;
      }
      case OpKind::kConv1D: {
        const EpiloguePlan ep = plan_epilogue(n, norm_std_[i]);
        kernels::conv1d_forward(
            in, out, {rows, n.length, n.cin, n.cout, n.kernel},
            n.weights->data(), ep.main, n.conv_algo);
        if (ep.has_post) {
          kernels::norm_act_inplace(out, rows, out_w, ep.post);
        }
        break;
      }
      case OpKind::kBatchNorm:
      case OpKind::kActivation: {
        const EpiloguePlan ep = plan_epilogue(n, norm_std_[i]);
        std::memcpy(out, in, rows * out_w * sizeof(float));
        kernels::norm_act_inplace(out, rows, out_w, ep.main);
        break;
      }
      case OpKind::kGlobalMaxPool:
        global_max_pool(in, out, rows, n.length, n.cin);
        break;
      case OpKind::kAdd: {
        // out = F(x) + x, matching Residual::forward's accumulation; float
        // addition is commutative, so the operand order cannot change bits.
        const float* skip = buffer_of(n.inputs[1], x);
        const std::size_t total = rows * out_w;
        if (n.fused_act && n.act == kernels::Activation::kRelu) {
          for (std::size_t j = 0; j < total; ++j) {
            float v = in[j] + skip[j];
            if (v < 0.0f) v = 0.0f;
            out[j] = v;
          }
        } else if (n.fused_act) {
          for (std::size_t j = 0; j < total; ++j) {
            float v = in[j] + skip[j];
            if (v < 0.0f) v *= n.alpha;
            out[j] = v;
          }
        } else {
          for (std::size_t j = 0; j < total; ++j) out[j] = in[j] + skip[j];
        }
        break;
      }
      case OpKind::kIdentity:
        std::memcpy(out, in, rows * out_w * sizeof(float));
        break;
      case OpKind::kOpaque: {
        // Delegate to the layer's own inference forward: trivially bitwise
        // equal to the legacy path, at the cost of two copies.
        const std::size_t in_w =
            n.in_width != 0 ? n.in_width : x.cols();
        Mat xin(rows, in_w);
        std::memcpy(xin.data(), in, rows * in_w * sizeof(float));
        const Mat y = n.opaque->forward(xin, /*training=*/false);
        std::memcpy(out, y.data(), rows * out_w * sizeof(float));
        break;
      }
      case OpKind::kInput:
        break;  // handled above
    }
    reg.add(node_obs_[i].ns,
            static_cast<std::uint64_t>(std::max(0.0, timer.seconds() * 1e9)));
  }

  const Node& out_node = nodes[static_cast<std::size_t>(graph_->output())];
  Mat result(rows, width_of(out_node, x));
  std::memcpy(result.data(), buffer_of(graph_->output(), x),
              result.size() * sizeof(float));
  return result;
}

}  // namespace mldist::nn::ir
