// Executes an optimised inference graph with a reusable scratch arena.
//
// An Executor owns one arena of output-buffer slots (assigned by the
// plan-exec pass; a trivial one-slot-per-node fallback covers unplanned
// graphs).  Buffers only ever grow, so after the first run at a given
// batch size the hot path performs no allocations.  The executor forks no
// threads and owns no thread-local state: large dense and conv nodes fan
// out inside kernels::gemm and kernels::conv1d_forward, which also keep
// the conv patch scratch.
//
// Executors are NOT thread-safe (the arena is reused across nodes); for
// concurrent forwards, Sequential keeps a pool of executors and hands one
// per call.  The graph itself is shared read-only.
//
// BatchNorm's per-feature sqrt(running_var + eps) is recomputed into the
// arena at the start of every run — running stats then flow into the
// compiled graph with no cache invalidation, and hoisting the sqrt out of
// the per-element loop is bitwise identical (sqrt and the division are
// exactly rounded) while removing batch*features sqrt calls per layer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/ir/graph.hpp"
#include "nn/mat.hpp"

namespace mldist::nn::ir {

class Executor {
 public:
  explicit Executor(std::shared_ptr<const Graph> graph);

  const Graph& graph() const { return *graph_; }

  /// Inference forward for one batch; bitwise equal to the legacy
  /// layer-by-layer Sequential forward under every dispatch backend.
  Mat run(const Mat& x);

 private:
  const float* buffer_of(int id, const Mat& x) const;
  std::size_t width_of(const Node& n, const Mat& x) const;

  std::shared_ptr<const Graph> graph_;
  std::vector<int> slot_of_;                 ///< node id -> slot (-1 = input)
  std::vector<std::vector<float>> slots_;    ///< grow-only output buffers
  std::vector<std::vector<float>> norm_std_; ///< per node; see file comment
  /// Per-node observability, resolved once: counter id for
  /// nn.ir.node.<i>.<kind>.forward_ns plus the span name.
  struct NodeObs {
    std::size_t ns = 0;
    std::string span_name;
  };
  std::vector<NodeObs> node_obs_;
};

}  // namespace mldist::nn::ir
