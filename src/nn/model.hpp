// Sequential model container with a Keras-like fit/evaluate interface.
//
// Inference (forward with training=false, predict, evaluate) executes
// through the graph IR (nn/ir/): the layer stack is lowered once into an
// ir::Graph, the configured pass pipeline optimises it, and an
// ir::Executor with a reusable buffer arena runs it.  The compiled graph
// is cached per (dispatch backend, pipeline) and rebuilt lazily; training
// keeps the layer-by-layer path because backward needs per-layer caches.
// Both paths are bitwise identical (tests/kernel_equiv_test.cpp and
// tests/ir_test.cpp, label "ir").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/health.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"

namespace mldist::nn {

/// A labelled classification data set: one sample per row of X, integer
/// class per entry of y.
struct Dataset {
  Mat x;
  std::vector<int> y;

  std::size_t size() const { return x.rows(); }
};

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  std::optional<double> val_loss;      ///< empty when no validation set
  std::optional<double> val_accuracy;  ///< empty when no validation set
  /// Largest mini-batch gradient L2 norm of the epoch; only measured when a
  /// HealthMonitor is attached (0 otherwise).
  double grad_norm = 0.0;
  double seconds = 0.0;        ///< wall time of this epoch (incl. validation)
};

struct FitOptions {
  int epochs = 5;
  std::size_t batch_size = 128;
  bool shuffle = true;
  std::uint64_t shuffle_seed = 0x5eedULL;
  const Dataset* validation = nullptr;  ///< optional held-out set
  /// Pool fan-out cap for the whole fit, validation passes and the kernels'
  /// row splits included (util::ThreadPool::ScopedCap: 0 = the whole pool,
  /// 1 = inline).  The result does not depend on it.
  std::size_t threads = 0;
  /// Numeric-health guard (see nn/health.hpp): when set, fit checks every
  /// mini-batch loss / gradient norm and every epoch's loss and weights,
  /// throwing TrainingDiverged on the first failure.  Non-owning; the
  /// monitor keeps its rolling baseline across the whole fit call.
  HealthMonitor* health = nullptr;
  /// Called after every epoch (e.g. to print progress); may be empty.
  std::function<void(const EpochStats&)> on_epoch;
};

struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;
};

class Sequential {
 public:
  Sequential();
  ~Sequential();
  Sequential(Sequential&&) noexcept;
  Sequential& operator=(Sequential&&) noexcept;

  /// Append a layer; returns *this for chaining.  Invalidates any compiled
  /// inference graph.
  Sequential& add(std::unique_ptr<Layer> layer);

  /// Forward pass through all layers, producing logits.  Inference runs the
  /// compiled IR graph; training runs the layer stack (backward needs the
  /// per-layer caches).  The two are bitwise identical.
  Mat forward(const Mat& x, bool training = false);

  /// Layer-by-layer inference forward, bypassing the IR entirely.  This is
  /// the specification path the IR executor is equivalence-tested against;
  /// it applies no fusion of any kind.
  Mat forward_reference(const Mat& x);

  /// Softmax probabilities for a batch.
  Mat predict_proba(const Mat& x);

  /// Argmax class predictions.  Rows are scored in fixed `batch_size`
  /// slices fanned out over the process pool, at most `threads` at a time
  /// (0 = the whole pool, 1 = inline); each row's logits are independent
  /// of its batch, so the predictions are bitwise identical for any worker
  /// count.
  std::vector<int> predict(const Mat& x, std::size_t batch_size = 512,
                           std::size_t threads = 0);

  /// Mini-batch training with softmax cross-entropy.  Returns the stats of
  /// the final epoch.  With options.health set, throws nn::TrainingDiverged
  /// as soon as a numeric-health check fails (gradients may be left
  /// half-accumulated; call zero_grad() before reusing the model).
  EpochStats fit(const Dataset& train, Optimizer& opt, const FitOptions& options);

  /// Clear all accumulated parameter gradients (e.g. after an aborted fit).
  void zero_grad();

  /// Loss and accuracy over a data set.  Independent batches are scored
  /// concurrently on the process pool, at most `threads` at a time (0 = the
  /// whole pool, 1 = inline), and reduced in batch order, so the result
  /// does not depend on the worker count.
  EvalResult evaluate(const Dataset& data, std::size_t batch_size = 512,
                      std::size_t threads = 0);

  /// All trainable parameters, in layer order.
  std::vector<ParamView> params();
  std::size_t param_count();

  /// All non-trainable state (Layer::state()), in layer order.
  std::vector<std::span<float>> state();

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_[i]; }

  /// One-line structural summary, e.g. "dense(128->1024) relu dense(...)".
  std::string summary();

  /// Replace the IR optimisation pipeline (names as understood by
  /// ir::PassManager; throws std::invalid_argument on unknown names) and
  /// drop any compiled graph.  Intended for tests, benches, and --passes.
  void set_pipeline(std::vector<std::string> passes);
  std::vector<std::string> pipeline() const;

  /// CRC-32 of the lowered (pre-optimisation) inference graph: op kinds,
  /// edges, and shapes.  Stable across pass pipelines and dispatch
  /// backends; save_params stamps it so parameters cannot load into a
  /// structurally different model.
  std::uint32_t topology_hash();

  /// Text rendering of the optimised inference graph (--dump-ir output),
  /// lowered and optimised with the current pipeline but without touching
  /// the compiled-graph cache.
  std::string dump_ir();

 private:
  /// Per-layer observability handles, filled in add() (the cold path) so
  /// the forward/backward hot paths never do a metric-name lookup.  Metric
  /// names are "nn.layer.<i>.<kind>.{forward,backward}_ns" where <kind> is
  /// the layer name truncated at '(' — shape-free so the registered set
  /// stays bounded no matter how many architectures a process builds.
  struct LayerObs {
    std::size_t forward_ns = 0;   ///< obs::MetricId of the forward counter
    std::size_t backward_ns = 0;  ///< obs::MetricId of the backward counter
    std::string span_name;        ///< precomputed trace span name
  };

  /// Compiled-inference state (mutex, cached ir::Graph, executor pool);
  /// defined in model.cpp so this header stays free of the IR headers.
  struct IrState;

  Mat forward_ir(const Mat& x);

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<LayerObs> layer_obs_;  ///< parallel to layers_
  std::unique_ptr<IrState> ir_;
};

}  // namespace mldist::nn
