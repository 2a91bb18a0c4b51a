#include "nn/model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <utility>

#include "kernels/dispatch.hpp"
#include "nn/ir/executor.hpp"
#include "nn/ir/graph.hpp"
#include "nn/ir/pass.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mldist::nn {

/// Compiled-inference state.  The graph is cached per dispatch backend (the
/// lower-conv pass bakes a per-backend kernel plan into it) and per
/// pipeline; executors are pooled because they are single-use-at-a-time
/// (their buffer arena is stateful) while predict/evaluate fan batches out
/// across the thread pool.  The graph is held through shared_ptr so an
/// executor mid-run survives a concurrent recompile.
struct Sequential::IrState {
  std::mutex mu;
  std::vector<std::string> pipeline = ir::PassManager::default_pipeline();
  bool compiled = false;
  kernels::Impl impl = kernels::Impl::kReference;
  std::shared_ptr<const ir::Graph> graph;
  std::vector<std::unique_ptr<ir::Executor>> pool;
};

Sequential::Sequential() : ir_(std::make_unique<IrState>()) {}
Sequential::~Sequential() = default;
Sequential::Sequential(Sequential&&) noexcept = default;
Sequential& Sequential::operator=(Sequential&&) noexcept = default;

namespace {

/// Deterministic fit/eval/predict tallies (sample and batch counts are fixed
/// by the data and options, never by the worker count).
struct ModelMetrics {
  obs::MetricId fit_epochs;
  obs::MetricId fit_batches;
  obs::MetricId fit_samples;
  obs::MetricId eval_batches;
  obs::MetricId eval_rows;
  obs::MetricId predict_rows;

  ModelMetrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    fit_epochs = reg.counter("nn.fit.epochs");
    fit_batches = reg.counter("nn.fit.batches");
    fit_samples = reg.counter("nn.fit.samples");
    eval_batches = reg.counter("nn.evaluate.batches");
    eval_rows = reg.counter("nn.evaluate.rows");
    predict_rows = reg.counter("nn.predict.rows");
  }
};

const ModelMetrics& model_metrics() {
  static const ModelMetrics metrics;
  return metrics;
}

}  // namespace

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  // Shape-free kind ("dense(128->1024)" -> "dense") keeps the registered
  // name set bounded across every architecture a process ever builds.
  const std::string full = layers_.back()->name();
  const std::string kind = full.substr(0, full.find('('));
  const std::string base =
      "nn.layer." + std::to_string(layers_.size() - 1) + "." + kind;
  LayerObs o;
  o.forward_ns = obs::MetricsRegistry::global().counter(base + ".forward_ns");
  o.backward_ns =
      obs::MetricsRegistry::global().counter(base + ".backward_ns");
  o.span_name = base;
  layer_obs_.push_back(std::move(o));
  // The compiled graph references the old layer list by pointer; rebuild
  // lazily on the next inference call.
  std::lock_guard<std::mutex> lock(ir_->mu);
  ir_->compiled = false;
  ir_->graph.reset();
  ir_->pool.clear();
  return *this;
}

Mat Sequential::forward(const Mat& x, bool training) {
  if (!training) return forward_ir(x);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  Mat cur = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    obs::Span span(layer_obs_[i].span_name, "nn");
    const util::Timer layer_timer;
    cur = layers_[i]->forward(cur, /*training=*/true);
    reg.add(layer_obs_[i].forward_ns,
            static_cast<std::uint64_t>(
                std::max(0.0, layer_timer.seconds() * 1e9)));
  }
  return cur;
}

Mat Sequential::forward_reference(const Mat& x) {
  Mat cur = x;
  for (auto& l : layers_) cur = l->forward(cur, /*training=*/false);
  return cur;
}

Mat Sequential::forward_ir(const Mat& x) {
  const kernels::Impl impl = kernels::dispatch();
  std::shared_ptr<const ir::Graph> graph;
  std::unique_ptr<ir::Executor> ex;
  {
    std::lock_guard<std::mutex> lock(ir_->mu);
    if (!ir_->compiled || ir_->impl != impl) {
      obs::Span span("ir.compile", "nn");
      ir::Graph g = ir::Graph::lower(*this);
      ir::PassManager(ir_->pipeline).run(g);
      span.arg("nodes", static_cast<std::uint64_t>(g.nodes().size()));
      ir_->graph = std::make_shared<const ir::Graph>(std::move(g));
      ir_->impl = impl;
      ir_->compiled = true;
      ir_->pool.clear();  // built for the replaced graph
    }
    graph = ir_->graph;
    if (!ir_->pool.empty()) {
      ex = std::move(ir_->pool.back());
      ir_->pool.pop_back();
    }
  }
  if (!ex) ex = std::make_unique<ir::Executor>(graph);
  Mat y = ex->run(x);
  {
    std::lock_guard<std::mutex> lock(ir_->mu);
    // Return the executor (and its warm arena) unless a recompile raced us.
    if (&ex->graph() == ir_->graph.get()) ir_->pool.push_back(std::move(ex));
  }
  return y;
}

void Sequential::set_pipeline(std::vector<std::string> passes) {
  ir::PassManager validate(passes);  // throws on unknown pass names
  std::lock_guard<std::mutex> lock(ir_->mu);
  ir_->pipeline = std::move(passes);
  ir_->compiled = false;
  ir_->graph.reset();
  ir_->pool.clear();
}

std::vector<std::string> Sequential::pipeline() const {
  std::lock_guard<std::mutex> lock(ir_->mu);
  return ir_->pipeline;
}

std::uint32_t Sequential::topology_hash() {
  return ir::Graph::lower(*this).topology_hash();
}

std::string Sequential::dump_ir() {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(ir_->mu);
    names = ir_->pipeline;
  }
  ir::Graph g = ir::Graph::lower(*this);
  ir::PassManager(names).run(g);
  return g.to_text();
}

Mat Sequential::predict_proba(const Mat& x) { return softmax(forward(x)); }

namespace {
/// Copy rows [begin, end) of `x` into a fresh batch matrix.
Mat slice_rows(const Mat& x, std::size_t begin, std::size_t end) {
  Mat out(end - begin, x.cols());
  std::copy(x.row(begin), x.row(begin) + (end - begin) * x.cols(), out.data());
  return out;
}
}  // namespace

std::vector<int> Sequential::predict(const Mat& x, std::size_t batch_size,
                                     std::size_t threads) {
  const std::size_t n = x.rows();
  obs::Span span("predict", "nn");
  span.arg("rows", static_cast<std::uint64_t>(n));
  obs::MetricsRegistry::global().add(model_metrics().predict_rows, n);
  const std::size_t bs = std::max<std::size_t>(1, batch_size);
  const std::size_t batches = (n + bs - 1) / bs;
  if (batches <= 1) {
    // One batch runs here, not in a pool region, so the cap must reach the
    // kernels' row splits through the thread's ScopedCap.
    const util::ThreadPool::ScopedCap cap(threads);
    return argmax_rows(forward(x));
  }

  std::vector<int> out(n);
  util::ThreadPool::global().parallel_for(batches, [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t begin = b * bs;
      const std::size_t end = std::min(n, begin + bs);
      const std::vector<int> pred = argmax_rows(forward(slice_rows(x, begin, end)));
      std::copy(pred.begin(), pred.end(), out.begin() + static_cast<std::ptrdiff_t>(begin));
    }
  }, threads);
  return out;
}

std::vector<ParamView> Sequential::params() {
  std::vector<ParamView> out;
  for (auto& l : layers_) {
    for (const auto& p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<std::span<float>> Sequential::state() {
  std::vector<std::span<float>> out;
  for (auto& l : layers_) {
    for (const auto& s : l->state()) out.push_back(s);
  }
  return out;
}

std::size_t Sequential::param_count() {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.size;
  return n;
}

void Sequential::zero_grad() {
  for (const auto& p : params()) std::fill(p.grad, p.grad + p.size, 0.0f);
}

std::string Sequential::summary() {
  std::string s;
  for (auto& l : layers_) {
    if (!s.empty()) s += " ";
    s += l->name();
  }
  return s;
}

namespace {
Mat gather_rows(const Mat& x, const std::vector<std::size_t>& idx,
                std::size_t begin, std::size_t end) {
  Mat out(end - begin, x.cols());
  for (std::size_t i = begin; i < end; ++i) {
    const float* src = x.row(idx[i]);
    float* dst = out.row(i - begin);
    std::copy(src, src + x.cols(), dst);
  }
  return out;
}

double grad_l2_norm(const std::vector<ParamView>& params) {
  double sum = 0.0;
  for (const auto& p : params) {
    for (std::size_t i = 0; i < p.size; ++i) {
      const double g = p.grad[i];
      sum += g * g;
    }
  }
  return std::sqrt(sum);
}
}  // namespace

EpochStats Sequential::fit(const Dataset& train, Optimizer& opt,
                           const FitOptions& options) {
  assert(train.x.rows() == train.y.size());
  const util::ThreadPool::ScopedCap cap(options.threads);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const ModelMetrics& metrics = model_metrics();
  obs::Span fit_span("fit", "nn");
  fit_span.arg("epochs", options.epochs)
      .arg("batch_size", static_cast<std::uint64_t>(options.batch_size))
      .arg("samples", static_cast<std::uint64_t>(train.size()));
  const std::vector<ParamView> param_views = params();
  opt.attach(param_views);

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  util::Xoshiro256 rng(options.shuffle_seed);

  EpochStats last;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    obs::Span epoch_span("fit.epoch", "nn");
    epoch_span.arg("epoch", epoch + 1);
    reg.add(metrics.fit_epochs);
    const util::Timer epoch_timer;
    if (options.shuffle) std::shuffle(order.begin(), order.end(), rng);
    double loss_sum = 0.0;
    double acc_sum = 0.0;
    double max_grad_norm = 0.0;
    std::size_t seen = 0;
    for (std::size_t begin = 0; begin < train.size();
         begin += options.batch_size) {
      const std::size_t end = std::min(begin + options.batch_size, train.size());
      const Mat xb = gather_rows(train.x, order, begin, end);
      std::vector<int> yb(end - begin);
      for (std::size_t i = begin; i < end; ++i) yb[i - begin] = train.y[order[i]];

      reg.add(metrics.fit_batches);
      reg.add(metrics.fit_samples, end - begin);
      const Mat logits = forward(xb, /*training=*/true);
      LossResult lr = softmax_cross_entropy(logits, yb);
      Mat grad = std::move(lr.dlogits);
      for (std::size_t li = layers_.size(); li-- > 0;) {
        const util::Timer bwd_timer;
        grad = layers_[li]->backward(grad);
        reg.add(layer_obs_[li].backward_ns,
                static_cast<std::uint64_t>(
                    std::max(0.0, bwd_timer.seconds() * 1e9)));
      }
      if (options.health != nullptr) {
        // Guard before the step so a poisoned update never reaches the
        // parameters; the caller rolls back and zero_grad()s on throw.
        const double gnorm = grad_l2_norm(param_views);
        max_grad_norm = std::max(max_grad_norm, gnorm);
        options.health->check_batch(epoch + 1, lr.loss, gnorm);
      }
      opt.step();

      loss_sum += lr.loss * static_cast<double>(end - begin);
      acc_sum += lr.accuracy * static_cast<double>(end - begin);
      seen += end - begin;
    }

    last.epoch = epoch + 1;
    last.train_loss = loss_sum / static_cast<double>(seen);
    last.train_accuracy = acc_sum / static_cast<double>(seen);
    last.grad_norm = max_grad_norm;
    if (options.validation != nullptr) {
      const EvalResult v = evaluate(*options.validation);
      last.val_loss = v.loss;
      last.val_accuracy = v.accuracy;
    } else {
      last.val_loss.reset();
      last.val_accuracy.reset();
    }
    if (options.health != nullptr) {
      options.health->check_epoch(epoch + 1, last.train_loss, param_views);
    }
    last.seconds = epoch_timer.seconds();
    epoch_span.arg("train_loss", last.train_loss)
        .arg("train_accuracy", last.train_accuracy);
    if (options.on_epoch) options.on_epoch(last);
  }
  return last;
}

EvalResult Sequential::evaluate(const Dataset& data, std::size_t batch_size,
                                std::size_t threads) {
  assert(data.x.rows() == data.y.size());
  const std::size_t n = data.size();
  const std::size_t bs = std::max<std::size_t>(1, batch_size);
  const std::size_t batches = (n + bs - 1) / bs;
  obs::Span span("evaluate", "nn");
  span.arg("rows", static_cast<std::uint64_t>(n));
  obs::MetricsRegistry::global().add(model_metrics().eval_rows, n);
  obs::MetricsRegistry::global().add(model_metrics().eval_batches, batches);
  // Per-batch partials are reduced in batch order below, so the result is
  // bitwise identical to a serial pass regardless of the worker count.
  std::vector<double> batch_loss(batches, 0.0);
  std::vector<std::size_t> batch_hits(batches, 0);
  const auto score = [&](std::size_t b0, std::size_t b1) {
    for (std::size_t b = b0; b < b1; ++b) {
      const std::size_t begin = b * bs;
      const std::size_t end = std::min(n, begin + bs);
      const std::vector<int> yb(
          data.y.begin() + static_cast<std::ptrdiff_t>(begin),
          data.y.begin() + static_cast<std::ptrdiff_t>(end));
      const Mat logits = forward(slice_rows(data.x, begin, end), /*training=*/false);
      const LossResult lr =
          softmax_cross_entropy(logits, yb, /*compute_grad=*/false);
      batch_loss[b] = lr.loss * static_cast<double>(end - begin);
      batch_hits[b] = static_cast<std::size_t>(
          std::lround(lr.accuracy * static_cast<double>(end - begin)));
    }
  };
  if (batches <= 1) {
    // As in predict: one batch runs here, not in a pool region, so the
    // kernels' row splits may fan out up to the thread's ScopedCap.
    const util::ThreadPool::ScopedCap cap(threads);
    score(0, batches);
  } else {
    util::ThreadPool::global().parallel_for(batches, score, threads);
  }
  double loss_sum = 0.0;
  std::size_t hits = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    loss_sum += batch_loss[b];
    hits += batch_hits[b];
  }
  EvalResult out;
  if (n > 0) {
    out.loss = loss_sum / static_cast<double>(n);
    out.accuracy = static_cast<double>(hits) / static_cast<double>(n);
  }
  return out;
}

}  // namespace mldist::nn
