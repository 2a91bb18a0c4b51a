// Kernel scaling: throughput of every registered compute-kernel
// implementation (reference / blocked / avx2) on the two hot paths the
// kernels layer accelerates — GEMM and the batched Gimli permutation — plus
// the end-to-end effect on dataset collection and a training epoch.
//
// The artifact results/BENCH_kernels.json records, per implementation, the
// GEMM GFLOP/s (a 128^3 product plus distinguisher-shaped products: the
// Gohr conv interior at 1 and 32 rows, its border product and a
// default-mlp fit product), batched-Gimli states/sec, the loop-vs-batch
// collection throughput and the train-epoch wall time, each with its
// speedup over the reference implementation (GEMM) or over the scalar
// per-sample loop (collection).  Acceptance thresholds, checked by the exit
// status:
//   * best GEMM speedup vs reference >= 2x,
//   * best batched collection speedup vs the scalar sample() loop >= 1.5x.
//
// Every implementation is bitwise identical to the reference (the
// determinism contract of src/kernels/dispatch.hpp, enforced by
// tests/kernel_equiv_test.cpp), so these numbers compare equal computations.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "core/dataset.hpp"
#include "core/targets.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gemm.hpp"
#include "kernels/gimli_batch.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace mldist;

/// Median-of-repeats wall time of `fn` (seconds).  Small repeat counts keep
/// the bench fast; the median damps scheduler noise on shared hosts.
template <typename Fn>
double timed(int repeats, Fn&& fn) {
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const util::Timer timer;
    fn();
    seconds.push_back(timer.seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header("Kernel scaling - GEMM / batched Gimli / collection",
                      opt);
  const auto impls = kernels::available_impls();
  const kernels::Impl startup = kernels::dispatch();
  util::Xoshiro256 rng(opt.seed);

  // --- GEMM throughput ----------------------------------------------------
  // Training-representative shape: batch 128 through a 128-wide layer.
  const std::size_t m = 128, k = 128, n = 128;
  const double flops = 2.0 * static_cast<double>(m * k * n);
  const int gemm_calls = opt.full ? 200 : 50;
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = static_cast<float>(rng.next_gaussian());
  for (auto& v : b) v = static_cast<float>(rng.next_gaussian());

  std::printf("GEMM %zux%zux%zu, %d calls per measurement\n", m, k, n,
              gemm_calls);
  double gemm_ref_seconds = 0.0;
  double gemm_best_speedup = 1.0;
  std::vector<std::string> gemm_json;
  for (const kernels::Impl impl : impls) {
    const double seconds = timed(5, [&] {
      for (int i = 0; i < gemm_calls; ++i) {
        kernels::gemm_impl(impl, a.data(), static_cast<std::ptrdiff_t>(k), 1,
                           b.data(), static_cast<std::ptrdiff_t>(n), 1,
                           c.data(), m, k, n);
      }
    });
    if (impl == kernels::Impl::kReference) gemm_ref_seconds = seconds;
    const double speedup = gemm_ref_seconds / seconds;
    if (speedup > gemm_best_speedup) gemm_best_speedup = speedup;
    const double gflops = flops * gemm_calls / seconds / 1e9;
    std::printf("  %-10s %8.2f GFLOP/s   %.2fx vs reference\n",
                kernels::impl_name(impl), gflops, speedup);
    util::JsonBuilder j;
    j.field("impl", kernels::impl_name(impl))
        .field("seconds", seconds)
        .field("gflops", gflops)
        .field("speedup_vs_reference", speedup);
    gemm_json.push_back(j.str());
  }

  // Distinguisher-shaped products, where small m and the per-call overhead
  // decide the rate.  No gate: these rows put small-M rates on record.
  struct GemmShape {
    std::size_t m, k, n;
    const char* what;
  };
  const GemmShape shapes[] = {
      {62, 96, 32, "gohr conv interior, 1 row"},
      {2046, 96, 32, "gohr conv interior, 32 rows"},
      {2, 96, 32, "gohr conv border"},
      {128, 128, 1024, "default-mlp fit product"},
  };
  const double shape_flop_budget = opt.full ? 4e8 : 1e8;
  std::vector<std::string> shapes_json;
  for (const GemmShape& s : shapes) {
    const double shape_flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const int calls =
        std::max(1, static_cast<int>(shape_flop_budget / shape_flops));
    std::vector<float> sa(s.m * s.k), sb(s.k * s.n), sc(s.m * s.n);
    for (auto& v : sa) v = static_cast<float>(rng.next_gaussian());
    for (auto& v : sb) v = static_cast<float>(rng.next_gaussian());
    const std::string dims = std::to_string(s.m) + "x" + std::to_string(s.k) +
                             "x" + std::to_string(s.n);
    std::printf("GEMM %s (%s), %d calls per measurement\n", dims.c_str(),
                s.what, calls);
    for (const kernels::Impl impl : impls) {
      const double seconds = timed(5, [&] {
        for (int i = 0; i < calls; ++i) {
          kernels::gemm_impl(impl, sa.data(),
                             static_cast<std::ptrdiff_t>(s.k), 1, sb.data(),
                             static_cast<std::ptrdiff_t>(s.n), 1, sc.data(),
                             s.m, s.k, s.n);
        }
      });
      const double gflops = shape_flops * calls / seconds / 1e9;
      std::printf("  %-10s %8.2f GFLOP/s   %8.2f us/call\n",
                  kernels::impl_name(impl), gflops, seconds / calls * 1e6);
      util::JsonBuilder j;
      j.field("shape", dims)
          .field("what", s.what)
          .field("impl", kernels::impl_name(impl))
          .field("us_per_call", seconds / calls * 1e6)
          .field("gflops", gflops);
      shapes_json.push_back(j.str());
    }
  }
  bench::print_rule();

  // --- batched Gimli ------------------------------------------------------
  const std::size_t states = 1024;
  const int gimli_calls = opt.full ? 2000 : 500;
  std::vector<std::uint32_t> soa(12 * states);
  for (auto& w : soa) w = rng.next_u32();
  std::printf("batched Gimli, 8 rounds, %zu states/call\n", states);
  double gimli_ref_seconds = 0.0;
  std::vector<std::string> gimli_json;
  for (const kernels::Impl impl : impls) {
    const double seconds = timed(5, [&] {
      for (int i = 0; i < gimli_calls; ++i) {
        kernels::gimli_rounds_batch_impl(impl, soa.data(), states, 8, 1);
      }
    });
    if (impl == kernels::Impl::kReference) gimli_ref_seconds = seconds;
    const double speedup = gimli_ref_seconds / seconds;
    const double rate =
        static_cast<double>(states) * gimli_calls / seconds / 1e6;
    std::printf("  %-10s %8.1f Mstates/s  %.2fx vs reference\n",
                kernels::impl_name(impl), rate, speedup);
    util::JsonBuilder j;
    j.field("impl", kernels::impl_name(impl))
        .field("seconds", seconds)
        .field("mstates_per_sec", rate)
        .field("speedup_vs_reference", speedup);
    gimli_json.push_back(j.str());
  }
  bench::print_rule();

  // --- dataset collection: scalar loop vs batched path --------------------
  // The scalar loop is the pre-batching collection shape (one sample() call
  // per base input, one permutation at a time); the batched path is what
  // collect_span now does (sample_batch slabs feeding the batched kernel).
  const core::GimliHashTarget target(8);
  const std::size_t base_inputs = opt.base(1u << 12, 1u << 15);
  std::printf("collection, gimli-hash/8, %zu base inputs\n", base_inputs);
  util::Xoshiro256 loop_rng(opt.seed);
  std::vector<std::vector<std::uint8_t>> diffs;
  const double loop_seconds = timed(3, [&] {
    for (std::size_t s = 0; s < base_inputs; ++s) target.sample(loop_rng, diffs);
  });
  std::printf("  %-16s %8.3fs  %10.0f samples/s   (baseline)\n",
              "scalar loop", loop_seconds,
              static_cast<double>(base_inputs) / loop_seconds);
  double collect_best_speedup = 0.0;
  std::vector<std::string> collect_json;
  for (const kernels::Impl impl : impls) {
    kernels::set_dispatch(impl);
    util::Xoshiro256 batch_rng(opt.seed);
    core::DiffBatch batch;
    constexpr std::size_t kSlab = 256;
    const double batch_seconds = timed(3, [&] {
      for (std::size_t s = 0; s < base_inputs; s += kSlab) {
        target.sample_batch(batch_rng, std::min(kSlab, base_inputs - s),
                            batch);
      }
    });
    const double speedup = loop_seconds / batch_seconds;
    if (speedup > collect_best_speedup) collect_best_speedup = speedup;
    std::printf("  %-16s %8.3fs  %10.0f samples/s   %.2fx vs loop\n",
                (std::string("batched ") + kernels::impl_name(impl)).c_str(),
                batch_seconds,
                static_cast<double>(base_inputs) / batch_seconds, speedup);
    util::JsonBuilder j;
    j.field("impl", kernels::impl_name(impl))
        .field("seconds", batch_seconds)
        .field("samples_per_sec",
               static_cast<double>(base_inputs) / batch_seconds)
        .field("speedup_vs_loop", speedup);
    collect_json.push_back(j.str());
  }
  kernels::set_dispatch(startup);
  bench::print_rule();

  // --- end-to-end training epoch ------------------------------------------
  const std::size_t train_rows = opt.full ? 8192 : 2048;
  nn::Dataset ds;
  ds.x = nn::Mat(train_rows, 128);
  ds.y.resize(train_rows);
  for (std::size_t i = 0; i < ds.x.size(); ++i) {
    ds.x.data()[i] = static_cast<float>(rng.next_u64() & 1);
  }
  for (auto& y : ds.y) y = static_cast<int>(rng.next_below(2));
  std::printf("training, default MLP, %zu rows, 1 epoch\n", train_rows);
  double train_ref_seconds = 0.0;
  std::vector<std::string> train_json;
  for (const kernels::Impl impl : impls) {
    kernels::set_dispatch(impl);
    util::Xoshiro256 init_rng(opt.seed);
    auto model = core::build_default_mlp(128, 2, init_rng);
    nn::Adam adam;
    nn::FitOptions fit;
    fit.epochs = 1;
    fit.batch_size = 128;
    fit.shuffle = false;
    const double seconds = timed(3, [&] { model->fit(ds, adam, fit); });
    if (impl == kernels::Impl::kReference) train_ref_seconds = seconds;
    const double speedup = train_ref_seconds / seconds;
    std::printf("  %-10s %8.3fs/epoch   %.2fx vs reference\n",
                kernels::impl_name(impl), seconds, speedup);
    util::JsonBuilder j;
    j.field("impl", kernels::impl_name(impl))
        .field("seconds_per_epoch", seconds)
        .field("speedup_vs_reference", speedup);
    train_json.push_back(j.str());
  }
  kernels::set_dispatch(startup);
  bench::print_rule();

  const bool gemm_ok = gemm_best_speedup >= 2.0;
  const bool collect_ok = collect_best_speedup >= 1.5;
  std::printf("acceptance: GEMM best %.2fx (target 2x): %s   collection "
              "best %.2fx (target 1.5x): %s\n",
              gemm_best_speedup, gemm_ok ? "OK" : "FAIL",
              collect_best_speedup, collect_ok ? "OK" : "FAIL");

  util::JsonBuilder acceptance;
  acceptance.field("gemm_speedup_target", 2.0)
      .field("gemm_best_speedup", gemm_best_speedup)
      .field("gemm_ok", gemm_ok)
      .field("collect_speedup_target", 1.5)
      .field("collect_best_speedup", collect_best_speedup)
      .field("collect_ok", collect_ok);
  util::JsonBuilder artifact;
  artifact.raw("options", bench::options_json(opt))
      .field("gemm_shape", std::to_string(m) + "x" + std::to_string(k) + "x" +
                               std::to_string(n))
      .raw("gemm", util::JsonBuilder::array(gemm_json))
      .raw("gemm_shapes", util::JsonBuilder::array(shapes_json))
      .field("gimli_batch_states", static_cast<std::uint64_t>(states))
      .raw("gimli_batch", util::JsonBuilder::array(gimli_json))
      .field("collect_target", "gimli-hash/8")
      .field("collect_base_inputs", static_cast<std::uint64_t>(base_inputs))
      .field("collect_loop_seconds", loop_seconds)
      .raw("collect", util::JsonBuilder::array(collect_json))
      .field("train_rows", static_cast<std::uint64_t>(train_rows))
      .raw("train", util::JsonBuilder::array(train_json))
      .raw("acceptance", acceptance.str());
  bench::write_bench_json("kernels", artifact);
  std::printf("artifact: results/BENCH_kernels.json\n");
  return (gemm_ok && collect_ok) ? 0 : 1;
}
