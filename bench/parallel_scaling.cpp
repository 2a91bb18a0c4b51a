// Parallel pipeline scaling: wall-clock throughput of the chunked
// collect_dataset engine and of batched Sequential::evaluate at worker
// counts {1, 2, 4, hardware}, against the serial seed path as baseline.
// A worker count caps the process pool (util::ThreadPool::global()), so
// counts above the hardware concurrency run at the pool's size.
//
// Determinism contract, checked here and recorded in the JSON artifact:
//   * the engine's dataset is a pure function of (seed, chunk size) — every
//     thread count must produce bitwise-identical rows and labels;
//   * evaluate() reduces per-batch partials in batch order — loss and
//     accuracy must be bitwise identical for every worker count.
// The artifact results/BENCH_parallel_scaling.json records, per thread
// count, the wall time, rows/sec and speedup over the serial baseline,
// plus the hardware concurrency of the host the numbers were taken on
// (speedups are only meaningful when the host actually has the cores).
//
// Default scale is 2^16 Gimli-Hash base inputs (the acceptance scale);
// --quick drops to 2^13 for smoke runs, --base N overrides either.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "core/dataset.hpp"
#include "core/targets.hpp"
#include "util/timer.hpp"

namespace {

using namespace mldist;

bool same_dataset(const nn::Dataset& a, const nn::Dataset& b) {
  if (a.x.rows() != b.x.rows() || a.x.cols() != b.x.cols()) return false;
  if (a.y != b.y) return false;
  return std::memcmp(a.x.data(), b.x.data(),
                     a.x.size() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Parallel pipeline scaling - collect_dataset / evaluate", opt);

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  // Acceptance scale (--full): 2^16 base inputs on Gimli-Hash; --quick runs
  // 2^13 for smoke tests.  Rounds do not matter for throughput; 7 matches
  // the paper's headline table.
  const std::size_t base_inputs = opt.base(1u << 13, 1u << 16);
  const core::GimliHashTarget target(7);
  const core::CipherOracle oracle(target);
  std::printf("target: gimli-hash/7   base inputs: %zu (2^%.1f)   hardware "
              "threads: %zu\n",
              base_inputs, std::log2(static_cast<double>(base_inputs)), hw);
  bench::print_rule();

  // --- baseline: the serial seed path (one continuous RNG stream) ---------
  double serial_seconds = 0.0;
  nn::Dataset serial_ds;
  {
    util::Xoshiro256 rng(opt.seed);
    const util::Timer timer;
    serial_ds = core::collect_dataset(oracle, base_inputs, rng);
    serial_seconds = timer.seconds();
  }
  std::printf("%-28s %8.2fs  %10.0f rows/s   (baseline)\n",
              "collect serial (seed path)", serial_seconds,
              static_cast<double>(serial_ds.size()) / serial_seconds);

  // --- the chunked engine at increasing worker counts ---------------------
  struct Point {
    std::size_t threads_requested;
    core::PhaseTelemetry telemetry;
    double speedup = 0.0;
    bool identical_to_first = false;
  };
  std::vector<std::size_t> counts = {1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) counts.push_back(hw);
  std::vector<Point> points;
  nn::Dataset reference;  // engine output at 1 thread
  for (const std::size_t threads : counts) {
    core::CollectOptions copt;
    copt.seed = opt.seed;
    copt.threads = threads;
    Point p;
    p.threads_requested = threads;
    const nn::Dataset ds =
        core::collect_dataset(oracle, base_inputs, copt, &p.telemetry);
    p.speedup = serial_seconds / p.telemetry.seconds;
    if (reference.size() == 0) reference = ds;
    p.identical_to_first = same_dataset(ds, reference);
    std::printf("%-28s %8.2fs  %10.0f rows/s   %.2fx vs serial   bitwise "
                "stable: %s\n",
                (std::string("collect engine, ") + std::to_string(threads) +
                 " thread(s)").c_str(),
                p.telemetry.seconds, p.telemetry.rows_per_sec(), p.speedup,
                p.identical_to_first ? "yes" : "NO");
    points.push_back(p);
  }
  bench::print_rule();

  // --- evaluate() scaling on the collected data ---------------------------
  util::Xoshiro256 init_rng(opt.seed);
  auto model = core::build_default_mlp(target.output_bytes() * 8,
                                       target.num_differences(), init_rng);
  struct EvalPoint {
    std::size_t threads;
    double seconds = 0.0;
    nn::EvalResult result;
    bool identical_to_first = false;
  };
  std::vector<EvalPoint> eval_points;
  nn::EvalResult eval_reference;
  bool have_eval_reference = false;
  for (const std::size_t threads : counts) {
    EvalPoint e;
    e.threads = threads;
    const util::Timer timer;
    e.result = model->evaluate(reference, 512, threads);
    e.seconds = timer.seconds();
    if (!have_eval_reference) {
      eval_reference = e.result;
      have_eval_reference = true;
    }
    e.identical_to_first = e.result.loss == eval_reference.loss &&
                           e.result.accuracy == eval_reference.accuracy;
    std::printf("%-28s %8.2fs  %10.0f rows/s   loss %.6f   bitwise stable: "
                "%s\n",
                (std::string("evaluate, ") + std::to_string(threads) +
                 " thread(s)").c_str(),
                e.seconds,
                static_cast<double>(reference.size()) / e.seconds,
                e.result.loss, e.identical_to_first ? "yes" : "NO");
    eval_points.push_back(e);
  }
  bench::print_rule();

  bool all_stable = true;
  for (const auto& p : points) all_stable = all_stable && p.identical_to_first;
  for (const auto& e : eval_points) {
    all_stable = all_stable && e.identical_to_first;
  }
  std::printf("determinism: %s across all worker counts\n",
              all_stable ? "bitwise identical" : "VIOLATED");
  if (hw < 4) {
    std::printf("note: this host exposes %zu hardware thread(s); speedups "
                "above are bounded by that, not by the engine.\n", hw);
  }

  // --- artifact -----------------------------------------------------------
  std::vector<std::string> collect_json;
  for (const auto& p : points) {
    util::JsonBuilder j;
    j.field("threads_requested", static_cast<std::uint64_t>(p.threads_requested))
        .raw("telemetry", p.telemetry.to_json())
        .field("speedup_vs_serial", p.speedup)
        .field("bitwise_identical", p.identical_to_first);
    collect_json.push_back(j.str());
  }
  std::vector<std::string> eval_json;
  for (const auto& e : eval_points) {
    util::JsonBuilder j;
    j.field("threads", static_cast<std::uint64_t>(e.threads))
        .field("seconds", e.seconds)
        .field("loss", e.result.loss)
        .field("accuracy", e.result.accuracy)
        .field("bitwise_identical", e.identical_to_first);
    eval_json.push_back(j.str());
  }
  util::JsonBuilder artifact;
  artifact.raw("options", bench::options_json(opt))
      .field("target", "gimli-hash/7")
      .field("base_inputs", static_cast<std::uint64_t>(base_inputs))
      .field("rows", static_cast<std::uint64_t>(serial_ds.size()))
      .field("hardware_concurrency", static_cast<std::uint64_t>(hw))
      .field("serial_seconds", serial_seconds)
      .field("serial_rows_per_sec",
             static_cast<double>(serial_ds.size()) / serial_seconds)
      .raw("collect", util::JsonBuilder::array(collect_json))
      .raw("evaluate", util::JsonBuilder::array(eval_json))
      .field("deterministic", all_stable);
  bench::write_bench_json("parallel_scaling", artifact);
  std::printf("artifact: results/BENCH_parallel_scaling.json\n");
  return all_stable ? 0 : 1;
}
