// mldist_cli — command-line driver for the distinguisher pipeline, built on
// the unified core::ExperimentConfig API.
//
//   mldist_cli train --target gimli-hash --rounds 7 --samples 5000
//              --epochs 3 --model dist.nnb [--threads 4] [--retries 3] [--json]
//   mldist_cli test  --target gimli-hash --rounds 7 --model dist.nnb
//              --samples 2000 [--oracle random] [--json]
//   mldist_cli list
//
// Targets: gimli-hash, gimli-cipher, speck, simon, simeck, present, chaskey,
// gift64, gift128, toy, salsa, trivium (--rounds means init clocks for
// trivium).  With --json the report
// is printed as one machine-readable JSON line (config, per-phase telemetry,
// verdict) instead of the human-readable text.
//
// Exit codes: 0 success, 1 distinguisher not usable, 2 usage/config error,
// 3 runtime failure (I/O, corrupt model file, ...).  Failures print a
// structured error — a JSON error record under --json — instead of crashing
// with an unhandled exception.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign/specfile.hpp"
#include "campaign/supervisor.hpp"
#include "campaign/worker.hpp"
#include "core/distinguisher.hpp"
#include "core/experiment.hpp"
#include "core/model_io.hpp"
#include "core/targets.hpp"
#include "kernels/dispatch.hpp"
#include "nn/ir/pass.hpp"
#include "obs/http.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/signal.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/registry.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace mldist;

// Distinct exit codes for scripting: configuration mistakes are retryable
// by the caller with different flags, runtime failures are not.
constexpr int kExitNotUsable = 1;
constexpr int kExitConfig = 2;
constexpr int kExitRuntime = 3;

struct Args {
  std::string command;
  std::string model_path = "dist.nnb";
  std::string oracle = "cipher";
  bool json = false;
  /// --serve-metrics port (0 = ephemeral); unset = no metrics plane.
  std::optional<std::uint16_t> serve_port;
  bool passes_set = false;         ///< --passes was given
  std::vector<std::string> passes; ///< IR pipeline override when passes_set
  core::ExperimentConfig config;

  // --- campaign subcommand -------------------------------------------------
  std::string spec_path;             ///< --spec FILE (declarative grid)
  std::vector<std::string> targets;  ///< --targets a,b,c (grid axis)
  std::vector<int> rounds_list;      ///< --rounds-list 5,6,7
  std::vector<std::string> archs;    ///< --archs a,b
  campaign::SupervisorOptions sup;

  // --- serve subcommand ----------------------------------------------------
  std::string registry_dir;          ///< --registry DIR of *.nnb models
  serve::ServeOptions serve_opt;     ///< --port / --batch-max-rows / ...
};

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ',') {
      if (i > start) out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// obs::parse_port on a flag's value, complaining with the flag's name.
std::optional<std::uint16_t> port_arg(const std::string& flag,
                                      const char* text) {
  const std::optional<std::uint16_t> port = obs::parse_port(text);
  if (!port) {
    std::fprintf(stderr, "%s: '%s' is not a port (expected 0-65535)\n",
                 flag.c_str(), text);
  }
  return port;
}

bool parse(int argc, char** argv, Args& out) {
  if (argc < 2) return false;
  out.command = argv[1];
  out.config.rounds = 7;
  out.config.epochs = 3;
  out.config.seed = 42;
  out.config.offline_base_inputs = 4000;
  out.config.online_base_inputs = 4000;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--json") {
      out.json = true;
      continue;
    }
    if (flag == "--trace-workers") {
      // Per-worker trace lanes under DIR/obs, merged into
      // DIR/obs/campaign.trace.json at campaign end; implied by --trace.
      out.sup.trace_workers = true;
      continue;
    }
    if (flag == "--no-ship-telemetry") {
      out.sup.ship_telemetry = false;
      continue;
    }
    const char* v = next();
    if (!v) return false;
    const char* f = flag.c_str();
    if (flag == "--target") {
      out.config.target = v;
    } else if (flag == "--rounds") {
      if (!util::flag_value(f, v, out.config.rounds)) return false;
    } else if (flag == "--epochs") {
      if (!util::flag_value(f, v, out.config.epochs, 1)) return false;
    } else if (flag == "--samples") {
      std::size_t samples = 0;
      if (!util::flag_value(f, v, samples, 1)) return false;
      out.config.offline_base_inputs = samples;
      out.config.online_base_inputs = samples;
    } else if (flag == "--threads") {
      if (!util::flag_value(f, v, out.config.threads)) return false;
    } else if (flag == "--kernel") {
      // Same resolver as the MLDIST_KERNEL environment variable; unknown or
      // unsupported names emit a structured obs::Logger warning (source
      // "--kernel") and fail the parse.
      kernels::Impl impl;
      if (!kernels::backend_from_string(v, impl, "--kernel")) return false;
      kernels::set_dispatch(impl);
    } else if (flag == "--passes") {
      try {
        out.passes = nn::ir::PassManager::parse_pipeline(v);
        out.passes_set = true;
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "--passes: %s\n", e.what());
        return false;
      }
    } else if (flag == "--arch") {
      out.config.arch = v;
    } else if (flag == "--diff-site") {
      try {
        core::parse_diff_site(v);  // fail at the flag, not deep in make_target
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "--diff-site: %s\n", e.what());
        return false;
      }
      out.config.diff_site = v;
    } else if (flag == "--diffs") {
      out.config.diffs.clear();
      for (const std::string& d : split_commas(v)) {
        std::uint64_t mask = 0;
        if (!util::flag_value(f, d.c_str(), mask, 0, /*hex=*/true)) {
          return false;
        }
        out.config.diffs.push_back(mask);
      }
    } else if (flag == "--spec") {
      out.spec_path = v;
    } else if (flag == "--targets") {
      out.targets = split_commas(v);
    } else if (flag == "--rounds-list") {
      for (const std::string& r : split_commas(v)) {
        int rounds = 0;
        if (!util::flag_value(f, r.c_str(), rounds)) return false;
        out.rounds_list.push_back(rounds);
      }
    } else if (flag == "--archs") {
      out.archs = split_commas(v);
    } else if (flag == "--workers") {
      if (!util::flag_value(f, v, out.sup.workers)) return false;
    } else if (flag == "--cell-timeout") {
      double seconds = 0.0;
      const char* end = v + std::strlen(v);
      const auto [ptr, ec] = std::from_chars(v, end, seconds);
      if (ec != std::errc() || ptr != end || !std::isfinite(seconds) ||
          seconds <= 0.0) {
        std::fprintf(stderr, "%s: '%s' is not a positive number of seconds\n",
                     f, v);
        return false;
      }
      out.sup.cell_timeout_s = seconds;
    } else if (flag == "--max-cell-retries") {
      if (!util::flag_value(f, v, out.sup.max_cell_retries, 1)) return false;
    } else if (flag == "--state-dir") {
      out.sup.state_dir = v;
    } else if (flag == "--registry") {
      out.registry_dir = v;
    } else if (flag == "--port") {
      const std::optional<std::uint16_t> port = port_arg(flag, v);
      if (!port) return false;
      out.serve_opt.port = *port;
    } else if (flag == "--batch-max-rows") {
      if (!util::flag_value(f, v, out.serve_opt.batch.batch_max_rows, 1)) {
        return false;
      }
    } else if (flag == "--queue-max-rows") {
      if (!util::flag_value(f, v, out.serve_opt.batch.queue_max_rows, 1)) {
        return false;
      }
    } else if (flag == "--read-timeout-ms") {
      if (!util::flag_value(f, v, out.serve_opt.read_timeout_ms, 1)) {
        return false;
      }
    } else if (flag == "--slow-request-ms") {
      if (!util::flag_value(f, v, out.serve_opt.batch.slow_request_ms)) {
        return false;
      }
    } else if (flag == "--request-id-seed") {
      if (!util::flag_value(f, v, out.serve_opt.request_id_seed, 0,
                            /*hex=*/true)) {
        return false;
      }
    } else if (flag == "--model") {
      out.model_path = v;
    } else if (flag == "--oracle") {
      out.oracle = v;
    } else if (flag == "--seed") {
      if (!util::flag_value(f, v, out.config.seed, 0, /*hex=*/true)) {
        return false;
      }
    } else if (flag == "--retries") {
      if (!util::flag_value(f, v, out.config.max_retries)) return false;
    } else if (flag == "--checkpoint") {
      out.config.checkpoint_path = v;
    } else if (flag == "--trace") {
      // Scoped-span tracing (obs/trace.hpp): every phase/layer/kernel span
      // of this run lands in `v` as Chrome trace_event JSON.  Equivalent to
      // setting MLDIST_TRACE=v in the environment.
      obs::Tracer::global().enable(v);
    } else if (flag == "--serve-metrics") {
      out.serve_port = port_arg(flag, v);
      if (!out.serve_port) return false;
    } else if (flag == "--log-level") {
      obs::LogLevel lvl;
      if (!obs::parse_level(v, lvl)) {
        std::fprintf(stderr, "--log-level: unknown level '%s'\n", v);
        return false;
      }
      obs::Logger::global().set_level(lvl);
    } else if (flag == "--log-file") {
      std::string error;
      if (!obs::Logger::global().set_file(v, &error)) {
        std::fprintf(stderr, "--log-file: %s\n", error.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  // Stamp provenance once flags are resolved: the active kernel and the
  // CRC of the config every artifact of this run will carry.
  obs::RunManifest& manifest = obs::RunManifest::current();
  manifest.kernel = kernels::impl_name(kernels::dispatch());
  manifest.set_config(out.config.to_json(), out.config.seed);
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  mldist_cli train --target T --rounds R --samples N "
               "--epochs E --model PATH\n"
               "             [--arch A] [--threads W] [--seed S] "
               "[--kernel reference|blocked|avx2]\n"
               "             [--retries N] [--checkpoint PATH] [--json] "
               "[--trace FILE]\n"
               "             [--serve-metrics PORT] [--log-level L] "
               "[--log-file FILE]\n"
               "  mldist_cli test  --target T --rounds R --samples N "
               "--model PATH\n"
               "             [--oracle cipher|random] [--threads W] [--json] "
               "[--trace FILE]\n"
               "             [--serve-metrics PORT] [--log-level L] "
               "[--log-file FILE]\n"
               "  mldist_cli dump-ir [--arch A] [--target T] "
               "[--passes default|none|p1,p2,...]\n"
               "  mldist_cli campaign --state-dir DIR --spec FILE.json "
               "[--workers N]\n"
               "             [--cell-timeout S] [--max-cell-retries N] "
               "[--json]\n"
               "             [--trace-workers] [--no-ship-telemetry]\n"
               "  mldist_cli campaign --state-dir DIR [--targets a,b] "
               "[--rounds-list 5,6,7]\n"
               "             [--archs a,b] [--workers N] [--cell-timeout S] "
               "[--max-cell-retries N]\n"
               "             [--samples N] [--epochs E] [--seed S] [--json]\n"
               "  mldist_cli serve --registry DIR [--port P] "
               "[--batch-max-rows N]\n"
               "             [--queue-max-rows N] [--read-timeout-ms N] "
               "[--slow-request-ms N]\n"
               "             [--request-id-seed S]\n"
               "  mldist_cli list\n"
               "train/test also accept --passes to override the IR "
               "optimisation pipeline,\n"
               "and --diff-site plaintext|related-key with --diffs m1,m2 to "
               "pick the\n"
               "difference site and masks (see EXPERIMENTS.md).\n"
               "campaign shards the spec-file grid (or the one-block target x "
               "rounds x arch\n"
               "grid of the axis flags) over worker processes, journals results to "
               "DIR/campaign.state.jsonl +\n"
               "DIR/history.jsonl, and resumes from DIR after a crash, "
               "skipping finished cells.\n"
               "serve loads every *.nnb model in DIR and answers POST "
               "/v1/classify with\n"
               "batched inference until SIGINT/SIGTERM (see DESIGN.md "
               "section 15).\n");
  return kExitConfig;
}

int cmd_list() {
  std::printf("targets:\n");
  std::printf("  gimli-hash    (rounds 1..24; paper: 6/7/8)\n");
  std::printf("  gimli-cipher  (total rounds before c0; paper: 6/7/8)\n");
  std::printf("  speck         (rounds 1..22; Gohr: 5..8)\n");
  std::printf("  simon         (SIMON32/64, rounds 1..32)\n");
  std::printf("  simeck        (SIMECK32/64, rounds 1..32)\n");
  std::printf("  present       (PRESENT-80, rounds 1..31)\n");
  std::printf("  chaskey       (permutation rounds 1..16; spec: 8)\n");
  std::printf("  gift64        (rounds 1..28)\n");
  std::printf("  gift128       (rounds 1..40)\n");
  std::printf("  toy           (the 8-bit Fig. 1 cipher; --rounds ignored)\n");
  std::printf("  salsa         (rounds 1..20)\n");
  std::printf("  trivium       (--rounds = init clocks, full = 1152)\n");
  std::printf("architectures: default-mlp, gohr-net/D, and the Table-3 zoo "
              "(MLP I..VI, LSTM, CNN)\n");
  std::printf("difference sites: plaintext (default), related-key "
              "(speck/simon/simeck/present/chaskey)\n");
  return 0;
}

// Print the optimised inference IR of the configured architecture (after
// lowering and the active pass pipeline) without training anything.  The
// output format is golden-tested in tests/ir_test.cpp.
int cmd_dump_ir(const Args& args) {
  const std::unique_ptr<core::Target> target = args.config.make_target();
  std::unique_ptr<nn::Sequential> model = args.config.make_model(*target);
  if (args.passes_set) model->set_pipeline(args.passes);
  std::printf("%s", model->dump_ir().c_str());
  return 0;
}

int cmd_train(const Args& args) {
  std::unique_ptr<core::Target> target = args.config.make_target();
  core::ExperimentConfig config = args.config;
  if (!args.json) {
    config.on_epoch = [](const nn::EpochStats& s) {
      std::printf("epoch %d: train %.4f  val %.4f  (%.2fs)\n", s.epoch,
                  s.train_accuracy, s.val_accuracy.value_or(0.0), s.seconds);
    };
  }
  core::MLDistinguisher dist(*target, config);
  if (args.passes_set) dist.model().set_pipeline(args.passes);
  const core::TrainReport rep =
      dist.train(*target, config.offline_base_inputs);
  // Self-describing, CRC-checksummed format (core/model_io) so `test` can
  // rebuild the architecture and detect on-disk corruption.
  core::save_model(dist.model(), config.arch, target->output_bytes() * 8,
                   target->num_differences(), args.model_path);

  if (args.json) {
    util::JsonBuilder j;
    j.field("command", "train")
        .raw("manifest", obs::RunManifest::current().to_json())
        .raw("config", config.to_json())
        .field("target_name", target->name())
        .field("train_accuracy", rep.train_accuracy)
        .field("val_accuracy", rep.val_accuracy)
        .field("train_loss", rep.train_loss)
        .field("samples", rep.samples)
        .field("log2_data", rep.log2_data)
        .field("usable", rep.usable)
        .field("seconds_per_epoch", rep.seconds_per_epoch)
        .raw("collect", rep.collect.to_json())
        .raw("fit", rep.fit.to_json())
        .raw("robustness", rep.robustness.to_json())
        .raw("obs", obs::MetricsRegistry::global().snapshot().to_json())
        .field("model_path", args.model_path);
    std::printf("%s\n", j.str().c_str());
  } else {
    std::printf("offline collection: %zu queries in %.2fs (%.0f queries/s, "
                "%zu threads)\n",
                rep.collect.queries, rep.collect.seconds,
                rep.collect.queries_per_sec(), rep.collect.threads);
    if (rep.robustness.attempts > 1 || rep.robustness.degraded_to_baseline) {
      std::printf("recovery: %d attempts, %d divergences, %d rollbacks%s\n",
                  rep.robustness.attempts, rep.robustness.divergences,
                  rep.robustness.rollbacks,
                  rep.robustness.degraded_to_baseline
                      ? " -> DEGRADED to linear baseline"
                      : "");
    }
    std::printf("training accuracy a = %.4f over 2^%.1f queries -> %s\n",
                rep.val_accuracy, rep.log2_data,
                rep.usable ? "usable" : "NOT usable (Algorithm 2 aborts)");
    std::printf("model written to %s\n", args.model_path.c_str());
  }
  return rep.usable ? 0 : kExitNotUsable;
}

int cmd_test(const Args& args) {
  std::unique_ptr<core::Target> target = args.config.make_target();
  const core::ExperimentConfig& config = args.config;
  core::LoadedModel loaded = core::load_model(args.model_path);
  if (loaded.input_bits != target->output_bytes() * 8 ||
      loaded.classes != target->num_differences()) {
    throw std::invalid_argument(
        "model " + args.model_path + " (arch " + loaded.arch +
        ") does not match target " + target->name());
  }
  std::unique_ptr<nn::Sequential> model = std::move(loaded.model);
  if (args.passes_set) model->set_pipeline(args.passes);

  // Rebind the distinguisher to the loaded weights: we must not re-train
  // over them, so calibrate a on fresh cipher data with the weights frozen.
  core::DistinguisherOptions opt(config);
  core::MLDistinguisher dist(std::move(model), opt);
  const core::CipherOracle calibration(*target);
  double calibration_accuracy = 0.0;
  {
    core::CollectOptions copt = opt.collect_options(config.seed ^ 0xca11);
    const nn::Dataset cal =
        core::collect_dataset(calibration, 500, copt);
    const auto pred = dist.model().predict(cal.x);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < pred.size(); ++i) hits += (pred[i] == cal.y[i]);
    calibration_accuracy =
        static_cast<double>(hits) / static_cast<double>(pred.size());
  }

  const core::RandomOracle random_oracle(target->num_differences(),
                                         target->output_bytes());
  const core::Oracle& oracle =
      args.oracle == "random"
          ? static_cast<const core::Oracle&>(random_oracle)
          : static_cast<const core::Oracle&>(calibration);
  core::PhaseTelemetry collect_tel;
  core::CollectOptions copt = opt.collect_options(config.seed ^ 0x0b5e);
  const nn::Dataset online = core::collect_dataset(
      oracle, config.online_base_inputs, copt, &collect_tel);
  const util::Timer predict_timer;
  const auto pred = dist.model().predict(online.x);
  core::PhaseTelemetry predict_tel;
  predict_tel.seconds = predict_timer.seconds();
  predict_tel.rows = pred.size();
  predict_tel.threads = collect_tel.threads;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) hits += (pred[i] == online.y[i]);
  const double acc =
      static_cast<double>(hits) / static_cast<double>(pred.size());
  const double p0 = 1.0 / static_cast<double>(target->num_differences());
  const bool looks_cipher =
      acc > p0 + 3 * std::sqrt(p0 * (1 - p0) /
                               static_cast<double>(pred.size()));

  if (args.json) {
    util::JsonBuilder j;
    j.field("command", "test")
        .raw("manifest", obs::RunManifest::current().to_json())
        .raw("config", config.to_json())
        .field("target_name", target->name())
        .field("oracle", args.oracle)
        .field("calibration_accuracy", calibration_accuracy)
        .field("online_accuracy", acc)
        .field("random_guess", p0)
        .field("samples", pred.size())
        .field("verdict", looks_cipher ? "CIPHER" : "RANDOM")
        .raw("collect", collect_tel.to_json())
        .raw("predict", predict_tel.to_json())
        .raw("obs", obs::MetricsRegistry::global().snapshot().to_json())
        .field("model_path", args.model_path);
    std::printf("%s\n", j.str().c_str());
  } else {
    std::printf("calibration accuracy on fresh cipher data: %.4f\n",
                calibration_accuracy);
    std::printf("online collection: %zu queries in %.2fs (%.0f queries/s, "
                "%zu threads)\n",
                collect_tel.queries, collect_tel.seconds,
                collect_tel.queries_per_sec(), collect_tel.threads);
    std::printf("online accuracy a' = %.4f (1/t = %.4f) -> oracle looks like "
                "%s\n",
                acc, p0, looks_cipher ? "CIPHER" : "RANDOM");
  }
  return 0;
}

// Run (or resume) a sharded campaign over the target x rounds x arch grid.
// Exit 0 when every cell completed, 1 when the campaign finished with
// failed cells or was interrupted (partial results are on disk either way).
int cmd_campaign(const Args& args) {
  if (args.sup.state_dir.empty()) {
    throw std::invalid_argument("campaign: --state-dir is required");
  }
  campaign::CampaignSpec spec;
  if (!args.spec_path.empty()) {
    // The spec file owns the whole grid; mixing in axis flags would
    // silently lose whichever side we ignored, so refuse the combination.
    if (!args.targets.empty() || !args.rounds_list.empty() ||
        !args.archs.empty()) {
      throw std::invalid_argument(
          "campaign: --spec carries the full grid; drop the "
          "--targets/--rounds-list/--archs flags (put those axes in the "
          "spec file's \"grid\" blocks instead)");
    }
    spec = campaign::load_spec_file(args.spec_path);
  } else {
    // The axis flags are a one-block grid.
    spec.base = args.config;
    spec.base.on_epoch = nullptr;
    campaign::GridBlock block;
    block.targets = args.targets;
    block.rounds = args.rounds_list;
    block.archs = args.archs;
    spec.blocks.push_back(std::move(block));
    spec.seed = args.config.seed;
  }

  const campaign::CampaignReport rep =
      campaign::Supervisor(spec, args.sup).run();

  if (args.json) {
    util::JsonBuilder j;
    j.field("command", "campaign")
        .raw("manifest", obs::RunManifest::current().to_json())
        .raw("config", args.config.to_json())
        .raw("report", rep.to_json())
        .field("state_dir", args.sup.state_dir);
    std::printf("%s\n", j.str().c_str());
  } else {
    std::printf("campaign: %zu cells -> %zu done, %zu skipped (previous "
                "runs), %zu failed\n",
                rep.cells_total, rep.cells_done, rep.cells_skipped,
                rep.cells_failed);
    std::printf("  retries %zu, reclaims %zu, worker restarts %zu, %.1fs%s\n",
                rep.retries, rep.reclaims, rep.worker_restarts, rep.seconds,
                rep.interrupted ? "  [interrupted -- rerun to resume]" : "");
    std::printf("  results: %s/history.jsonl\n", args.sup.state_dir.c_str());
  }
  return rep.complete() && rep.cells_failed == 0 && !rep.interrupted
             ? 0
             : kExitNotUsable;
}

// Serve every model in --registry until SIGINT/SIGTERM.  The daemon thread
// owns all the I/O; main just parks on the cooperative interrupt flag so
// ^C drains in-flight batches instead of dropping them.
int cmd_serve(const Args& args) {
  if (args.registry_dir.empty()) {
    throw std::invalid_argument("serve: --registry DIR is required");
  }
  serve::ModelRegistry registry;
  const std::size_t loaded = registry.load_dir(args.registry_dir);
  if (loaded == 0) {
    throw std::invalid_argument("serve: no *.nnb models in " +
                                args.registry_dir);
  }
  serve::ServeDaemon daemon(registry);
  std::string error;
  if (!daemon.start(args.serve_opt, &error)) {
    throw std::runtime_error("serve: " + error);
  }
  if (!args.json) {
    std::printf("serving %zu model%s on http://localhost:%u/v1/classify "
                "(^C to stop)\n",
                loaded, loaded == 1 ? "" : "s", daemon.port());
  }
  while (!obs::interrupt_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  daemon.stop();
  if (args.json) {
    util::JsonBuilder j;
    j.field("command", "serve")
        .raw("manifest", obs::RunManifest::current().to_json())
        .field("models", static_cast<std::uint64_t>(loaded))
        .field("requests", daemon.requests())
        .field("rejected", daemon.rejected());
    std::printf("%s\n", j.str().c_str());
  } else {
    std::printf("serve: drained; %llu requests (%llu rejected)\n",
                static_cast<unsigned long long>(daemon.requests()),
                static_cast<unsigned long long>(daemon.rejected()));
  }
  return 0;
}

/// Print a structured error record (JSON under --json) and return the exit
/// code, instead of dying with an unhandled exception.
int report_error(bool json, const char* kind, const std::string& what,
                 int code) {
  if (json) {
    util::JsonBuilder j;
    j.field("error", true).field("kind", kind).field("what", what)
        .field("exit_code", code);
    std::printf("%s\n", j.str().c_str());
  } else {
    std::fprintf(stderr, "mldist_cli: %s error: %s\n", kind, what.c_str());
  }
  return code;
}

}  // namespace

namespace {

/// Explicit flush so the trace file exists even when the caller inspects it
/// while the process is still alive; the atexit flush (installed by
/// enable()) remains as the crash-path backstop.
int finish_trace(int code) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.path().empty()) {
    std::string error;
    if (!tracer.flush(&error)) {
      std::fprintf(stderr, "mldist_cli: trace flush failed: %s\n",
                   error.c_str());
      return code == 0 ? kExitRuntime : code;
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  // Campaign worker processes are exec'd copies of this binary; hand the
  // process over before any normal-mode setup runs.
  if (const int worker_rc = campaign::worker_entry(argc, argv);
      worker_rc >= 0) {
    return worker_rc;
  }
  Args args;
  if (!parse(argc, argv, args)) return usage();
  // SIGTERM/SIGINT: single-experiment commands drain the log ring, stamp an
  // "interrupted" RunStatus and die with the signal (immediate mode); the
  // campaign supervisor and the serving daemon instead observe the flag and
  // shut down cooperatively — the campaign journals the interruption so a
  // rerun resumes, the daemon drains its batch queues before exiting.
  obs::install_interrupt_handlers(
      /*exit_immediately=*/args.command != "campaign" &&
      args.command != "serve");
  // Live observability (off by default): /metrics, /healthz and /runz for
  // the duration of the run, from a serving daemon with no models.  Its
  // event loop only ever reads snapshots, so it cannot perturb the
  // pipeline's determinism.  The registry is declared first: it must
  // outlive the daemon that reads it.
  const serve::ModelRegistry no_models;
  serve::ServeDaemon metrics_plane(no_models);
  if (args.serve_port) {
    serve::ServeOptions opt;
    opt.port = *args.serve_port;
    std::string error;
    if (!metrics_plane.start(opt, &error)) {
      return report_error(args.json, "config", "--serve-metrics: " + error,
                          kExitConfig);
    }
    if (!args.json) {
      std::printf("metrics server on http://localhost:%u/metrics\n",
                  metrics_plane.port());
    }
  }
  try {
    if (args.command == "list") return cmd_list();
    if (args.command == "dump-ir") return cmd_dump_ir(args);
    if (args.command == "train") return finish_trace(cmd_train(args));
    if (args.command == "test") return finish_trace(cmd_test(args));
    if (args.command == "campaign") return finish_trace(cmd_campaign(args));
    if (args.command == "serve") return finish_trace(cmd_serve(args));
    return usage();
  } catch (const std::invalid_argument& e) {
    // Bad target/arch names, model/target mismatches: caller-fixable.
    return report_error(args.json, "config", e.what(), kExitConfig);
  } catch (const std::exception& e) {
    // I/O failures, corrupt model files, internal errors.
    return report_error(args.json, "runtime", e.what(), kExitRuntime);
  }
}
