// Shared support for the experiment benches: CLI scale selection and table
// printing.  Every bench prints the paper's reported numbers next to the
// measured ones and accepts:
//   --quick     seconds-scale budgets (default) — shape-preserving
//   --full      larger budgets, closer to the paper's 2^17.6-sample scale
//   --seed N    override the experiment seed
//   --threads W pipeline worker count (0 = global pool sized to the machine)
//   --kernel K  force the compute-kernel implementation
//               (reference | blocked | avx2); default = best supported
//   --trace F   record a Chrome trace_event JSON of the run into F
//               (same effect as MLDIST_TRACE=F in the environment)
//   --serve-metrics P  expose /metrics, /healthz and /runz on port P while
//               the bench runs (0 = ephemeral; off by default)
//   --log-level L      debug|info|warn|error|off (MLDIST_LOG_LEVEL)
//   --log-file F       JSONL log sink instead of stderr (MLDIST_LOG_FILE)
//
// Every artifact written through write_bench_json carries the run's
// obs::RunManifest and is also appended (bench name + manifest + payload)
// as one line to results/history.jsonl, the append-only record
// tools/bench_compare gates regressions on.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/distinguisher.hpp"
#include "core/targets.hpp"
#include "kernels/dispatch.hpp"
#include "nn/model.hpp"
#include "obs/http.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/registry.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace mldist::bench {

struct Options {
  bool full = false;
  std::uint64_t seed = 0xb0155eedULL;
  std::size_t threads = 0;        ///< 0 = global pool (hardware concurrency)
  std::size_t base_override = 0;  ///< 0 = use the bench's default budget
  int epochs_override = 0;        ///< 0 = use the bench's default epochs

  /// The bench's chosen base-input budget after applying any override.
  std::size_t base(std::size_t quick, std::size_t full_scale) const {
    if (base_override != 0) return base_override;
    return full ? full_scale : quick;
  }
  int epochs(int quick, int full_scale) const {
    if (epochs_override != 0) return epochs_override;
    return full ? full_scale : quick;
  }
};

/// The bench-wide metrics plane, started by --serve-metrics: a serving
/// daemon with no models, alive for the rest of the process (stopped by its
/// destructor at exit).  Statics die in reverse order of construction, so
/// everything its event loop reads (the model registry, the metrics and
/// run-status singletons) is constructed before it.
inline serve::ServeDaemon& metrics_server() {
  obs::MetricsRegistry::global();
  obs::RunStatus::global();
  static const serve::ModelRegistry no_models;
  static serve::ServeDaemon daemon(no_models);
  return daemon;
}

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    // The value after argv[i], checked; a malformed one exits 2.
    const auto number = [&](auto& out, bool hex) {
      if (!util::flag_value(argv[i], argv[i + 1], out, 0, hex)) std::exit(2);
      ++i;
    };
    if (std::strcmp(argv[i], "--full") == 0) {
      opt.full = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      opt.full = false;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      number(opt.seed, /*hex=*/true);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      number(opt.threads, /*hex=*/true);
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      try {
        kernels::set_dispatch(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "--kernel: %s\n", e.what());
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--base") == 0 && i + 1 < argc) {
      number(opt.base_override, /*hex=*/true);
    } else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      number(opt.epochs_override, /*hex=*/false);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      obs::Tracer::global().enable(argv[++i]);
    } else if (std::strcmp(argv[i], "--serve-metrics") == 0 && i + 1 < argc) {
      const std::optional<std::uint16_t> port = obs::parse_port(argv[++i]);
      if (!port) {
        std::fprintf(stderr,
                     "--serve-metrics: '%s' is not a port (expected "
                     "0-65535)\n",
                     argv[i]);
        std::exit(2);
      }
      serve::ServeOptions serve_opt;
      serve_opt.port = *port;
      std::string error;
      if (!metrics_server().start(serve_opt, &error)) {
        std::fprintf(stderr, "--serve-metrics: %s\n", error.c_str());
        std::exit(2);
      }
      std::printf("metrics server on http://localhost:%u/metrics\n",
                  metrics_server().port());
    } else if (std::strcmp(argv[i], "--log-level") == 0 && i + 1 < argc) {
      obs::LogLevel lvl;
      if (!obs::parse_level(argv[++i], lvl)) {
        std::fprintf(stderr, "--log-level: unknown level '%s'\n", argv[i]);
        std::exit(2);
      }
      obs::Logger::global().set_level(lvl);
    } else if (std::strcmp(argv[i], "--log-file") == 0 && i + 1 < argc) {
      std::string error;
      if (!obs::Logger::global().set_file(argv[++i], &error)) {
        std::fprintf(stderr, "--log-file: %s\n", error.c_str());
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "usage: %s [--quick|--full] [--seed N] [--threads W] [--base N] "
          "[--epochs N] [--kernel reference|blocked|avx2] [--trace FILE] "
          "[--serve-metrics PORT] [--log-level L] [--log-file FILE]\n",
          argv[0]);
      std::exit(0);
    }
  }
  // Stamp the run manifest: the resolved kernel and the hash of the shared
  // options, so every artifact this bench writes is attributable.
  obs::RunManifest& manifest = obs::RunManifest::current();
  manifest.kernel = kernels::impl_name(kernels::dispatch());
  {
    util::JsonBuilder cfg;
    cfg.field("mode", opt.full ? "full" : "quick")
        .field("seed", static_cast<std::uint64_t>(opt.seed))
        .field("threads", static_cast<std::uint64_t>(opt.threads))
        .field("base_override", static_cast<std::uint64_t>(opt.base_override))
        .field("epochs_override", opt.epochs_override)
        .field("kernel", manifest.kernel);
    manifest.set_config(cfg.str(), opt.seed);
  }
  return opt;
}

inline void print_header(const char* title, const Options& opt) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("mode: %s   seed: 0x%llx\n", opt.full ? "full" : "quick",
              static_cast<unsigned long long>(opt.seed));
  std::printf("==============================================================\n");
}

inline void print_rule() {
  std::printf("--------------------------------------------------------------\n");
}

/// Machine-readable companion to the printed tables: one CSV per bench,
/// written under results/ in the working directory so plotting scripts can
/// regenerate the paper's tables/figures without scraping stdout.
class CsvWriter {
 public:
  CsvWriter(const std::string& bench_name, const std::string& header) {
    std::filesystem::create_directories("results");
    out_.open("results/" + bench_name + ".csv");
    if (out_) out_ << header << "\n";
  }

  /// Append one row (caller formats the comma-separated values).
  void row(const std::string& csv_row) {
    if (out_) out_ << csv_row << "\n";
  }

  template <typename... Args>
  void rowf(const char* fmt, Args... args) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    row(buf);
  }

 private:
  std::ofstream out_;
};

/// Write the bench's telemetry object to results/BENCH_<name>.json (one
/// artifact per bench run, overwritten each time) with the run manifest
/// spliced in as the leading "manifest" block, and append the same payload
/// as one {"bench":...,"manifest":...,<fields>} line to
/// results/history.jsonl — the append-only trajectory tools/bench_compare
/// reads.  The builder should already carry the run options — use
/// `options_json` for the common part.
inline bool write_bench_json(const std::string& bench_name,
                             const util::JsonBuilder& j) {
  util::JsonBuilder doc;
  doc.field("bench", bench_name)
      .raw("manifest", obs::RunManifest::current().to_json())
      .merge(j);
  const util::WriteResult written = util::write_json_file(
      "results/BENCH_" + bench_name + ".json", doc.str());
  if (!written) {
    obs::log_error("bench", written.error);
    return false;
  }
  util::JsonBuilder line;
  line.field("bench", bench_name)
      .raw("manifest", obs::RunManifest::current().to_json())
      .merge(j);
  const util::WriteResult appended =
      util::append_jsonl("results/history.jsonl", line.str());
  if (!appended) obs::log_warn("bench", appended.error);
  return true;
}

/// The shared CLI options as a JSON object, for embedding into bench
/// artifacts.  Records the active kernel implementation so an artifact is
/// attributable to the dispatch path that produced it.
inline std::string options_json(const Options& opt) {
  util::JsonBuilder j;
  j.field("mode", opt.full ? "full" : "quick")
      .field("seed", static_cast<std::uint64_t>(opt.seed))
      .field("threads", static_cast<std::uint64_t>(opt.threads))
      .field("kernel", kernels::impl_name(kernels::dispatch()));
  return j.str();
}

/// The train-a-distinguisher block shared by the model benches
/// (gohr_speck, ext_gohrnet): wrap `model` in an MLDistinguisher and train
/// it on `target`.  Every GEMM in the run goes through the dispatched
/// kernel, so --kernel selects the implementation for the whole bench.
inline core::TrainReport train_distinguisher(
    std::unique_ptr<nn::Sequential> model, const core::Target& target,
    std::size_t base_inputs, int epochs, std::uint64_t seed) {
  core::DistinguisherOptions dopt;
  dopt.epochs = epochs;
  dopt.seed = seed;
  core::MLDistinguisher dist(std::move(model), dopt);
  return dist.train(target, base_inputs);
}

}  // namespace mldist::bench
