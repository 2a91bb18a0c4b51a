// RunManifest: the provenance block stamped into every artifact a run
// leaves behind (results/*.json, trace files, history.jsonl lines) so a
// number in a report is always attributable to the exact binary, config and
// machine that produced it.
//
//   {"run_id":"9f2c...","config_hash":"1a2b3c4d","seed":42,
//    "kernel":"avx2","git":"cc53008","hostname":"box","cores":4,
//    "build":"Release GNU 13.2"}
//
// run_id is minted once per process (wall clock + pid mixed through
// splitmix64 — unique across runs, not meant to be guessable).  config_hash
// is CRC-32 over the run's config JSON, so two runs with identical knobs
// key to the same hash in results/history.jsonl regardless of when or where
// they ran.  git describe and the build flags are burned in at compile time
// by src/obs/CMakeLists.txt; kernel is stamped by the entry point after
// dispatch resolution (the obs library sits below src/kernels and must not
// call into it).
//
// RunStatus is the tiny live counterpart served by /runz: which phase the
// pipeline is in and which epoch training has reached, updated by
// core::MLDistinguisher as it moves.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

namespace mldist::obs {

struct RunManifest {
  std::string run_id;       ///< 16 hex chars, minted per process
  std::string config_hash;  ///< CRC-32 (8 hex chars) of the config JSON
  std::uint64_t seed = 0;
  std::string kernel;       ///< dispatch impl name; "" until stamped
  std::string git_describe;
  std::string hostname;
  /// std::thread::hardware_concurrency(): the size the global pool takes.
  unsigned cores = 0;
  std::string build_flags;

  /// The process-wide manifest, pre-filled with run_id / git / hostname /
  /// cores / build flags.  Entry points stamp config_hash, seed and kernel.
  static RunManifest& current();

  /// Stamp config_hash (CRC-32 of `config_json`) and the seed.
  void set_config(std::string_view config_json, std::uint64_t config_seed);

  std::string to_json() const;
};

class RunStatus {
 public:
  static RunStatus& global();

  /// `phase` must be a string literal (stored by pointer, read by /runz).
  void set_phase(const char* phase) {
    phase_.store(phase, std::memory_order_relaxed);
  }
  void set_epoch(int epoch) {
    epoch_.store(epoch, std::memory_order_relaxed);
  }

  const char* phase() const { return phase_.load(std::memory_order_relaxed); }
  int epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Attach a callback whose pre-rendered JSON object is embedded as the
  /// "detail" key of to_json() — the campaign supervisor uses it to fold
  /// per-worker lease/progress state into /runz.  Pass nullptr (or an empty
  /// function) to detach.  The provider must return a complete JSON value;
  /// it is invoked outside the registration lock, so it may itself take
  /// locks (but must not call back into RunStatus).
  void set_detail_provider(std::function<std::string()> provider);

  /// {"phase":"fit","epoch":3,"detail":{...},"manifest":{...}}
  std::string to_json() const;

 private:
  std::atomic<const char*> phase_{"idle"};
  std::atomic<int> epoch_{0};
  mutable std::mutex detail_mutex_;  ///< guards detail_
  std::function<std::string()> detail_;
};

}  // namespace mldist::obs
