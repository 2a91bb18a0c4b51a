// Scoped-span tracer emitting Chrome trace_event JSON.
//
// A Span records {name, category, thread, begin, duration, attributes} into
// the current thread's buffer when tracing is enabled, and costs one relaxed
// atomic load when it is not — instrumentation stays compiled in everywhere
// (kernels, nn, core) because the disabled path is negligible (asserted by
// bench_obs_overhead and the obs test label).
//
// Enabling: set the MLDIST_TRACE environment variable to the output path,
// or pass --trace <file> to mldist_cli / any bench (they call
// Tracer::global().enable(path)).  enable() installs an atexit flush, so a
// traced process always leaves a readable file; flush() can also be called
// explicitly (it is idempotent — the full event list is rewritten).
//
// Buffering: per-thread vectors guarded by a per-thread mutex that is only
// contended during flush, so recording never serialises workers against
// each other.  A thread that exits splices its events into the tracer's
// retained list (a stopped daemon's threads, test threads).  Each thread
// buffers at most kMaxEventsPerThread events; further events are counted
// as dropped, never silently lost (the count lands in the trace file's
// otherData).
//
// Output schema (the "JSON Object Format" of the Chrome trace_event spec —
// load it at chrome://tracing or https://ui.perfetto.dev):
//   {"traceEvents":[
//      {"name":"process_name","ph":"M","pid":1,"args":{"name":"mldist"}},
//      {"name":"fit.epoch","cat":"nn","ph":"X","pid":1,"tid":2,
//       "ts":12.345,"dur":6789.0,"args":{"epoch":1}},
//      ...],
//    "displayTimeUnit":"ms",
//    "otherData":{"dropped_events":0,"manifest":{...}}}
// (otherData.manifest is the obs::RunManifest provenance block every
// artifact carries.)
// "X" (complete) events carry ts/dur in microseconds; tid is a small
// sequential id assigned per recording thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mldist::obs {

class Tracer {
 public:
  static Tracer& global();

  /// One relaxed load; the only cost instrumented code pays when disabled.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Start recording, targeting `path` for flush.  Installs an atexit
  /// flush on first use.  Enabling while already enabled just retargets.
  void enable(std::string path);
  /// Stop recording (already-buffered events are kept for flush).
  void disable();

  /// Write every buffered event to the configured path as one atomic file
  /// replace.  Returns false and fills `error` on I/O failure or when no
  /// path was ever configured.  Events are kept, so repeated flushes (for
  /// example the explicit CLI flush followed by the atexit one) are safe.
  bool flush(std::string* error = nullptr);

  std::string path() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the tracer singleton was constructed (steady clock).
  std::uint64_t now_ns() const;

  /// The absolute steady-clock time of this tracer's ts=0, as written into
  /// the trace file's otherData.trace_epoch_ns (cross-process alignment key
  /// for obs/trace_merge.hpp).
  std::uint64_t epoch_ns() const { return epoch_ns_; }

  /// One finished span; used by Span's destructor, not call sites.
  struct Event {
    std::string name;
    const char* cat = "";
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t tid = 0;
    std::string args;  ///< pre-rendered JSON object body ("" = no args)
  };
  void record(Event&& event);

  static constexpr std::size_t kMaxEventsPerThread = 1u << 20;

 private:
  struct ThreadBuf {
    std::mutex mutex;
    std::vector<Event> events;
    std::uint32_t tid = 0;
  };
  struct BufHandle;

  Tracer();

  ThreadBuf& local_buf();
  void retire(ThreadBuf* buf);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::string path_;
  std::vector<ThreadBuf*> bufs_;      ///< live recording threads
  std::vector<Event> retired_;        ///< events of exited threads
  std::uint32_t next_tid_ = 1;        ///< 0 is reserved for metadata rows
  bool atexit_installed_ = false;
  std::uint64_t epoch_ns_ = 0;        ///< steady_clock at construction
};

/// RAII span: begin at construction, end (and record) at destruction.
/// When tracing is disabled construction and destruction are no-ops.
class Span {
 public:
  /// `cat` must be a string literal (stored by pointer); `name` is copied
  /// only when tracing is enabled.
  Span(const std::string& name, const char* cat) {
    if (Tracer::global().enabled()) begin(name, cat);
  }
  Span(const char* name, const char* cat) {
    if (Tracer::global().enabled()) begin(name, cat);
  }
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }

  /// Attach an attribute (rendered into the event's "args" object).  No-ops
  /// when the span is inactive, so call sites need no enabled() checks.
  Span& arg(const char* key, std::uint64_t value);
  Span& arg(const char* key, std::int64_t value);
  Span& arg(const char* key, int value) {
    return arg(key, static_cast<std::int64_t>(value));
  }
  Span& arg(const char* key, double value);
  Span& arg(const char* key, const std::string& value);
  Span& arg(const char* key, const char* value);

 private:
  void begin(const std::string& name, const char* cat);
  void append_key(const char* key);

  bool active_ = false;
  const char* cat_ = "";
  std::uint64_t begin_ns_ = 0;
  std::string name_;
  std::string args_;
};

// Anonymous scoped span: MLDIST_SPAN("collect.chunk", "core");
#define MLDIST_OBS_CONCAT_INNER(a, b) a##b
#define MLDIST_OBS_CONCAT(a, b) MLDIST_OBS_CONCAT_INNER(a, b)
#define MLDIST_SPAN(name, cat) \
  ::mldist::obs::Span MLDIST_OBS_CONCAT(mldist_span_, __LINE__)(name, cat)

}  // namespace mldist::obs
