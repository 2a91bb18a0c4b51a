#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "util/json.hpp"

namespace mldist::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Microseconds with sub-ns kept as decimals, the unit trace viewers expect.
std::string us_string(std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  return buf;
}

}  // namespace

/// RAII owner of one thread's event buffer (same lifecycle as the metrics
/// shards): registered on first record, spliced into the tracer's retained
/// list when the thread exits.
struct Tracer::BufHandle {
  ThreadBuf* buf = nullptr;

  ThreadBuf* get() {
    if (buf == nullptr) {
      Tracer& tracer = Tracer::global();
      auto owned = new ThreadBuf();
      {
        std::lock_guard<std::mutex> lock(tracer.mutex_);
        owned->tid = tracer.next_tid_++;
        tracer.bufs_.push_back(owned);
      }
      buf = owned;
    }
    return buf;
  }

  ~BufHandle() {
    if (buf != nullptr) Tracer::global().retire(buf);
  }
};

Tracer::Tracer() : epoch_ns_(steady_ns()) {
  if (const char* env = std::getenv("MLDIST_TRACE");
      env != nullptr && env[0] != '\0') {
    enable(env);
  }
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

void Tracer::enable(std::string path) {
  std::lock_guard<std::mutex> lock(mutex_);
  path_ = std::move(path);
  if (!atexit_installed_) {
    atexit_installed_ = true;
    // A traced run always leaves a readable artifact even when the caller
    // forgets (or an exception skips) the explicit flush.
    std::atexit([] {
      std::string error;
      Tracer& tracer = Tracer::global();
      if (!tracer.path().empty() && !tracer.flush(&error)) {
        log_error("obs.trace", "trace flush failed: " + error);
      }
    });
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

std::string Tracer::path() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return path_;
}

Tracer::ThreadBuf& Tracer::local_buf() {
  thread_local BufHandle handle;
  return *handle.get();
}

void Tracer::retire(ThreadBuf* buf) {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_.insert(retired_.end(), std::make_move_iterator(buf->events.begin()),
                  std::make_move_iterator(buf->events.end()));
  bufs_.erase(std::remove(bufs_.begin(), bufs_.end(), buf), bufs_.end());
  delete buf;
}

void Tracer::record(Event&& event) {
  ThreadBuf& buf = local_buf();
  event.tid = buf.tid;
  // The buffer mutex is only ever contended by flush(); recording threads
  // each lock their own.
  std::lock_guard<std::mutex> lock(buf.mutex);
  if (buf.events.size() >= kMaxEventsPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(std::move(event));
}

bool Tracer::flush(std::string* error) {
  std::vector<Event> events;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (path_.empty()) {
      if (error != nullptr) *error = "trace flush: no output path configured";
      return false;
    }
    path = path_;
    events = retired_;
    for (ThreadBuf* buf : bufs_) {
      std::lock_guard<std::mutex> buf_lock(buf->mutex);
      events.insert(events.end(), buf->events.begin(), buf->events.end());
    }
  }
  // Deterministic file order for a given event set: begin time, then tid.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns
                                               : a.tid < b.tid;
                   });

  std::vector<std::string> rows;
  rows.reserve(events.size() + 1);
  {
    util::JsonBuilder meta;
    meta.field("name", "process_name").field("ph", "M").field("pid", 1);
    util::JsonBuilder meta_args;
    meta_args.field("name", "mldist");
    meta.raw("args", meta_args.str());
    rows.push_back(meta.str());
  }
  for (const Event& ev : events) {
    util::JsonBuilder j;
    j.field("name", ev.name)
        .field("cat", ev.cat)
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", static_cast<std::uint64_t>(ev.tid))
        .raw("ts", us_string(ev.ts_ns))
        .raw("dur", us_string(ev.dur_ns));
    if (!ev.args.empty()) j.raw("args", "{" + ev.args + "}");
    rows.push_back(j.str());
  }

  util::JsonBuilder other;
  // trace_epoch_ns: absolute CLOCK_MONOTONIC time of this tracer's ts=0.
  // The steady clock's epoch is shared by every process on the host, so a
  // trace merger (obs/trace_merge.hpp) can place several processes' lanes
  // on one common timeline by offsetting each file's ts by the difference
  // of the epochs.
  other.field("dropped_events", dropped())
      .field("trace_epoch_ns", epoch_ns_)
      .raw("manifest", RunManifest::current().to_json());
  util::JsonBuilder doc;
  doc.raw("traceEvents", util::JsonBuilder::array(rows))
      .field("displayTimeUnit", "ms")
      .raw("otherData", other.str());
  const util::WriteResult written = util::write_json_file(path, doc.str());
  if (!written && error != nullptr) *error = written.error;
  return static_cast<bool>(written);
}

// --- Span ------------------------------------------------------------------

void Span::begin(const std::string& name, const char* cat) {
  active_ = true;
  name_ = name;
  cat_ = cat;
  begin_ns_ = Tracer::global().now_ns();
}

Span::~Span() {
  if (!active_) return;
  Tracer& tracer = Tracer::global();
  Tracer::Event ev;
  ev.name = std::move(name_);
  ev.cat = cat_;
  ev.ts_ns = begin_ns_;
  const std::uint64_t end_ns = tracer.now_ns();
  ev.dur_ns = end_ns > begin_ns_ ? end_ns - begin_ns_ : 0;
  ev.args = std::move(args_);
  tracer.record(std::move(ev));
}

void Span::append_key(const char* key) {
  if (!args_.empty()) args_ += ",";
  args_ += util::JsonBuilder::quote(key) + ":";
}

Span& Span::arg(const char* key, std::uint64_t value) {
  if (!active_) return *this;
  append_key(key);
  args_ += std::to_string(value);
  return *this;
}

Span& Span::arg(const char* key, std::int64_t value) {
  if (!active_) return *this;
  append_key(key);
  args_ += std::to_string(value);
  return *this;
}

Span& Span::arg(const char* key, double value) {
  if (!active_) return *this;
  append_key(key);
  args_ += util::JsonBuilder::number(value);
  return *this;
}

Span& Span::arg(const char* key, const std::string& value) {
  if (!active_) return *this;
  append_key(key);
  args_ += util::JsonBuilder::quote(value);
  return *this;
}

Span& Span::arg(const char* key, const char* value) {
  return arg(key, std::string(value));
}

}  // namespace mldist::obs
