#include "obs/log.hpp"

#include <chrono>
#include <cstdlib>

#include "util/json.hpp"

namespace mldist::obs {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<std::uint32_t> next_log_tid{1};

}  // namespace

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "unknown";
}

bool parse_level(std::string_view name, LogLevel& out) {
  if (name == "debug") out = LogLevel::kDebug;
  else if (name == "info") out = LogLevel::kInfo;
  else if (name == "warn") out = LogLevel::kWarn;
  else if (name == "error") out = LogLevel::kError;
  else if (name == "off") out = LogLevel::kOff;
  else return false;
  return true;
}

Logger::Logger() : epoch_ns_(steady_ns()) {
  for (std::size_t i = 0; i < kRingSize; ++i) {
    ring_[i].seq.store(i, std::memory_order_relaxed);
  }
  if (const char* env = std::getenv("MLDIST_LOG_LEVEL");
      env != nullptr && env[0] != '\0') {
    LogLevel lvl;
    if (parse_level(env, lvl)) {
      set_level(lvl);
    } else {
      std::fprintf(stderr,
                   "[obs] MLDIST_LOG_LEVEL=%s is not a known level "
                   "(debug|info|warn|error|off); using info\n",
                   env);
    }
  }
  if (const char* env = std::getenv("MLDIST_LOG_FILE");
      env != nullptr && env[0] != '\0') {
    std::string error;
    if (!set_file(env, &error)) {
      std::fprintf(stderr, "[obs] MLDIST_LOG_FILE: %s\n", error.c_str());
    }
  }
  // A process that logged anything leaves a drained sink even when nobody
  // called flush() — mirrors the tracer's atexit contract.
  std::atexit([] { Logger::global().flush(); });
}

Logger::~Logger() = default;

Logger& Logger::global() {
  // Intentionally leaked: the atexit flush registered by the constructor
  // (and any logging from other statics' destructors) must outlive every
  // destruction order the runtime might pick.  The OS closes the sink fd;
  // the atexit drain has already flushed it.
  static Logger* logger = new Logger();
  return *logger;
}

std::uint64_t Logger::now_ns() const { return steady_ns() - epoch_ns_; }

std::uint32_t Logger::thread_id() {
  thread_local std::uint32_t tid =
      next_log_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

bool Logger::set_file(const std::string& path, std::string* error) {
  std::FILE* opened = nullptr;
  if (!path.empty()) {
    opened = std::fopen(path.c_str(), "a");
    if (opened == nullptr) {
      if (error != nullptr) {
        *error = "cannot open log file '" + path + "' for append";
      }
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(sink_mutex_);
  if (sink_ != nullptr) std::fclose(sink_);
  sink_ = opened;
  path_ = path;
  return true;
}

std::string Logger::file_path() const {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  return path_;
}

void Logger::publish(std::string&& line, bool urgent) {
  // Vyukov bounded MPMC enqueue: claim a slot whose sequence equals the
  // head position, write the payload, publish by bumping the sequence.
  std::size_t pos = head_.load(std::memory_order_relaxed);
  for (;;) {
    Slot& slot = ring_[pos & (kRingSize - 1)];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    const std::intptr_t diff = static_cast<std::intptr_t>(seq) -
                               static_cast<std::intptr_t>(pos);
    if (diff == 0) {
      if (head_.compare_exchange_weak(pos, pos + 1,
                                      std::memory_order_relaxed)) {
        slot.line = std::move(line);
        slot.seq.store(pos + 1, std::memory_order_release);
        break;
      }
    } else if (diff < 0) {
      // Ring full (consumer is kRingSize behind): drop, never block the
      // recording thread on sink I/O.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    } else {
      pos = head_.load(std::memory_order_relaxed);
    }
  }
  if (urgent) {
    flush();
  } else if (sink_mutex_.try_lock()) {
    drain_locked();
    sink_mutex_.unlock();
  }
}

void Logger::flush() {
  std::lock_guard<std::mutex> lock(sink_mutex_);
  drain_locked();
}

void Logger::signal_drain() noexcept {
  if (!sink_mutex_.try_lock()) return;
  try {
    drain_locked();
  } catch (...) {
    // fwrite/fflush do not throw; swallow anything exotic — a signal
    // handler must not let an exception escape.
  }
  sink_mutex_.unlock();
}

void Logger::drain_locked() {
  std::FILE* out = sink_ != nullptr ? sink_ : stderr;
  bool wrote = false;
  for (;;) {
    Slot& slot = ring_[tail_ & (kRingSize - 1)];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(tail_ + 1) <
        0) {
      break;  // next slot not yet published
    }
    std::fwrite(slot.line.data(), 1, slot.line.size(), out);
    std::fputc('\n', out);
    slot.line.clear();
    slot.line.shrink_to_fit();
    // Mark the slot free for the producer one lap ahead.
    slot.seq.store(tail_ + kRingSize, std::memory_order_release);
    ++tail_;
    wrote = true;
  }
  if (wrote) std::fflush(out);
}

// --- LogRecord -------------------------------------------------------------

LogRecord::LogRecord(LogLevel level, const char* component,
                     std::string_view message) {
  Logger& logger = Logger::global();
  if (level == LogLevel::kOff || !logger.enabled(level)) return;
  active_ = true;
  urgent_ = level >= LogLevel::kWarn;
  body_ = "{\"ts_ns\":" + std::to_string(logger.now_ns()) +
          ",\"level\":" + util::JsonBuilder::quote(level_name(level)) +
          ",\"tid\":" + std::to_string(Logger::thread_id()) +
          ",\"component\":" + util::JsonBuilder::quote(component) +
          ",\"msg\":" + util::JsonBuilder::quote(std::string(message));
}

LogRecord::LogRecord(LogRecord&& other) noexcept
    : active_(other.active_),
      urgent_(other.urgent_),
      body_(std::move(other.body_)) {
  other.active_ = false;
}

LogRecord::~LogRecord() {
  if (!active_) return;
  body_ += "}";
  Logger::global().publish(std::move(body_), urgent_);
}

LogRecord& LogRecord::field(const char* key, std::uint64_t value) {
  if (!active_) return *this;
  body_ += "," + util::JsonBuilder::quote(key) + ":" + std::to_string(value);
  return *this;
}

LogRecord& LogRecord::field(const char* key, std::int64_t value) {
  if (!active_) return *this;
  body_ += "," + util::JsonBuilder::quote(key) + ":" + std::to_string(value);
  return *this;
}

LogRecord& LogRecord::field(const char* key, double value) {
  if (!active_) return *this;
  body_ += "," + util::JsonBuilder::quote(key) + ":" +
           util::JsonBuilder::number(value);
  return *this;
}

LogRecord& LogRecord::field(const char* key, std::string_view value) {
  if (!active_) return *this;
  body_ += "," + util::JsonBuilder::quote(key) + ":" +
           util::JsonBuilder::quote(std::string(value));
  return *this;
}

LogRecord log_debug(const char* component, std::string_view message) {
  return LogRecord(LogLevel::kDebug, component, message);
}
LogRecord log_info(const char* component, std::string_view message) {
  return LogRecord(LogLevel::kInfo, component, message);
}
LogRecord log_warn(const char* component, std::string_view message) {
  return LogRecord(LogLevel::kWarn, component, message);
}
LogRecord log_error(const char* component, std::string_view message) {
  return LogRecord(LogLevel::kError, component, message);
}

}  // namespace mldist::obs
