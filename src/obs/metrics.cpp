#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/json.hpp"

namespace mldist::obs {

namespace {

constexpr int kKindCounter = 0;
constexpr int kKindGauge = 1;
constexpr int kKindHistogram = 2;

const char* kind_name(int kind) {
  switch (kind) {
    case kKindCounter: return "counter";
    case kKindGauge: return "gauge";
    default: return "histogram";
  }
}

}  // namespace

/// RAII owner of one thread's shard: created on the thread's first record,
/// retires the shard (merge into the retained totals, free the memory) when
/// the thread exits.  The registry singleton is never destroyed, so it
/// outlives every handle, including those of threads joined during static
/// destruction.  Defined at namespace scope so the friend declaration in
/// the header can name it.
struct ShardHandle {
  MetricsRegistry::Shard* shard = nullptr;

  MetricsRegistry::Shard* get() {
    if (shard == nullptr) {
      MetricsRegistry& reg = MetricsRegistry::global();
      auto owned = new MetricsRegistry::Shard();
      {
        std::lock_guard<std::mutex> lock(reg.mutex_);
        reg.shards_.push_back(owned);
      }
      shard = owned;
    }
    return shard;
  }

  ~ShardHandle() {
    if (shard != nullptr) MetricsRegistry::global().retire(shard);
  }
};

namespace {
ShardHandle& local_handle() {
  thread_local ShardHandle handle;
  return handle;
}
}  // namespace

MetricsRegistry::MetricsRegistry() = default;

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::global() {
  // Intentionally leaked, like util::ThreadPool::global() and obs::Logger:
  // a thread joined by a static built before the registry (so destroyed
  // after it) still retires its shard here when it exits.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

MetricId MetricsRegistry::register_metric(std::string_view name, int kind,
                                          std::size_t cap) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [known, entry] : directory_) {
    if (known == name) {
      if (entry.first != kind) {
        throw std::invalid_argument("obs: metric '" + std::string(name) +
                                    "' already registered as a " +
                                    kind_name(entry.first));
      }
      return entry.second;
    }
  }
  auto& names = names_[static_cast<std::size_t>(kind)];
  if (names.size() >= cap) {
    throw std::length_error(std::string("obs: ") + kind_name(kind) +
                            " capacity exhausted registering '" +
                            std::string(name) + "'");
  }
  const MetricId id = names.size();
  names.emplace_back(name);
  directory_.emplace_back(std::string(name), std::make_pair(kind, id));
  return id;
}

MetricId MetricsRegistry::counter(std::string_view name) {
  return register_metric(name, kKindCounter, kMaxCounters);
}

MetricId MetricsRegistry::gauge(std::string_view name) {
  return register_metric(name, kKindGauge, kMaxGauges);
}

MetricId MetricsRegistry::histogram(std::string_view name) {
  return register_metric(name, kKindHistogram, kMaxHistograms);
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  return *local_handle().get();
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) {
  local_shard().counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::observe(MetricId id, std::uint64_t value) {
  HistCells& h = local_shard().hists[id];
  // Single-writer cells: the owning thread is the only mutator, so
  // load-modify-store (rather than CAS loops) is race-free; atomics are for
  // the concurrent snapshot() reader.
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  if (value < h.min.load(std::memory_order_relaxed)) {
    h.min.store(value, std::memory_order_relaxed);
  }
  if (value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_relaxed);
  }
  const std::size_t bucket = static_cast<std::size_t>(std::bit_width(value));
  h.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::merge_histogram(MetricId id,
                                      const HistogramSnapshot& delta) {
  if (delta.count == 0) return;
  HistCells& h = local_shard().hists[id];
  h.count.fetch_add(delta.count, std::memory_order_relaxed);
  h.sum.fetch_add(delta.sum, std::memory_order_relaxed);
  if (delta.min < h.min.load(std::memory_order_relaxed)) {
    h.min.store(delta.min, std::memory_order_relaxed);
  }
  if (delta.max > h.max.load(std::memory_order_relaxed)) {
    h.max.store(delta.max, std::memory_order_relaxed);
  }
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    if (delta.buckets[b] != 0) {
      h.buckets[b].fetch_add(delta.buckets[b], std::memory_order_relaxed);
    }
  }
}

void MetricsRegistry::set_gauge(MetricId id, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[id].value = value;
  gauges_[id].set = true;
}

void MetricsRegistry::retire(Shard* shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  merge_into_retired(*shard);
  shards_.erase(std::remove(shards_.begin(), shards_.end(), shard),
                shards_.end());
  delete shard;
}

void MetricsRegistry::merge_into_retired(const Shard& shard) {
  for (std::size_t i = 0; i < kMaxCounters; ++i) {
    const std::uint64_t v = shard.counters[i].load(std::memory_order_relaxed);
    if (v != 0) retired_.counters[i].fetch_add(v, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kMaxHistograms; ++i) {
    const HistCells& src = shard.hists[i];
    HistCells& dst = retired_.hists[i];
    const std::uint64_t count = src.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    dst.count.fetch_add(count, std::memory_order_relaxed);
    dst.sum.fetch_add(src.sum.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    const std::uint64_t mn = src.min.load(std::memory_order_relaxed);
    if (mn < dst.min.load(std::memory_order_relaxed)) {
      dst.min.store(mn, std::memory_order_relaxed);
    }
    const std::uint64_t mx = src.max.load(std::memory_order_relaxed);
    if (mx > dst.max.load(std::memory_order_relaxed)) {
      dst.max.store(mx, std::memory_order_relaxed);
    }
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t n = src.buckets[b].load(std::memory_order_relaxed);
      if (n != 0) dst.buckets[b].fetch_add(n, std::memory_order_relaxed);
    }
  }
}

void MetricsRegistry::merge_shard_locked(const Shard& shard,
                                         MetricsSnapshot& into) const {
  for (std::size_t i = 0; i < into.counters.size(); ++i) {
    into.counters[i].second +=
        shard.counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < into.histograms.size(); ++i) {
    const HistCells& src = shard.hists[i];
    HistogramSnapshot& dst = into.histograms[i].second;
    const std::uint64_t count = src.count.load(std::memory_order_relaxed);
    if (count == 0) continue;
    const std::uint64_t mn = src.min.load(std::memory_order_relaxed);
    const std::uint64_t mx = src.max.load(std::memory_order_relaxed);
    if (dst.count == 0 || mn < dst.min) dst.min = mn;
    if (mx > dst.max) dst.max = mx;
    dst.count += count;
    dst.sum += src.sum.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      dst.buckets[b] += src.buckets[b].load(std::memory_order_relaxed);
    }
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto& counter_names = names_[kKindCounter];
  const auto& gauge_names = names_[kKindGauge];
  const auto& hist_names = names_[kKindHistogram];
  out.counters.reserve(counter_names.size());
  for (const auto& n : counter_names) out.counters.emplace_back(n, 0);
  out.histograms.reserve(hist_names.size());
  for (const auto& n : hist_names) {
    out.histograms.emplace_back(n, HistogramSnapshot{});
  }
  for (std::size_t i = 0; i < gauge_names.size(); ++i) {
    if (gauges_[i].set) out.gauges.emplace_back(gauge_names[i], gauges_[i].value);
  }
  merge_shard_locked(retired_, out);
  for (const Shard* shard : shards_) merge_shard_locked(*shard, out);
  for (auto& [name, hist] : out.histograms) {
    if (hist.count == 0) hist.min = 0;
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  const MetricsSnapshot snap = snapshot();
  return snap.counter(name);
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto zero_shard = [](Shard& shard) {
    for (auto& c : shard.counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : shard.hists) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.min.store(~0ULL, std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  };
  zero_shard(retired_);
  for (Shard* shard : shards_) zero_shard(*shard);
  for (auto& g : gauges_) g = GaugeCell{};
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  if (q <= 0.0) return min;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation, 1-based; ceil without FP edge cases on
  // exact products (q * count can land exactly on an integer).
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    cum += buckets[b];
    if (cum >= rank) {
      // Upper edge of bucket b: 0 for the zero bucket, 2^b - 1 otherwise.
      std::uint64_t upper = 0;
      if (b >= 64) upper = ~0ULL;
      else if (b >= 1) upper = (1ULL << b) - 1;
      if (upper > max) upper = max;
      if (upper < min) upper = min;
      return upper;
    }
  }
  return max;  // unreachable when bucket counts sum to `count`
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::string MetricsSnapshot::to_json() const {
  util::JsonBuilder counters_j;
  for (const auto& [name, value] : counters) counters_j.field(name, value);
  util::JsonBuilder gauges_j;
  for (const auto& [name, value] : gauges) gauges_j.field(name, value);
  util::JsonBuilder hists_j;
  for (const auto& [name, hist] : histograms) {
    util::JsonBuilder h;
    h.field("count", hist.count)
        .field("sum", hist.sum)
        .field("min", hist.min)
        .field("max", hist.max)
        .field("mean", hist.mean())
        .field("p50", hist.p50())
        .field("p90", hist.p90())
        .field("p99", hist.p99());
    // Sparse bucket rendering: [[bit_width, count], ...] for non-empty
    // buckets only, so idle histograms cost a few bytes, not 65 zeros.
    std::vector<std::string> buckets;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (hist.buckets[b] != 0) {
        buckets.push_back("[" + std::to_string(b) + "," +
                          std::to_string(hist.buckets[b]) + "]");
      }
    }
    h.raw("buckets", util::JsonBuilder::array(buckets));
    hists_j.raw(name, h.str());
  }
  util::JsonBuilder j;
  j.raw("counters", counters_j.str())
      .raw("gauges", gauges_j.str())
      .raw("histograms", hists_j.str());
  return j.str();
}

void count(std::string_view name, std::uint64_t delta) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.add(reg.counter(name), delta);
}

void observe_seconds(std::string_view name, double seconds) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const double ns = seconds * 1e9;
  const std::uint64_t clamped =
      ns <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(ns));
  reg.observe(reg.histogram(name), clamped);
}

}  // namespace mldist::obs
