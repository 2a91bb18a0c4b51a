#include "obs/ship.hpp"

#include <exception>
#include <vector>

namespace mldist::obs {

namespace {

constexpr char kRec = '\x1e';    // between metric records
constexpr char kField = '\x1f';  // between fields of one record

std::string u64(std::uint64_t v) { return std::to_string(v); }

/// Strict decimal u64 parse of a whole field; false on junk.
bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~0ULL - digit) / 10) return false;  // overflow
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// The shipped value for `name` in a sorted name->value list; 0 if absent.
template <typename T>
const T* find_sorted(const std::vector<std::pair<std::string, T>>& entries,
                     const std::string& name) {
  // Both snapshot vectors are sorted by name; a linear merge in the caller
  // would also work, but the lists are small (hundreds at most) and lookup
  // keeps the encoding logic readable.
  for (const auto& [n, v] : entries) {
    if (n == name) return &v;
  }
  return nullptr;
}

void append_record(std::string& out, const std::string& record) {
  if (!out.empty()) out += kRec;
  out += record;
}

/// Decode one record (no 0x1e inside) into `d`; false when malformed.
bool decode_record(std::string_view rec, MetricDelta& d) {
  const std::vector<std::string_view> f = split(rec, kField);
  if (f.size() < 3 || f[0].size() != 1 || f[1].empty()) return false;
  d.name = f[1];
  switch (f[0][0]) {
    case 'C':
      d.kind = MetricDelta::Kind::kCounter;
      return f.size() == 3 && parse_u64(f[2], d.value);
    case 'G':
      d.kind = MetricDelta::Kind::kGauge;
      return f.size() == 3 && parse_u64(f[2], d.value);
    case 'H':
      d.kind = MetricDelta::Kind::kHistogram;
      break;
    default:
      return false;
  }
  if (f.size() != 7 || !parse_u64(f[2], d.value) || !parse_u64(f[3], d.sum) ||
      !parse_u64(f[4], d.min) || !parse_u64(f[5], d.max)) {
    return false;
  }
  const std::vector<std::string_view> pairs = split(f[6], ';');
  d.buckets.reserve(pairs.size());
  for (std::string_view pair : pairs) {
    if (pair.empty()) continue;
    const std::size_t colon = pair.find(':');
    std::uint64_t bucket = 0;
    std::uint64_t n = 0;
    if (colon == std::string_view::npos ||
        !parse_u64(pair.substr(0, colon), bucket) ||
        !parse_u64(pair.substr(colon + 1), n) || bucket >= kHistogramBuckets) {
      return false;
    }
    d.buckets.emplace_back(bucket, n);
  }
  return true;
}

}  // namespace

std::string encode_metrics_delta(const MetricsSnapshot& prev,
                                 const MetricsSnapshot& cur) {
  std::string out;

  for (const auto& [name, value] : cur.counters) {
    const std::uint64_t* old = find_sorted(prev.counters, name);
    const std::uint64_t base = old != nullptr ? *old : 0;
    if (value <= base) continue;  // unchanged (or reset mid-flight: skip)
    std::string rec = "C";
    rec += kField;
    rec += name;
    rec += kField;
    rec += u64(value - base);
    append_record(out, rec);
  }

  for (const auto& [name, value] : cur.gauges) {
    const std::uint64_t* old = find_sorted(prev.gauges, name);
    if (old != nullptr && *old == value) continue;
    std::string rec = "G";
    rec += kField;
    rec += name;
    rec += kField;
    rec += u64(value);
    append_record(out, rec);
  }

  for (const auto& [name, hist] : cur.histograms) {
    const HistogramSnapshot* old = find_sorted(prev.histograms, name);
    const std::uint64_t base_count = old != nullptr ? old->count : 0;
    const std::uint64_t base_sum = old != nullptr ? old->sum : 0;
    if (hist.count <= base_count) continue;
    std::string rec = "H";
    rec += kField;
    rec += name;
    rec += kField;
    rec += u64(hist.count - base_count);
    rec += kField;
    rec += u64(hist.sum - base_sum);
    rec += kField;
    rec += u64(hist.min);  // cumulative: folds by min on the receiver
    rec += kField;
    rec += u64(hist.max);  // cumulative: folds by max
    rec += kField;
    std::string buckets;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t was =
          old != nullptr ? old->buckets[b] : 0;
      if (hist.buckets[b] <= was) continue;
      if (!buckets.empty()) buckets += ';';
      buckets += u64(b) + ":" + u64(hist.buckets[b] - was);
    }
    rec += buckets;
    append_record(out, rec);
  }

  return out;
}

bool decode_metrics_delta(std::string_view line,
                          std::vector<MetricDelta>& out) {
  bool ok = true;
  for (std::string_view rec : split(line, kRec)) {
    if (rec.empty()) continue;
    MetricDelta d;
    if (!decode_record(rec, d)) {
      ok = false;
    } else if (d.kind != MetricDelta::Kind::kHistogram || d.value > 0) {
      out.push_back(std::move(d));
    }
  }
  return ok;
}

bool apply_metrics_delta(std::string_view line, const std::string& prefix) {
  std::vector<MetricDelta> deltas;
  bool ok = decode_metrics_delta(line, deltas);
  MetricsRegistry& reg = MetricsRegistry::global();
  std::string name;
  for (const MetricDelta& d : deltas) {
    name.assign(prefix).append(d.name);
    try {
      switch (d.kind) {
        case MetricDelta::Kind::kCounter:
          reg.add(reg.counter(name), d.value);
          break;
        case MetricDelta::Kind::kGauge:
          reg.set_gauge(reg.gauge(name), d.value);
          break;
        case MetricDelta::Kind::kHistogram: {
          HistogramSnapshot h;
          h.count = d.value;
          h.sum = d.sum;
          h.min = d.min;
          h.max = d.max;
          for (const auto& [bucket, n] : d.buckets) h.buckets[bucket] = n;
          reg.merge_histogram(reg.histogram(name), h);
          break;
        }
      }
    } catch (const std::exception&) {
      // Registry capacity exhausted or a kind collision on the prefixed
      // name: drop this record, keep folding the rest.
      ok = false;
    }
  }
  return ok;
}

}  // namespace mldist::obs
