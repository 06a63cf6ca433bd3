#include "obs/metrics.h"

#include <algorithm>

namespace tripriv {
namespace obs {
namespace {

bool IsLowerAlpha(char c) { return c >= 'a' && c <= 'z'; }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool ValidMetricOrKeyName(const std::string& name, size_t max_len) {
  if (name.empty() || name.size() > max_len) return false;
  if (!IsLowerAlpha(name[0]) && name[0] != '_') return false;
  for (char c : name) {
    if (!IsLowerAlpha(c) && !IsDigit(c) && c != '_') return false;
  }
  return true;
}

/// The data-shaped-string gate: label values must be short lowercase
/// identifiers. Predicate strings (operators, spaces, uppercase), record
/// values (arbitrary charset), and rendered fingerprints (all digits) all
/// fail here even before the membership check.
bool ValidLabelValue(const std::string& value) {
  if (value.empty() || value.size() > 48) return false;
  bool all_digits = true;
  for (char c : value) {
    const bool ok = IsLowerAlpha(c) || IsDigit(c) || c == '_' || c == '.' ||
                    c == ':' || c == '-';
    if (!ok) return false;
    if (!IsDigit(c)) all_digits = false;
  }
  return !all_digits;
}

std::string SeriesKey(const std::string& name, const LabelSet& labels) {
  std::string key = name;
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

}  // namespace

// ---------------------------------------------------------------------------
// LabelAllowlist

LabelAllowlist LabelAllowlist::Default() {
  LabelAllowlist list;
  struct KeyValues {
    const char* key;
    std::vector<const char*> values;
  };
  static const KeyValues kDefaults[] = {
      {"tier", {"protected", "dp_degraded", "refused"}},
      {"dimension", {"respondent", "owner", "user"}},
      {"backend", {"primary", "dp", "aggregate", "pir"}},
      {"principal", {"degraded_path"}},
      {"method",
       {"mdav", "mondrian", "condense", "noise", "rankswap", "datafly",
        "samarati"}},
      {"state", {"closed", "open", "half_open"}},
      {"result", {"ok", "error"}},
      // Tenant classes are coarse service tiers; the allowlist is exactly
      // why a principal id can never ride this key.
      {"class",
       {"interactive", "batch", "analytics", "abusive", "unattributed"}},
      {"reason", {"queue_full", "overload", "deadline"}},
  };
  for (const KeyValues& kv : kDefaults) {
    IgnoreError(list.AllowKey(kv.key));
    for (const char* v : kv.values) IgnoreError(list.AllowValue(kv.key, v));
  }
  return list;
}

Status LabelAllowlist::AllowKey(const std::string& key) {
  if (!ValidMetricOrKeyName(key, 32)) {
    return Status::InvalidArgument("label key '" + key +
                                   "' is not a short [a-z0-9_] identifier");
  }
  allowed_[key];  // creates the (possibly empty) value set
  return Status::OK();
}

Status LabelAllowlist::AllowValue(const std::string& key,
                                  const std::string& value) {
  auto it = allowed_.find(key);
  if (it == allowed_.end()) {
    return Status::InvalidArgument("label key '" + key +
                                   "' is not in the allowlist");
  }
  if (!ValidLabelValue(value)) {
    return Status::InvalidArgument(
        "label value for key '" + key +
        "' is data-shaped (wrong charset, too long, or all digits) and may "
        "not become a metric label");
  }
  it->second.insert(value);
  return Status::OK();
}

Status LabelAllowlist::Validate(const LabelSet& labels) const {
  for (const auto& [key, value] : labels) {
    auto it = allowed_.find(key);
    if (it == allowed_.end()) {
      return Status::InvalidArgument("label key '" + key +
                                     "' is not in the allowlist");
    }
    if (it->second.count(value) == 0) {
      // Deliberately does NOT echo the value: a rejected value is exactly
      // the string that must not reach any output channel.
      return Status::InvalidArgument("label value for key '" + key +
                                     "' is not in the allowlist");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Counter / Histogram

void Counter::Add(uint64_t delta, size_t shard) {
  TRIPRIV_CHECK_LT(shard, slots_.size());
  slots_[shard] += delta;
}

uint64_t Counter::value() const {
  uint64_t total = 0;
  for (uint64_t slot : slots_) total += slot;
  return total;
}

Histogram::Histogram(std::vector<uint64_t> bounds, size_t shards)
    : bounds_(std::move(bounds)), slots_(shards) {
  for (Slot& slot : slots_) slot.buckets.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(uint64_t value, size_t shard) {
  TRIPRIV_CHECK_LT(shard, slots_.size());
  // First bucket whose upper bound admits the value (le semantics: a value
  // equal to a bound lands in that bound's bucket); past the last bound is
  // the +inf bucket.
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  Slot& slot = slots_[shard];
  ++slot.buckets[bucket];
  ++slot.count;
  slot.sum += value;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> merged(bounds_.size() + 1, 0);
  for (const Slot& slot : slots_) {
    for (size_t b = 0; b < merged.size(); ++b) merged[b] += slot.buckets[b];
  }
  return merged;
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.count;
  return total;
}

uint64_t Histogram::sum() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.sum;
  return total;
}

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::MetricsRegistry(MetricsConfig config)
    : shards_(config.shards < 1 ? 1 : config.shards),
      allowlist_(std::move(config.allowlist)) {}

Status MetricsRegistry::AdmitSeries(const std::string& name, MetricKind kind,
                                    LabelSet* labels) {
  if (!ValidMetricOrKeyName(name, 64)) {
    return Status::InvalidArgument("metric name '" + name +
                                   "' is not a short [a-z0-9_] identifier");
  }
  std::sort(labels->begin(), labels->end());
  for (size_t i = 1; i < labels->size(); ++i) {
    if ((*labels)[i].first == (*labels)[i - 1].first) {
      return Status::InvalidArgument("duplicate label key '" +
                                     (*labels)[i].first + "'");
    }
  }
  TRIPRIV_RETURN_IF_ERROR(allowlist_.Validate(*labels));
  auto kind_it = name_kinds_.find(name);
  if (kind_it != name_kinds_.end() && kind_it->second != kind) {
    // A kind change is a contract violation, not a duplicate registration.
    return Status::InvalidArgument(
        "metric '" + name + "' already registered with a different kind");
  }
  if (!series_keys_.insert(SeriesKey(name, *labels)).second) {
    return Status::AlreadyExists("metric series '" + name +
                                 "' with these labels already registered");
  }
  name_kinds_.emplace(name, kind);
  return Status::OK();
}

Result<Counter*> MetricsRegistry::RegisterCounter(const std::string& name,
                                                  const std::string& help,
                                                  LabelSet labels) {
  TRIPRIV_RETURN_IF_ERROR(AdmitSeries(name, MetricKind::kCounter, &labels));
  Entry entry{MetricKind::kCounter, name,    help, std::move(labels),
              nullptr,              nullptr, nullptr};
  entry.counter.reset(new Counter(shards_));
  Counter* handle = entry.counter.get();
  entries_.push_back(std::move(entry));
  return handle;
}

Result<Gauge*> MetricsRegistry::RegisterGauge(const std::string& name,
                                              const std::string& help,
                                              LabelSet labels) {
  TRIPRIV_RETURN_IF_ERROR(AdmitSeries(name, MetricKind::kGauge, &labels));
  Entry entry{MetricKind::kGauge, name,    help, std::move(labels),
              nullptr,            nullptr, nullptr};
  entry.gauge.reset(new Gauge());
  Gauge* handle = entry.gauge.get();
  entries_.push_back(std::move(entry));
  return handle;
}

Result<Histogram*> MetricsRegistry::RegisterHistogram(
    const std::string& name, const std::string& help,
    std::vector<uint64_t> bounds, LabelSet labels) {
  if (bounds.empty()) {
    return Status::InvalidArgument("histogram needs at least one bound");
  }
  for (size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) {
      return Status::InvalidArgument(
          "histogram bounds must be strictly increasing");
    }
  }
  TRIPRIV_RETURN_IF_ERROR(AdmitSeries(name, MetricKind::kHistogram, &labels));
  Entry entry{MetricKind::kHistogram, name,    help, std::move(labels),
              nullptr,                nullptr, nullptr};
  entry.histogram.reset(new Histogram(std::move(bounds), shards_));
  Histogram* handle = entry.histogram.get();
  entries_.push_back(std::move(entry));
  return handle;
}

Status MetricsRegistry::AllowLabelValue(const std::string& key,
                                        const std::string& value) {
  return allowlist_.AllowValue(key, value);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.samples.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    MetricSample sample;
    sample.name = entry.name;
    sample.help = entry.help;
    sample.kind = entry.kind;
    sample.labels = entry.labels;
    switch (entry.kind) {
      case MetricKind::kCounter:
        sample.counter_value = entry.counter->value();
        break;
      case MetricKind::kGauge:
        sample.gauge_value = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        sample.histogram.bounds = entry.histogram->bounds();
        sample.histogram.counts = entry.histogram->bucket_counts();
        sample.histogram.count = entry.histogram->count();
        sample.histogram.sum = entry.histogram->sum();
        break;
    }
    snapshot.samples.push_back(std::move(sample));
  }
  std::sort(snapshot.samples.begin(), snapshot.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
  return snapshot;
}

}  // namespace obs
}  // namespace tripriv
