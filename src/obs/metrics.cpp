#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace gplus::obs {

namespace detail {

std::size_t cell_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) & (kCells - 1);
  return slot;
}

}  // namespace detail

Histogram::Histogram(std::vector<std::uint64_t> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) {
    throw std::logic_error("obs: histogram needs at least one bucket bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::logic_error("obs: histogram bounds must be strictly increasing");
  }
  cells_ = std::vector<detail::Cell>(detail::kCells * (bounds_.size() + 1));
}

void Histogram::record(std::uint64_t value) noexcept {
  // Bucket i holds values <= bounds[i], so the target is the first bound
  // >= value; lower_bound lands on bounds_.size() for overflow values.
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  const std::size_t slot = detail::cell_slot();
  cells_[slot * (bounds_.size() + 1) + idx].value.fetch_add(
      1, std::memory_order_relaxed);
  sum_cells_[slot].value.fetch_add(value, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  const std::size_t buckets = bounds_.size() + 1;
  std::vector<std::uint64_t> out(buckets, 0);
  for (std::size_t slot = 0; slot < detail::kCells; ++slot) {
    for (std::size_t b = 0; b < buckets; ++b) {
      out[b] += cells_[slot * buckets + b].value.load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const detail::Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t Histogram::sum() const noexcept {
  std::uint64_t total = 0;
  for (const detail::Cell& cell : sum_cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

std::string_view metric_kind_name(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

std::int64_t MetricsSnapshot::value(std::string_view name) const {
  const auto it = entries.find(std::string(name));
  if (it == entries.end()) return 0;
  if (it->second.kind == MetricKind::kHistogram) {
    return static_cast<std::int64_t>(it->second.count);
  }
  return it->second.value;
}

bool MetricsSnapshot::contains(std::string_view name) const {
  return entries.find(std::string(name)) != entries.end();
}

MetricsSnapshot delta(const MetricsSnapshot& after, const MetricsSnapshot& before) {
  MetricsSnapshot out;
  for (const auto& [name, entry] : after.entries) {
    MetricsSnapshot::Entry d = entry;
    const auto it = before.entries.find(name);
    if (it != before.entries.end()) {
      const MetricsSnapshot::Entry& b = it->second;
      switch (entry.kind) {
        case MetricKind::kCounter:
          d.value = entry.value - b.value;
          break;
        case MetricKind::kGauge:
          break;  // gauges are levels: the delta keeps the after value
        case MetricKind::kHistogram:
          d.sum = entry.sum - b.sum;
          d.count = entry.count - b.count;
          for (std::size_t i = 0; i < d.buckets.size() && i < b.buckets.size(); ++i) {
            d.buckets[i] = entry.buckets[i] - b.buckets[i];
          }
          break;
      }
    }
    out.entries.emplace(name, std::move(d));
  }
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

[[noreturn]] void throw_mismatch(std::string_view name, std::string_view what) {
  throw std::logic_error("obs: metric '" + std::string(name) +
                         "' re-registered with different " + std::string(what));
}

}  // namespace

MetricsRegistry::Metric& MetricsRegistry::counter_metric(std::string_view name,
                                                         Determinism det) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric m{MetricKind::kCounter, det, nullptr, nullptr, nullptr, {}, 0};
    it = metrics_.emplace(std::string(name), std::move(m)).first;
  } else {
    if (it->second.kind != MetricKind::kCounter) throw_mismatch(name, "kind");
    if (it->second.determinism != det) throw_mismatch(name, "determinism tag");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, Determinism det) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Metric& metric = counter_metric(name, det);
  if (!metric.counter) metric.counter = std::make_unique<Counter>();
  return *metric.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Determinism det) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric m{MetricKind::kGauge, det, nullptr, std::make_unique<Gauge>(), nullptr,
             {}, 0};
    it = metrics_.emplace(std::string(name), std::move(m)).first;
  } else {
    if (it->second.kind != MetricKind::kGauge) throw_mismatch(name, "kind");
    if (it->second.determinism != det) throw_mismatch(name, "determinism tag");
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<std::uint64_t> bounds,
                                      Determinism det) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Metric m{MetricKind::kHistogram, det, nullptr, nullptr,
             std::make_unique<Histogram>(std::move(bounds)), {}, 0};
    it = metrics_.emplace(std::string(name), std::move(m)).first;
  } else {
    if (it->second.kind != MetricKind::kHistogram) throw_mismatch(name, "kind");
    if (it->second.determinism != det) throw_mismatch(name, "determinism tag");
    if (it->second.histogram->bounds() != bounds) throw_mismatch(name, "bounds");
  }
  return *it->second.histogram;
}

MetricsSnapshot MetricsRegistry::snapshot(bool deterministic_only) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, metric] : metrics_) {
    if (deterministic_only && metric.determinism == Determinism::kRunDependent) {
      continue;
    }
    MetricsSnapshot::Entry entry;
    entry.kind = metric.kind;
    entry.determinism = metric.determinism;
    switch (metric.kind) {
      case MetricKind::kCounter: {
        std::uint64_t total = metric.retired;
        if (metric.counter) total += metric.counter->value();
        for (const auto* cell : metric.cells) {
          total += cell->load(std::memory_order_relaxed);
        }
        entry.value = static_cast<std::int64_t>(total);
        break;
      }
      case MetricKind::kGauge:
        entry.value = metric.gauge->value();
        break;
      case MetricKind::kHistogram:
        entry.bounds = metric.histogram->bounds();
        entry.buckets = metric.histogram->bucket_counts();
        entry.sum = metric.histogram->sum();
        entry.count = metric.histogram->count();
        break;
    }
    snap.entries.emplace(name, std::move(entry));
  }
  return snap;
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return metrics_.size();
}

CounterStore::CounterStore(std::size_t cells, MetricsRegistry& registry)
    : registry_(&registry),
      cell_count_(cells),
      cells_(std::make_unique<std::atomic<std::uint64_t>[]>(cells)) {}

CounterStore::~CounterStore() {
  if (exports_.empty()) return;
  const std::lock_guard<std::mutex> lock(registry_->mutex_);
  for (const Export& e : exports_) {
    e.metric->retired += value(e.cell);
    std::erase(e.metric->cells, &cells_[e.cell]);
  }
}

void CounterStore::export_cell(std::size_t cell, std::string_view name) {
  const std::lock_guard<std::mutex> lock(registry_->mutex_);
  MetricsRegistry::Metric& metric =
      registry_->counter_metric(name, Determinism::kDeterministic);
  metric.cells.push_back(&cells_[cell]);
  exports_.push_back(Export{&metric, cell});
}

void CounterStore::reset() {
  const std::lock_guard<std::mutex> lock(registry_->mutex_);
  for (const Export& e : exports_) e.metric->retired += value(e.cell);
  for (std::size_t i = 0; i < cell_count_; ++i) {
    cells_[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace gplus::obs
