#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace vini::obs {

const char* metricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {}

Histogram::Histogram(const Histogram& other) : bounds_(other.bounds_) {
  // atomics are not copyable; snapshot element-wise (registry copies
  // happen at registration time, never concurrently with writes).
  buckets_ = std::vector<std::atomic<std::uint64_t>>(other.buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].store(other.bucketValue(i), std::memory_order_relaxed);
  }
  count_.store(other.count(), std::memory_order_relaxed);
  sum_.store(other.sum(), std::memory_order_relaxed);
}

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  bounds_ = other.bounds_;
  buckets_ = std::vector<std::atomic<std::uint64_t>>(other.buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i].store(other.bucketValue(i), std::memory_order_relaxed);
  }
  count_.store(other.count(), std::memory_order_relaxed);
  sum_.store(other.sum(), std::memory_order_relaxed);
  return *this;
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0 || bounds_.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    const std::uint64_t in_bucket = bucketValue(i);
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      if (in_bucket == 0) return upper;
      const double within = rank - static_cast<double>(cumulative);
      return lower +
             (upper - lower) * within / static_cast<double>(in_bucket);
    }
    cumulative += in_bucket;
  }
  return bounds_.back();
}

namespace {

MetricType typeOf(const std::variant<Counter, Gauge, Histogram>& m) {
  if (std::holds_alternative<Counter>(m)) return MetricType::kCounter;
  if (std::holds_alternative<Gauge>(m)) return MetricType::kGauge;
  return MetricType::kHistogram;
}

}  // namespace

template <typename T>
T& MetricsRegistry::registerAs(const std::string& component,
                               const std::string& node,
                               const std::string& name, T initial) {
  shard_.assertHeld();
  MetricKey key{component, node, name};
  auto [it, inserted] = metrics_.try_emplace(key, std::move(initial));
  if (!inserted && !std::holds_alternative<T>(it->second)) {
    throw std::logic_error("obs: metric " + key.str() +
                           " re-registered with different type (was " +
                           metricTypeName(typeOf(it->second)) + ")");
  }
  return std::get<T>(it->second);
}

Counter& MetricsRegistry::counter(const std::string& component,
                                  const std::string& node,
                                  const std::string& name) {
  shard_.assertHeld();
  return registerAs(component, node, name, Counter{});
}

Gauge& MetricsRegistry::gauge(const std::string& component,
                              const std::string& node,
                              const std::string& name) {
  shard_.assertHeld();
  return registerAs(component, node, name, Gauge{});
}

Histogram& MetricsRegistry::histogram(const std::string& component,
                                      const std::string& node,
                                      const std::string& name,
                                      std::vector<double> upper_bounds) {
  shard_.assertHeld();
  return registerAs(component, node, name,
                    Histogram{std::move(upper_bounds)});
}

const MetricsRegistry::Metric* MetricsRegistry::find(
    const std::string& component, const std::string& node,
    const std::string& name) const {
  shard_.assertHeld();
  const auto it = metrics_.find(MetricKey{component, node, name});
  return it == metrics_.end() ? nullptr : &it->second;
}

const Counter* MetricsRegistry::findCounter(const std::string& component,
                                            const std::string& node,
                                            const std::string& name) const {
  shard_.assertHeld();
  const Metric* m = find(component, node, name);
  return m ? std::get_if<Counter>(m) : nullptr;
}

const Gauge* MetricsRegistry::findGauge(const std::string& component,
                                        const std::string& node,
                                        const std::string& name) const {
  shard_.assertHeld();
  const Metric* m = find(component, node, name);
  return m ? std::get_if<Gauge>(m) : nullptr;
}

const Histogram* MetricsRegistry::findHistogram(const std::string& component,
                                                const std::string& node,
                                                const std::string& name) const {
  shard_.assertHeld();
  const Metric* m = find(component, node, name);
  return m ? std::get_if<Histogram>(m) : nullptr;
}

std::uint64_t MetricsRegistry::counterValue(const std::string& component,
                                            const std::string& node,
                                            const std::string& name) const {
  shard_.assertHeld();
  const Counter* c = findCounter(component, node, name);
  return c ? c->value() : 0;
}

std::uint64_t MetricsRegistry::sumCounters(const std::string& component,
                                           const std::string& name) const {
  shard_.assertHeld();
  std::uint64_t total = 0;
  for (const auto& [key, metric] : metrics_) {
    if (key.component != component || key.name != name) continue;
    if (const Counter* c = std::get_if<Counter>(&metric)) total += c->value();
  }
  return total;
}

std::size_t MetricsRegistry::size() const {
  shard_.assertHeld();
  return metrics_.size();
}

void MetricsRegistry::forEach(
    const std::function<void(const MetricKey&, MetricType)>& visit) const {
  shard_.assertHeld();
  for (const auto& [key, metric] : metrics_) visit(key, typeOf(metric));
}

void MetricsRegistry::writeCsv(std::ostream& os) const {
  shard_.assertHeld();
  os << "component,node,name,type,value\n";
  for (const auto& [key, metric] : metrics_) {
    if (const Counter* c = std::get_if<Counter>(&metric)) {
      os << key.component << "," << key.node << "," << key.name << ",counter,"
         << c->value() << "\n";
    } else if (const Gauge* g = std::get_if<Gauge>(&metric)) {
      os << key.component << "," << key.node << "," << key.name << ",gauge,"
         << g->value() << "\n";
    } else if (const Histogram* h = std::get_if<Histogram>(&metric)) {
      os << key.component << "," << key.node << "," << key.name
         << ",histogram_count," << h->count() << "\n";
      os << key.component << "," << key.node << "," << key.name
         << ",histogram_sum," << h->sum() << "\n";
      os << key.component << "," << key.node << "," << key.name
         << ",histogram_p50," << h->quantile(0.50) << "\n";
      os << key.component << "," << key.node << "," << key.name
         << ",histogram_p95," << h->quantile(0.95) << "\n";
      os << key.component << "," << key.node << "," << key.name
         << ",histogram_p99," << h->quantile(0.99) << "\n";
      for (std::size_t i = 0; i < h->bucketCount(); ++i) {
        os << key.component << "," << key.node << "," << key.name
           << ",histogram_bucket";
        if (i < h->bounds().size()) {
          os << "_le_" << h->upperBound(i);
        } else {
          os << "_overflow";
        }
        os << "," << h->bucketValue(i) << "\n";
      }
    }
  }
}

}  // namespace vini::obs
