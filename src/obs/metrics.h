// The metrics registry.
//
// One audited source of truth for every number an experiment reads:
// counters (monotonic event counts), gauges (instantaneous levels), and
// fixed-bucket histograms, keyed by (component, node, name).  Components
// register their metrics once at construction and keep the returned
// handle; hot paths bump the handle through the VINI_OBS_* macros in
// obs/obs.h, which compile to nothing when the build disables
// instrumentation (-DVINI_OBS=OFF).
//
// Iteration order is deterministic — keys are sorted — so a CSV dump of
// the registry is byte-stable across runs and registration orders.
// Registering the same key twice with the same type returns the existing
// metric (several sockets on one node share a drop counter); registering
// it with a *different* type throws, and the CI gate treats that as a
// hard failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "core/thread_annotations.h"

namespace vini::obs {

enum class MetricType { kCounter, kGauge, kHistogram };

const char* metricTypeName(MetricType type);

/// Registry key: which subsystem, which instance, which quantity.
/// Examples: ("phys.link", "Denver-KansasCity/ab", "queue_drops"),
/// ("app.iperf", "Washington", "udp_rx_packets").
struct MetricKey {
  std::string component;
  std::string node;
  std::string name;
  auto operator<=>(const MetricKey&) const = default;

  std::string str() const { return component + "/" + node + "/" + name; }
};

/// A monotonically increasing event count.
///
/// Storage is atomic (relaxed): the sharded engine's worker lanes bump
/// cached handles into the one shared registry concurrently, and
/// integer sums are interleaving-invariant — the value at any barrier
/// or export point is a pure function of the event stream, so the
/// determinism gates hold at every thread count.  Copying (for variant
/// storage in the registry map) snapshots the value; registration
/// happens at world construction, never concurrently with writes.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other)
      : value_(other.value_.load(std::memory_order_relaxed)) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// An instantaneous level (queue depth, bytes outstanding).
///
/// Every write bumps a version counter so an on-change sampler can tell
/// "set to the same value again" (a fresh observation that must emit a
/// point) from "never touched" (no point) without comparing doubles.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& other)
      : value_(other.value_.load(std::memory_order_relaxed)),
        version_(other.version_.load(std::memory_order_relaxed)) {}
  Gauge& operator=(const Gauge& other) {
    value_.store(other.value_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    version_.store(other.version_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    return *this;
  }

  void set(double v) {
    value_.store(v, std::memory_order_relaxed);
    version_.fetch_add(1, std::memory_order_relaxed);
  }
  void add(double delta) {
    // CAS loop: atomic<double> has no fetch_add pre-C++20 on all
    // toolchains.  Deterministic under the per-node single-writer
    // discipline the sharded engine enforces (each gauge instance is
    // bumped by exactly one lane per window).
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
    version_.fetch_add(1, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  /// Number of writes since construction.
  std::uint64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<std::uint64_t> version_{0};
};

/// A fixed-bucket histogram: bucket i counts observations <= bound i,
/// with an implicit overflow bucket above the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void observe(double x);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Estimate the q-quantile (q in [0, 1]) by linear interpolation inside
  /// the bucket holding the target rank, Prometheus histogram_quantile
  /// style: rank r = q * count, the first bucket whose cumulative count
  /// reaches r supplies [lower_bound, upper_bound], and the estimate
  /// interpolates by the rank's position within that bucket.  Ranks that
  /// land in the overflow bucket clamp to the last finite bound (the
  /// histogram cannot see past it).  Returns 0 when empty.
  double quantile(double q) const;
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  std::size_t bucketCount() const { return buckets_.size(); }
  /// Count in bucket `i`; the final bucket is the overflow bucket.
  std::uint64_t bucketValue(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket `i` (undefined for the overflow bucket).
  double upperBound(std::size_t i) const { return bounds_[i]; }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;  // ascending
  // bounds_.size() + 1 atomic buckets (last = overflow).  Bucket bumps
  // and count are integer adds (interleaving-invariant); sum_ is a
  // CAS-add double, deterministic under per-node single-writer
  // instancing — see the Counter comment.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  /// Register (or look up) a metric.  Throws std::logic_error if the key
  /// already exists with a different type — the CI gate relies on this
  /// surfacing as a hard failure.
  Counter& counter(const std::string& component, const std::string& node,
                   const std::string& name);
  Gauge& gauge(const std::string& component, const std::string& node,
               const std::string& name);
  /// `upper_bounds` is used on first registration only.
  Histogram& histogram(const std::string& component, const std::string& node,
                       const std::string& name,
                       std::vector<double> upper_bounds);

  // -- Read side (nullptr / 0 when the metric was never registered) ---------

  const Counter* findCounter(const std::string& component,
                             const std::string& node,
                             const std::string& name) const;
  const Gauge* findGauge(const std::string& component, const std::string& node,
                         const std::string& name) const;
  const Histogram* findHistogram(const std::string& component,
                                 const std::string& node,
                                 const std::string& name) const;

  /// Convenience for benches: counter value, or 0 if never registered.
  std::uint64_t counterValue(const std::string& component,
                             const std::string& node,
                             const std::string& name) const;

  /// Sum of every counter matching (component, name) across all nodes.
  std::uint64_t sumCounters(const std::string& component,
                            const std::string& name) const;

  std::size_t size() const;

  /// Visit every metric in deterministic (sorted-key) order.
  void forEach(
      const std::function<void(const MetricKey&, MetricType)>& visit) const;

  /// "component,node,name,type,value" rows (histograms emit one row per
  /// bucket plus count/sum), sorted by key — byte-stable across runs.
  void writeCsv(std::ostream& os) const;

 private:
  using Metric = std::variant<Counter, Gauge, Histogram>;

  template <typename T>
  T& registerAs(const std::string& component, const std::string& node,
                const std::string& name, T initial);
  const Metric* find(const std::string& component, const std::string& node,
                     const std::string& name) const;

  core::ShardToken shard_;
  // std::map: node-based (stable handle addresses) and key-sorted
  // (deterministic iteration).  Registration is serial; the sharded
  // engine's lanes only bump the atomic values behind cached handles.
  std::map<MetricKey, Metric> metrics_ VINI_GUARDED_BY(shard_);
};

}  // namespace vini::obs
