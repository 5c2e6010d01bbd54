// Control-plane event timeline, virtual-time metric sampler, and the
// Chrome trace-event exporter that unifies them with the span tracker.
//
// The *timeline* records rare, named control-plane moments — OSPF SPF
// runs and LSA floods, RIP/BGP updates, cpu-scheduler preemptions,
// fault-injector events, supervisor restarts — as instant or duration
// events on per-entity tracks ("ospf/1.0.0.1", "cpu/Denver/ospf",
// "fault", "supervisor") in virtual time.
//
// The *sampler* snapshots selected MetricsRegistry metrics at a fixed
// virtual-time period into deterministic (t, value) series.  It is
// driven by the EventQueue's time-advance hook, so it never schedules
// events of its own: when now() advances from `from` to `to` it emits a
// point at every period boundary in (from, to], seeing state as of the
// boundary⁻.  kOnChange series additionally suppress points whose
// source metric was not written since the previous sample (gauges use
// their version counter, so re-writing an equal value still emits).
//
// Everything here is passive and deterministic: same seed, same bytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/time.h"

namespace vini::sim {
class EventQueue;
}  // namespace vini::sim

namespace vini::obs {

struct TimelineEvent {
  std::int16_t track = -1;
  std::int16_t label = -1;
  sim::Time t = 0;
  sim::Duration dur = 0;  // 0 = instant event
};

/// Per-entity tracks of instant/duration events in virtual time.
class Timeline {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit Timeline(std::size_t capacity = kDefaultCapacity);

  /// Record an instant event ("spf_run" on track "ospf/1.0.0.1") at `t`.
  void instant(const std::string& track, const std::string& label,
               sim::Time t);
  /// Record a duration event covering [t, t + dur).  From inside a
  /// worker lane the event is buffered (strings and all) and replayed
  /// by foldShardLanes() in deterministic (t, lane, issue) order.
  void duration(const std::string& track, const std::string& label,
                sim::Time t, sim::Duration dur);

  /// Arm per-lane event buffers for the sharded engine (see
  /// PacketTracer::enableShardLanes — same contract).
  void enableShardLanes(std::size_t lanes);
  std::size_t shardLaneCount() const { return lane_ops_.size(); }
  /// Replay lane buffers through the shared tables (interning in replay
  /// order, so ids and bytes are thread-count invariant).  Main-thread
  /// only, lanes quiescent; idempotent.
  void foldShardLanes();

  const std::vector<TimelineEvent>& events() const {
    shard_.assertHeld();
    return events_;
  }
  const std::vector<std::string>& trackNames() const {
    shard_.assertHeld();
    return tracks_;
  }
  const std::vector<std::string>& labelNames() const {
    shard_.assertHeld();
    return labels_;
  }
  const std::string& trackName(std::int16_t id) const;
  const std::string& labelName(std::int16_t id) const;
  std::uint64_t eventsLost() const {
    shard_.assertHeld();
    return events_lost_;
  }

  /// "track,label,t_ns,dur_ns" rows in record order.
  void writeCsv(std::ostream& os) const;

  void clear();

 private:
  std::int16_t intern(std::vector<std::string>& names,
                      std::unordered_map<std::string, std::int16_t>& index,
                      const std::string& name);

  core::ShardToken shard_;
  std::size_t capacity_;
  std::uint64_t events_lost_ VINI_GUARDED_BY(shard_) = 0;
  std::vector<std::string> tracks_ VINI_GUARDED_BY(shard_);
  std::vector<std::string> labels_ VINI_GUARDED_BY(shard_);
  std::unordered_map<std::string, std::int16_t> track_index_
      VINI_GUARDED_BY(shard_);
  std::unordered_map<std::string, std::int16_t> label_index_
      VINI_GUARDED_BY(shard_);
  std::vector<TimelineEvent> events_ VINI_GUARDED_BY(shard_);
  /// One buffered lane event (strings kept: interning happens at the
  /// fold so table ids stay independent of worker interleaving).
  struct LaneOp {
    std::string track;
    std::string label;
    sim::Time t = 0;
    sim::Duration dur = 0;
  };
  /// Per-lane buffers; lane-owned during windows, drained by the main
  /// thread at the fold (barrier-separated, never racing).
  std::vector<std::vector<LaneOp>> lane_ops_;
};

/// Snapshots registry metrics on virtual-time period boundaries.
class MetricSampler {
 public:
  enum class Mode {
    kEveryTick,  // one point per period boundary
    kOnChange,   // only when the metric was written since the last sample
  };

  struct Point {
    sim::Time t = 0;
    double value = 0.0;
  };

  struct Series {
    MetricKey key;
    Mode mode = Mode::kEveryTick;
    std::vector<Point> points;
  };

  /// Bind the registry the watched keys resolve against.  Metrics may be
  /// registered *after* watch() — resolution is retried at each sample.
  void bindRegistry(const MetricsRegistry* registry) {
    shard_.assertHeld();
    registry_ = registry;
  }

  /// Sampling period in virtual time; must be > 0 for any sampling.
  void setPeriod(sim::Duration period) {
    shard_.assertHeld();
    period_ = period;
  }
  sim::Duration period() const {
    shard_.assertHeld();
    return period_;
  }
  /// Align sample boundaries to origin + k * period (benches set this to
  /// their experiment start so series line up with the figure's t axis).
  void setOrigin(sim::Time origin) {
    shard_.assertHeld();
    origin_ = origin;
  }
  sim::Time origin() const {
    shard_.assertHeld();
    return origin_;
  }

  /// Add a series for (component, node, name).  Counters and gauges are
  /// supported; a counter samples its running value.
  void watch(const std::string& component, const std::string& node,
             const std::string& name, Mode mode = Mode::kEveryTick);

  /// Install onto the queue's time-advance hook.  Call again after the
  /// hook is given to someone else; detach() uninstalls.
  void attach(sim::EventQueue& queue);
  void detach();
  bool attached() const {
    shard_.assertHeld();
    return attached_queue_ != nullptr;
  }

  /// The advance hook body: sample every boundary in (from, to].
  void onAdvance(sim::Time from, sim::Time to);

  const std::vector<Series>& series() const {
    shard_.assertHeld();
    return series_;
  }
  const Series* find(const std::string& component, const std::string& node,
                     const std::string& name) const;

  /// "component,node,name,t_ns,value" rows, series in watch order.
  void writeCsv(std::ostream& os) const;

  void clear();

 private:
  struct Watch {
    std::uint64_t last_counter = 0;
    std::uint64_t last_gauge_version = 0;
    bool primed = false;
  };

  void sampleAt(sim::Time t);

  // The sampler rides the queue's advance hook, so it executes on the
  // shard that owns the attached queue.
  core::ShardToken shard_;
  const MetricsRegistry* registry_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  sim::EventQueue* attached_queue_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  sim::Duration period_ VINI_GUARDED_BY(shard_) = 0;
  sim::Time origin_ VINI_GUARDED_BY(shard_) = 0;
  std::vector<Series> series_ VINI_GUARDED_BY(shard_);
  std::vector<Watch> watch_state_ VINI_GUARDED_BY(shard_);
};

// ---------------------------------------------------------------------------
// Export: one Chrome trace-event JSON (Perfetto / about:tracing loadable)
// unifying spans, timeline events, and sampled series.
//
// Mapping:
//   * hop/root spans        -> "X" complete events; pid 1, one tid per
//                              span layer; args carry trace_id, node,
//                              link, outcome, drop reason
//   * timeline instants     -> "i" instant events on their track's tid
//   * timeline durations    -> "X" complete events on their track's tid
//   * sampled series        -> "C" counter events (one per point)
//   * track/thread names    -> "M" thread_name metadata records
// Timestamps are virtual-time microseconds printed with fixed %.3f
// formatting; events are stably sorted by (tid, ts) so per-track
// timestamps are monotonic and the byte stream is deterministic.

void writeChromeTrace(std::ostream& os, const SpanTracker& spans,
                      const Timeline& timeline, const MetricSampler& sampler);

/// One segment of a per-hop latency decomposition.
struct HopSegment {
  std::string layer;  // span layer, or "unattributed" for gaps
  std::string node;
  std::string link;
  sim::Time t_start = 0;
  sim::Duration dur = 0;
};

/// Decompose a delivered trace into sequential, non-overlapping hop
/// segments covering the root span exactly: hop spans are clipped to the
/// root interval in t_open order, and any time not attributed to a hop
/// becomes an "unattributed" segment, so the segment durations sum to
/// the root (end-to-end) latency by construction.  Returns an empty
/// vector when the trace has no completed root span.
std::vector<HopSegment> decomposeTrace(const SpanTracker& spans,
                                       std::uint64_t trace_id);

}  // namespace vini::obs
