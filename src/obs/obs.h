// Observability context and zero-cost-when-disabled macros.
//
// A simulation that wants instrumentation installs a ScopedObs at the
// top of its main(); components check obs::current() at construction,
// register their metrics, and cache the returned handles.  Hot paths go
// through the VINI_OBS_* macros below, which compile to nothing when the
// build sets -DVINI_OBS=OFF, and to a null-checked pointer bump when it
// is on but no ScopedObs is installed.
//
// The obs layer is strictly passive: it never schedules events, never
// consumes randomness, and never mutates simulation state, so enabling
// it cannot change a run's results.  current() is a plain global: it is
// installed before a run starts, and the sharded engine's worker lanes
// only read it.
#pragma once

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace vini::obs {

/// Everything one simulation's instrumentation shares.
struct Obs {
  MetricsRegistry metrics;
  PacketTracer tracer;
  EventLoopProfiler profiler;
  SpanTracker spans;
  Timeline timeline;
  MetricSampler sampler;
  /// Read-only view of the simulation clock, attached by the World (or
  /// a test) so passive consumers — drop-site root closes, timeline
  /// helpers — can timestamp without plumbing a queue reference.
  const sim::EventQueue* clock = nullptr;

  explicit Obs(std::size_t trace_capacity = PacketTracer::kDefaultCapacity)
      : tracer(trace_capacity) {
    sampler.bindRegistry(&metrics);
  }

  /// Arm the obs plane for the sharded (multi-threaded) engine with
  /// `lanes` worker lanes (one per interned node tag — pass
  /// EventQueue::shardLaneCount()).  Metric primitives are already
  /// atomic, so the shared registry needs no lanes; the ordered streams
  /// (tracer, spans, timeline) buffer per lane and fold back
  /// deterministically.  Call after the world's components registered
  /// and interned, right after EventQueue::finalizeSharding().
  void enableShardLanes(std::size_t lanes) {
    tracer.enableShardLanes(lanes);
    spans.enableShardLanes(lanes);
    timeline.enableShardLanes(lanes);
  }
  bool shardLanesEnabled() const { return tracer.shardLaneCount() != 0; }

  /// Replay every lane buffer into the shared tables in deterministic
  /// (t, lane, issue) order.  Must run — main thread, workers quiescent
  /// (i.e. not inside EventQueue::run) — before any export or read-side
  /// query that should see lane-recorded data.  Idempotent; a no-op
  /// when lanes were never enabled.
  void foldShardLanes() {
    if (!shardLanesEnabled()) return;
    tracer.foldShardLanes();
    spans.foldShardLanes();
    timeline.foldShardLanes();
  }
};

/// The installed context, or nullptr when instrumentation is off.
Obs* current();

/// RAII installer.  Nesting restores the previous context on scope exit
/// (a bench can wrap each trial in its own ScopedObs for a clean slate).
class ScopedObs {
 public:
  explicit ScopedObs(std::size_t trace_capacity =
                         PacketTracer::kDefaultCapacity);
  ~ScopedObs();

  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;

  Obs& obs() { return obs_; }
  MetricsRegistry& metrics() { return obs_.metrics; }
  PacketTracer& tracer() { return obs_.tracer; }
  EventLoopProfiler& profiler() { return obs_.profiler; }
  SpanTracker& spans() { return obs_.spans; }
  Timeline& timeline() { return obs_.timeline; }
  MetricSampler& sampler() { return obs_.sampler; }

 private:
  Obs obs_;
  Obs* previous_;
};

}  // namespace vini::obs

// ---------------------------------------------------------------------------
// Hot-path macros.  `h` arguments are cached handle *pointers* (null when
// no context was installed at component construction time).

#if defined(VINI_OBS)
#define VINI_OBS_ENABLED 1
#else
#define VINI_OBS_ENABLED 0
#endif

#if VINI_OBS_ENABLED

/// Register-time helper: evaluates to the current Obs* (may be null).
#define VINI_OBS_CTX() (::vini::obs::current())

#define VINI_OBS_INC(h)            \
  do {                             \
    if ((h) != nullptr) (h)->inc(); \
  } while (0)
#define VINI_OBS_ADD(h, delta)                 \
  do {                                         \
    if ((h) != nullptr) (h)->inc((delta));      \
  } while (0)
#define VINI_OBS_GAUGE_SET(h, v)            \
  do {                                      \
    if ((h) != nullptr) (h)->set((v));       \
  } while (0)
#define VINI_OBS_OBSERVE(h, v)                 \
  do {                                         \
    if ((h) != nullptr) (h)->observe((v));      \
  } while (0)
/// `...` is a braced TraceRecord initializer or expression.
#define VINI_OBS_TRACE(...)                                         \
  do {                                                              \
    if (::vini::obs::Obs* obs_ctx_ = ::vini::obs::current())        \
      obs_ctx_->tracer.record(__VA_ARGS__);                         \
  } while (0)
/// Instant timeline event at explicit virtual time `t`.
#define VINI_OBS_TIMELINE_INSTANT(track, label, t)                  \
  do {                                                              \
    if (::vini::obs::Obs* obs_ctx_ = ::vini::obs::current())        \
      obs_ctx_->timeline.instant((track), (label), (t));            \
  } while (0)
/// Duration timeline event covering [t, t + dur).
#define VINI_OBS_TIMELINE_DURATION(track, label, t, dur)            \
  do {                                                              \
    if (::vini::obs::Obs* obs_ctx_ = ::vini::obs::current())        \
      obs_ctx_->timeline.duration((track), (label), (t), (dur));    \
  } while (0)
/// Drop-site root close by trace id (no-op for untraced packets).
#define VINI_OBS_ROOT_DROP(trace_id, reason) \
  ::vini::obs::closeRootAtCurrent((trace_id), (reason))

#else  // !VINI_OBS_ENABLED

#define VINI_OBS_CTX() (static_cast<::vini::obs::Obs*>(nullptr))
#define VINI_OBS_INC(h) \
  do {                  \
  } while (0)
#define VINI_OBS_ADD(h, delta) \
  do {                         \
  } while (0)
#define VINI_OBS_GAUGE_SET(h, v) \
  do {                           \
  } while (0)
#define VINI_OBS_OBSERVE(h, v) \
  do {                         \
  } while (0)
#define VINI_OBS_TRACE(...) \
  do {                      \
  } while (0)
#define VINI_OBS_TIMELINE_INSTANT(track, label, t) \
  do {                                             \
  } while (0)
#define VINI_OBS_TIMELINE_DURATION(track, label, t, dur) \
  do {                                                   \
  } while (0)
#define VINI_OBS_ROOT_DROP(trace_id, reason) \
  do {                                       \
  } while (0)

#endif  // VINI_OBS_ENABLED
