// Engine introspection: the event queue's own vitals as registry metrics.
//
// The EngineMonitor mirrors the EventQueue's passive counters into the
// metrics registry at every virtual-time advance, so queue depth, slab
// occupancy, per-node executed-event counts, and the cross-node
// scheduling split show up in the same CSV/series exports as every
// other metric.  It rides the queue's single advance-observer slot and
// forwards to a chained MetricSampler, so "monitor + sampler" works on
// one hook: the monitor refreshes the engine metrics first, then the
// sampler snapshots them at the boundary — deterministic, since every
// value mirrored is itself deterministic.
//
// Wall-clock quantities (sim/wall ratio, ETA) are deliberately NOT
// mirrored on the advance path: a wall-clock value in the registry
// would differ between two same-seed runs and break the byte-identity
// the CSV diffs enforce.  They live behind accessors, plus an explicit
// updateWallGauges() for tools that want them registered and accept
// forfeiting byte-stable metric dumps.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "sim/event_queue.h"

namespace vini::obs {

class EngineMonitor {
 public:
  EngineMonitor() = default;
  ~EngineMonitor() { detach(); }

  EngineMonitor(const EngineMonitor&) = delete;
  EngineMonitor& operator=(const EngineMonitor&) = delete;

  /// Register the "sim.engine" metrics in `registry` and install onto
  /// `queue`'s advance-observer slot.  `chain` (usually the Obs
  /// sampler) is forwarded every advance after the engine metrics are
  /// refreshed; pass the sampler here INSTEAD of calling its attach().
  void attach(sim::EventQueue& queue, MetricsRegistry& registry,
              MetricSampler* chain = nullptr);
  void detach();
  bool attached() const {
    shard_.assertHeld();
    return queue_ != nullptr;
  }

  /// Simulated seconds per wall second since attach (>1 = faster than
  /// real time).  Accessor only — see the header comment.
  double simWallRatio() const;
  /// Estimated wall seconds remaining until now() reaches `target`,
  /// extrapolating the ratio so far.  0 when already past or unknown.
  double etaSeconds(sim::Time target) const;

  /// Opt-in: mirror simWallRatio()/etaSeconds(target) into
  /// ("sim.engine", "wall", ...) gauges.  Wall-clock values make the
  /// registry dump machine-dependent — never call this on a path whose
  /// CSV a determinism gate diffs.
  void updateWallGauges(sim::Time target);

 private:
  void onAdvance(sim::Time from, sim::Time to);
  /// Mirror the queue's counters into the registry.
  void refresh() VINI_REQUIRES(shard_);

  // Rides the queue's advance hook, which the sharded engine calls only
  // on the main thread, between windows.
  core::ShardToken shard_;
  sim::EventQueue* queue_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  MetricsRegistry* registry_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  MetricSampler* chain_ VINI_PT_GUARDED_BY(shard_) = nullptr;

  Gauge* g_pending_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  Gauge* g_storage_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  Gauge* g_slab_slots_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  Gauge* g_slab_free_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  Counter* c_cross_sched_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  Counter* c_same_sched_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  Counter* c_unattributed_ VINI_PT_GUARDED_BY(shard_) = nullptr;
  /// Per-node ("sim.engine", <node>, "events_executed") counters,
  /// indexed by NodeTag; grown lazily as the queue interns tags.
  std::vector<Counter*> c_node_executed_ VINI_GUARDED_BY(shard_);

  // Mirrored counters are monotone totals on the queue side but
  // Counter handles only support inc(); track the last mirrored value
  // and bump by the delta.
  std::uint64_t last_cross_sched_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t last_same_sched_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t last_unattributed_ VINI_GUARDED_BY(shard_) = 0;
  std::vector<std::uint64_t> last_node_executed_ VINI_GUARDED_BY(shard_);

  std::chrono::steady_clock::time_point wall_start_ VINI_GUARDED_BY(shard_){};
  sim::Time sim_start_ VINI_GUARDED_BY(shard_) = 0;
};

}  // namespace vini::obs
