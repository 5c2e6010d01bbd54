// Discrete-event engine.
//
// The EventQueue is the heart of the substrate: every physical link
// transmission, CPU scheduling decision, protocol timer, and application
// action is an event.  Events at equal timestamps execute in scheduling
// order (FIFO by sequence number), which keeps runs fully deterministic.
//
// Storage model (the bench_engine hot path):
//
//   * Callbacks live in a slab of reusable records (`slots_` + a free
//     list), each holding a small-buffer-optimized InlineCallback — a
//     scheduled event with captures up to 64 bytes costs zero heap
//     allocations, and a fired or cancelled slot is recycled in place.
//   * The EventId handle encodes its slab slot in the low bits and a
//     monotone sequence number in the high bits, so cancel() finds its
//     record and step() detects stale keys by a single id comparison —
//     the engine keeps no hash map at all.
//   * The priority structure is an implicit 4-ary min-heap of
//     lightweight 16-byte keys, not of the records themselves, so sift
//     moves stay inside a few cache lines (the four children of a node
//     share one or two of them, halving a binary heap's depth).
//   * A key packs (when, id) into one unsigned 128-bit integer, so the
//     (when, id) total order — FIFO among equal timestamps — is a
//     single compare, and a sift-down picks the minimum of four
//     children without a data-dependent branch.  Sentinel keys pad the
//     heap so every node reads four children without a bounds check.
//   * Pop and push are fused: step() leaves the fired key at the root,
//     and the handler's first schedule() overwrites it with one
//     sift-down (a heap "replace-top").  Any other access — a peek, a
//     pop, a compaction, or a handler that schedules nothing — settles
//     the deferred pop first, so the pop order is exactly the (when, id)
//     order of a plain pop-then-push heap.
//   * cancel() releases the callback (and everything it captured)
//     eagerly and leaves only a tombstone key behind; tombstones are
//     compacted away whenever they outnumber live keys.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/thread_annotations.h"
#include "sim/callback.h"
#include "sim/time.h"

namespace vini::sim {

class ShardRuntime;

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Handles are unique for the lifetime of their queue and monotonically
/// increasing in scheduling order; 0 is never a valid handle.
using EventId = std::uint64_t;

/// Small interned id for the physical node an event belongs to — the
/// lane that executes the event under the sharded engine.  Components
/// intern their node name once (internNodeTag) and pass the tag on the
/// node-attributed schedule overloads; kNoNode marks events with no
/// single owning node (global timers, topology-wide reroutes).
using NodeTag = std::uint16_t;
inline constexpr NodeTag kNoNode = 0xFFFF;

/// A deterministic discrete-event scheduler.
///
/// Usage:
///   EventQueue q;
///   q.schedule(q.now() + kSecond, [] { ... });
///   q.runUntil(10 * kSecond);
class EventQueue {
 public:
  /// Event callbacks capture at most a component pointer, a shared
  /// packet handle, and a span id on the hot path; 64 inline bytes
  /// covers that with headroom (a stray std::function also fits).
  using Callback = InlineCallback<64>;

  EventQueue();  // out of line: members need ShardRuntime complete
  /// Sharded construction: `threads` worker contexts execute the run
  /// once finalizeSharding() freezes the lane set.  threads == 0 is the
  /// classic single-threaded engine (byte-identical to an EventQueue
  /// built without the parameter); threads == 1 runs the sharded
  /// schedule serially — the determinism gate's reference run.
  explicit EventQueue(int threads);
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulation time.  Advances only inside run()/runUntil()/step().
  /// From inside a sharded worker lane this is the lane's local time
  /// (the timestamp of the event currently executing).
  Time now() const {
    if (worker_ctx_.queue == this) return workerNow();
    shard_.assertHeld();
    return now_;
  }

  /// Schedule `cb` to run at absolute time `when` (clamped to now()).
  /// Returns a handle that can be passed to cancel().
  EventId schedule(Time when, Callback cb) {
    return schedule(when, nullptr, std::move(cb));
  }

  /// As above, tagging the event with a static component label
  /// ("phys.link", "xorp.ospf", ...) that the event-loop profiler
  /// attributes handler time to.  `tag` must outlive the event — pass a
  /// string literal.
  EventId schedule(Time when, const char* tag, Callback cb) {
    return schedule(when, tag, kNoNode, std::move(cb));
  }

  /// As above, additionally attributing the event to a physical node
  /// (from internNodeTag).  The sharded engine runs the event on that
  /// node's lane; both engines count it in the per-node executed counts
  /// and the cross-node scheduling ratio.  On the classic engine the
  /// attribution is passive: a run is byte-identical with or without it.
  EventId schedule(Time when, const char* tag, NodeTag node, Callback cb);

  /// Schedule `cb` to run `delay` after the current time.  Routed
  /// through now()/schedule() so the overloads work identically from
  /// the main thread and from sharded worker lanes.
  EventId scheduleAfter(Duration delay, Callback cb) {
    return schedule(now() + (delay > 0 ? delay : 0), nullptr, kNoNode,
                    std::move(cb));
  }

  EventId scheduleAfter(Duration delay, const char* tag, Callback cb) {
    return schedule(now() + (delay > 0 ? delay : 0), tag, kNoNode,
                    std::move(cb));
  }

  EventId scheduleAfter(Duration delay, const char* tag, NodeTag node,
                        Callback cb) {
    return schedule(now() + (delay > 0 ? delay : 0), tag, node, std::move(cb));
  }

  /// Cancel a previously scheduled event.  Returns true if the event was
  /// still pending (i.e. it will no longer fire).  The callback and all
  /// state it captured are released immediately, not when the event's
  /// timestamp is reached — a repeatedly re-armed hold timer therefore
  /// pins O(1) memory, not one dead record per re-arm.
  bool cancel(EventId id);

  /// Execute the single next pending event.  Returns false if none remain.
  bool step();

  /// Run until the queue drains or `deadline` is reached.  Time is left at
  /// `deadline` if it was reached, else at the last event executed.
  void runUntil(Time deadline);

  /// Run until the queue drains completely.
  void run();

  // -- Sharded execution ------------------------------------------------------

  /// Freeze the lane set (one lane per interned node tag) and the
  /// conservative lookahead window, and spawn the worker pool.  Call
  /// after world construction (every component has interned its node
  /// tag) and before the first run; no-op when the queue was built with
  /// threads == 0.  `lookahead` is the minimum cross-node propagation
  /// delay (PhysNetwork::minPropagation()); values < 1 ns are clamped.
  void finalizeSharding(Duration lookahead);

  /// True when this queue executes rounds through the shard runtime.
  bool sharded() const { return shard_rt_ != nullptr; }
  int shardThreads() const { return shard_threads_; }
  std::size_t shardLaneCount() const;

  /// Events on the run's critical path, a measured speedup ceiling:
  /// executedCount() / criticalPathEvents() is the most the threads
  /// could gain on this event schedule.  Each sharded round adds
  /// max(its heaviest lane's events, ceil(its events / k)), where k is
  /// the number of threads that ran the round's lanes; each serial
  /// (kNoNode) step adds 1.  Counted from finalizeSharding() on; the
  /// classic engine runs every event serially, so there it is
  /// executedCount().
  std::uint64_t criticalPathEvents() const;

  /// Lane the calling thread is currently executing (any queue), or -1
  /// outside sharded lane execution.  The observability layer routes
  /// per-lane recording off this.
  static int currentShardLane() { return worker_ctx_.lane_index; }

  /// Number of events still pending (cancelled events are excluded).
  std::size_t pendingCount() const {
    shard_.assertHeld();
    return live_;
  }

  /// Number of keys resident in the priority structure, *including*
  /// cancelled tombstones awaiting compaction — the memory the engine
  /// actually pins.  A fired key awaiting its deferred pop is not
  /// counted.
  std::size_t storageCount() const {
    shard_.assertHeld();
    return heapSize() - (fired_at_root_ ? 1 : 0);
  }

  /// Total number of events executed since construction.
  std::uint64_t executedCount() const {
    shard_.assertHeld();
    return executed_;
  }

  /// High-water marks of pendingCount() / storageCount() since
  /// construction (BENCH_engine.json's peak columns).
  std::uint64_t peakPendingCount() const {
    shard_.assertHeld();
    return peak_pending_;
  }
  std::uint64_t peakStorageCount() const {
    shard_.assertHeld();
    return peak_storage_;
  }

  /// Slab occupancy: total slots ever allocated / slots currently free.
  /// (slabSlotCount - slabFreeCount = live events; the gap to
  /// storageCount is the tombstone population.)
  std::size_t slabSlotCount() const {
    shard_.assertHeld();
    return slots_.size();
  }
  std::size_t slabFreeCount() const {
    shard_.assertHeld();
    return free_slots_.size();
  }

  // -- Per-node event attribution ---------------------------------------------

  /// Intern a physical node name, returning the tag the node-attributed
  /// schedule overloads take.  Re-interning the same name returns the
  /// same tag.  Cold path: components intern once at construction.
  NodeTag internNodeTag(const std::string& name);
  std::size_t nodeTagCount() const {
    shard_.assertHeld();
    return node_tag_names_.size();
  }
  const std::string& nodeTagName(NodeTag tag) const;

  /// Events executed that were attributed to `tag` / to no node.
  std::uint64_t nodeExecutedCount(NodeTag tag) const;
  std::uint64_t unattributedExecutedCount() const {
    shard_.assertHeld();
    return executed_unattributed_;
  }

  /// Of the events scheduled *from inside* a node-attributed handler
  /// targeting a node-attributed event: how many stayed on the same
  /// node vs. crossed to another.  The cross/total ratio bounds how
  /// chatty a sharded run would be.
  std::uint64_t sameNodeScheduledCount() const {
    shard_.assertHeld();
    return same_node_scheduled_;
  }
  std::uint64_t crossNodeScheduledCount() const {
    shard_.assertHeld();
    return cross_node_scheduled_;
  }
  /// Smallest (when - now) over all cross-node schedules, i.e. the
  /// tightest delivery deadline a conservative lookahead window must
  /// respect; 0 when no cross-node event was ever scheduled.
  Duration minCrossNodeDelay() const {
    shard_.assertHeld();
    return cross_node_scheduled_ ? min_cross_delay_ : 0;
  }

  /// Wall-clock profiling hook: called after each executed event with
  /// the event's tag (nullptr for untagged), its node attribution
  /// (kNoNode for unattributed), and the handler's wall time in
  /// nanoseconds.  The clock is read only while a hook is installed;
  /// pass nullptr to uninstall.  The hook observes only — simulated
  /// time and event order are unaffected.
  using ProfileHook =
      std::function<void(const char* tag, NodeTag node, std::int64_t wall_ns)>;
  void setProfiler(ProfileHook hook) {
    shard_.assertHeld();
    profiler_ = std::move(hook);
  }

  /// Time-advance observation hook: called whenever now() is about to
  /// advance — before the event at the new time executes, and at the
  /// runUntil() deadline clamp — with the old and new time (from < to).
  /// Observers therefore see simulation state as of `to`⁻, i.e. with no
  /// event at `to` applied yet.  The hook observes only (the metric
  /// sampler in obs/ is the intended client); pass nullptr to uninstall.
  using AdvanceHook = std::function<void(Time from, Time to)>;
  void setAdvanceObserver(AdvanceHook hook) {
    shard_.assertHeld();
    advance_ = std::move(hook);
  }

 private:
  friend class ShardRuntime;
  /// White-box access for the engine's unit tests (peekLive() from
  /// inside a handler, the deferred-pop state).
  friend struct EventQueueTestAccess;

  /// EventId layout: [ sequence : 40 | slab slot : 24 ].  The sequence
  /// is monotone per queue (ids order by scheduling time, giving the
  /// FIFO tie-break), and the slot gives cancel()/step() an O(1),
  /// hash-free path to the event's record.  A stale handle — fired,
  /// cancelled, or fabricated — is detected because its slot no longer
  /// stores the same id.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static std::uint32_t slotOf(EventId id) {
    return static_cast<std::uint32_t>(id & kSlotMask);
  }
  static std::uint64_t seqOf(EventId id) { return id >> kSlotBits; }

  /// What the heap orders: 16 bytes, trivially copyable.  (when, id)
  /// is a total order — ids are unique and monotone — so any correct
  /// min-extraction yields the same deterministic sequence.  The key
  /// packs it as one unsigned 128-bit integer, (when ^ sign bit) above
  /// the id: flipping the sign bit maps signed time onto unsigned
  /// order, so `a.packed < b.packed` is exactly "a fires first".
  using Packed = unsigned __int128;
  static constexpr std::uint64_t kSignBit = 1ull << 63;
  struct Key {
    Packed packed;
    static Key make(Time when, EventId id) {
      const std::uint64_t biased = static_cast<std::uint64_t>(when) ^ kSignBit;
      return Key{(static_cast<Packed>(biased) << 64) | id};
    }
    Time when() const {
      return static_cast<Time>(static_cast<std::uint64_t>(packed >> 64) ^
                               kSignBit);
    }
    EventId id() const { return static_cast<EventId>(packed); }
  };
  /// Pads the heap past its last key: later than every real key, so
  /// it never sifts up and never wins a child comparison.
  static constexpr Key kSentinel{~Packed{0}};
  /// Sentinels kept after the last key: a sift-down only visits nodes
  /// whose first child is a key, so at most three children are absent.
  static constexpr std::size_t kHeapPad = 3;

  /// Slab record: the callback (captures inline up to 64 bytes), the
  /// profiler tag, the owning node, and the full id currently occupying
  /// the slot (0 when free — the generation check).  Slots are recycled
  /// through free_slots_.
  struct Slot {
    Callback cb;
    const char* tag = nullptr;
    EventId id = 0;
    /// Sharded mode: the worker-issued staged id this event was
    /// scheduled under (0 otherwise) — releasing the slot erases the
    /// staged-id mapping so the translation table stays bounded.
    EventId alias = 0;
    NodeTag node = kNoNode;
  };

  std::uint32_t allocSlot() VINI_REQUIRES(shard_);
  void releaseSlot(std::uint32_t slot) VINI_REQUIRES(shard_);
  /// True while `key` refers to a live (not cancelled, not fired) event.
  bool keyLive(const Key& key) const VINI_REQUIRES(shard_) {
    return slots_[slotOf(key.id())].id == key.id();
  }

  /// Earliest live key, skimming cancelled tombstones off the top; null
  /// when empty.  The returned pointer is invalidated by any mutation.
  const Key* peekLive() VINI_REQUIRES(shard_);
  Key popMinRaw() VINI_REQUIRES(shard_);
  /// Execute the event of `key`, the current root of the heap.  The
  /// root stays in place while the handler runs (see fired_at_root_).
  void fire(Key key) VINI_REQUIRES(shard_);
  /// Complete a deferred pop, if one is pending.
  void settleFiredRoot() VINI_REQUIRES(shard_) {
    if (fired_at_root_) {
      fired_at_root_ = false;
      heapPopTop();
    }
  }

  // 4-ary heap primitives.
  std::size_t heapSize() const VINI_REQUIRES(shard_) {
    return heap_.size() - kHeapPad;
  }
  void heapPush(Key k) VINI_REQUIRES(shard_);
  void heapPopTop() VINI_REQUIRES(shard_);
  void heapSiftUp(std::size_t i) VINI_REQUIRES(shard_);
  void heapSiftDown(std::size_t i) VINI_REQUIRES(shard_);
  void heapRebuild() VINI_REQUIRES(shard_);

  /// Drop every tombstone from the priority structure once they
  /// outnumber live keys (dead_keys_ > storage/2).
  void maybeCompact() VINI_REQUIRES(shard_);

  // Everything below belongs to the main thread.  Sharded worker lanes
  // never write it inside a window: they reach the queue through the
  // worker-context trampolines below, only read the frozen slab (cancel
  // liveness checks), and stage every mutation for the barrier.
  core::ShardToken shard_;
  // cross-shard: read by every layer via now(); sampled by observers.
  Time now_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t next_seq_ VINI_GUARDED_BY(shard_) = 1;
  std::uint64_t executed_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t peak_pending_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t peak_storage_ VINI_GUARDED_BY(shard_) = 0;
  /// Live (pending, uncancelled) events.
  std::size_t live_ VINI_GUARDED_BY(shard_) = 0;
  /// Tombstones: cancelled keys still sitting in the priority structure.
  std::size_t dead_keys_ VINI_GUARDED_BY(shard_) = 0;
  /// Set by ~EventQueue before the slab drains: dropping a stored
  /// callback can release the last owner of an object whose destructor
  /// cancels its own timer on this queue, and that re-entrant cancel()
  /// must be a no-op rather than touch half-destroyed members.
  bool tearing_down_ VINI_GUARDED_BY(shard_) = false;

  // Slab storage for callbacks; keys refer into it by index.
  std::vector<Slot> slots_ VINI_GUARDED_BY(shard_);
  std::vector<std::uint32_t> free_slots_ VINI_GUARDED_BY(shard_);

  // 4-ary heap: keys in [0, heapSize()), then kHeapPad sentinels.
  // cross-shard: lane-staged schedules land here at the barrier.
  std::vector<Key> heap_ VINI_GUARDED_BY(shard_) =
      std::vector<Key>(kHeapPad, kSentinel);
  /// Set while the root holds the key of the event step() is firing:
  /// its pop is deferred so that the handler's first schedule() can
  /// replace the root in one sift-down instead of a pop and a push.
  bool fired_at_root_ VINI_GUARDED_BY(shard_) = false;

  ProfileHook profiler_ VINI_GUARDED_BY(shard_);
  AdvanceHook advance_ VINI_GUARDED_BY(shard_);

  // Per-node attribution state.  All passive counters: they never feed
  // back into event order, so a run is byte-identical with or without
  // node-attributed schedules.
  /// Interned node names; a NodeTag indexes this table.
  // cross-shard: one table for every lane; a tag is its lane's index.
  std::vector<std::string> node_tag_names_ VINI_GUARDED_BY(shard_);
  /// Events executed per node tag (same indexing as node_tag_names_).
  std::vector<std::uint64_t> node_executed_ VINI_GUARDED_BY(shard_);
  std::uint64_t executed_unattributed_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t same_node_scheduled_ VINI_GUARDED_BY(shard_) = 0;
  std::uint64_t cross_node_scheduled_ VINI_GUARDED_BY(shard_) = 0;
  Duration min_cross_delay_ VINI_GUARDED_BY(shard_) = 0;
  /// Node attribution of the handler currently executing (kNoNode
  /// outside step() or under an unattributed handler).
  NodeTag exec_node_ VINI_GUARDED_BY(shard_) = kNoNode;

  // -- Sharded dispatch -------------------------------------------------------
  //
  // Worker lanes reach the queue through the same public API as the
  // rest of the simulation; a thread-local context installed around
  // lane execution reroutes now()/schedule()/cancel() to the lane's
  // local state (defined in shard.cc, where the lane types are
  // complete).  The context is per (thread, queue): a worker executing
  // for queue A leaves any other queue's behavior untouched.
  struct ShardWorkerCtx {
    const EventQueue* queue = nullptr;
    void* lane = nullptr;  ///< ShardRuntime::Lane*
    int lane_index = -1;
  };
  static thread_local ShardWorkerCtx worker_ctx_;  // defined in event_queue.cc

  Time workerNow() const;
  EventId workerSchedule(Time when, const char* tag, NodeTag node,
                         Callback cb);
  bool workerCancel(EventId id);
  /// cancel() body for the main thread (the classic path plus
  /// translation of worker-issued sharded ids).
  bool cancelMain(EventId id, bool audit);

  /// Worker threads requested at construction (0 = classic engine).
  int shard_threads_ = 0;
  /// Set by finalizeSharding(): interning new node tags afterwards is a
  /// V106 audit error (the lane set must stay frozen).
  bool tags_frozen_ VINI_GUARDED_BY(shard_) = false;
  std::unique_ptr<ShardRuntime> shard_rt_;
};

/// A repeating timer built on EventQueue; cancels cleanly on destruction.
///
/// Used by protocol implementations (OSPF hellos, BGP keepalives, traffic
/// generators) that need a periodic callback which can be rescheduled or
/// stopped at any point.
class PeriodicTimer {
 public:
  PeriodicTimer(EventQueue& queue, Duration period, std::function<void()> fn)
      : queue_(queue), period_(period), fn_(std::move(fn)) {}
  /// Node-attributed variant: firings carry the profiler tag and the
  /// owning node, so a sharded engine keeps them on the node's lane
  /// instead of forcing a serial round.
  PeriodicTimer(EventQueue& queue, Duration period, const char* tag,
                NodeTag node, std::function<void()> fn)
      : queue_(queue), period_(period), fn_(std::move(fn)), tag_(tag),
        node_(node) {}
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Arm the timer; first firing occurs one period from now.
  void start();
  /// Disarm the timer; no further firings.
  void stop();
  /// Change the period; takes effect from the next (re)scheduling.
  void setPeriod(Duration period) { period_ = period; }
  Duration period() const { return period_; }
  bool running() const { return running_; }

 private:
  void fire();

  EventQueue& queue_;
  Duration period_;
  std::function<void()> fn_;
  const char* tag_ = nullptr;
  NodeTag node_ = kNoNode;
  EventId pending_ = 0;
  bool running_ = false;
};

/// A one-shot timer that can be re-armed; models protocol hold timers
/// (e.g. the OSPF router-dead interval) that are repeatedly pushed back.
class OneShotTimer {
 public:
  OneShotTimer(EventQueue& queue, std::function<void()> fn)
      : queue_(queue), fn_(std::move(fn)) {}
  /// Node-attributed variant (see PeriodicTimer).
  OneShotTimer(EventQueue& queue, const char* tag, NodeTag node,
               std::function<void()> fn)
      : queue_(queue), fn_(std::move(fn)), tag_(tag), node_(node) {}
  ~OneShotTimer() { cancel(); }

  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;

  /// (Re)arm the timer to fire `delay` from now, replacing any pending firing.
  void armAfter(Duration delay);
  /// Disarm; no firing until re-armed.
  void cancel();
  bool pending() const { return pending_ != 0; }

 private:
  EventQueue& queue_;
  std::function<void()> fn_;
  const char* tag_ = nullptr;
  NodeTag node_ = kNoNode;
  EventId pending_ = 0;
};

}  // namespace vini::sim
