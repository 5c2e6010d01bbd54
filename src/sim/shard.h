// Parallel sharded execution for the EventQueue.
//
// The ShardRuntime shards a run across worker threads by physical node
// (one *lane* per interned NodeTag) with conservative lookahead
// windows:
//
//   * Each round anchors a window at T (the earliest pending event) and
//     closes it at b1 = T + W, where W is the minimum cross-node link
//     propagation delay (PhysNetwork::minPropagation()).  Every
//     node-attributed event with timestamp < b1 is extracted — in the
//     global deterministic (when, id) order — into its lane's run list.
//   * Lanes execute concurrently on a pool of workers (work-stealing
//     over an atomic cursor; the main thread participates).  An event a
//     lane schedules onto *its own* node inside the window executes
//     locally, in a window-local heap; everything else — same-lane
//     events at or beyond b1, cross-lane events (which conservative
//     lookahead guarantees land at >= b1), unattributed events — is
//     staged in per-lane mailboxes.
//   * At the barrier the main thread applies the mailboxes in a fixed
//     order (lane by lane, issue order within a lane), so the global
//     structure's contents — and therefore every later window — are
//     independent of worker interleaving.
//   * Events with no owning node (kNoNode: fault injections, topology
//     reroutes, protocol timers that never took a node tag) execute
//     serially on the main thread between windows, where they may
//     safely touch global state.
//
// Determinism: lane assignment (by node tag), extraction order (global
// (when, id) order), intra-lane execution order ((when, rank) with
// ranks that encode the classic FIFO tie-break), and barrier merge
// order (lane-major, issue-order) are all pure functions of the event
// stream — never of thread count or OS scheduling.  Same seed, same
// bytes, any --threads value; scripts/check.sh stage 5h byte-diffs
// 1-, 2- and 8-thread exports to enforce it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.h"

namespace vini::sim {

class ShardRuntime {
 public:
  ShardRuntime(EventQueue& queue, int threads);
  ~ShardRuntime();

  ShardRuntime(const ShardRuntime&) = delete;
  ShardRuntime& operator=(const ShardRuntime&) = delete;

  /// Freeze the lane set (one lane per interned node tag), fix the
  /// conservative lookahead window, and spawn the worker pool.  Must be
  /// called after every component interned its node tag and before the
  /// first sharded runUntil().
  void finalize(Duration lookahead);
  bool finalized() const { return !lanes_.empty(); }

  int threads() const { return threads_; }
  std::size_t laneCount() const { return lanes_.size(); }
  Duration lookahead() const { return lookahead_; }

  /// Rounds executed and the counters the determinism audits fold in.
  std::uint64_t roundsExecuted() const { return rounds_; }
  std::uint64_t lookaheadViolations() const { return lookahead_violations_; }
  std::uint64_t deferredUnattributed() const { return deferred_unattributed_; }
  std::uint64_t crossLaneCancels() const { return cross_lane_cancels_; }
  /// See EventQueue::criticalPathEvents().
  std::uint64_t criticalPathEvents() const { return critical_path_events_; }

  // -- Sharded id layout ------------------------------------------------------
  //
  // Ids the runtime issues from worker context carry a lane band in the
  // top byte so they can never collide with the classic
  // [seq:40|slot:24] encoding (whose top byte stays zero while
  // next_seq_ < 2^31, audited in sharded mode):
  //
  //   window-local: [lane+1 : 8 | 0 : 1 | seq : 31 | slab index : 24]
  //   staged:       [lane+1 : 8 | 1 : 1 | seq : 55]
  //
  // A staged id is remapped to the real global id the barrier apply
  // assigns (staged_id_map_), so handles stay cancellable forever; a
  // window-local id dies with its window and any later cancel is the
  // deterministic stale-handle path.
  static constexpr unsigned kLaneShift = 56;
  static constexpr std::uint64_t kStagedBit = 1ull << 55;
  static bool isShardId(EventId id) { return (id >> kLaneShift) != 0; }

 private:
  friend class EventQueue;

  struct RunEntry {
    EventQueue::Callback cb;
    const char* tag = nullptr;
    Time when = 0;
    EventId id = 0;
    bool dead = false;
  };

  struct LocalEvent {
    EventQueue::Callback cb;
    const char* tag = nullptr;
    Time when = 0;
    std::uint32_t seq = 0;  ///< generation check for window-local ids
    bool live = false;
  };

  /// Window-local heap key: rank is the lane's issue order, which is
  /// the classic FIFO tie-break among window-local events (run-list
  /// entries always win timestamp ties — they carry earlier global
  /// ids than anything scheduled inside the window).
  struct LocalKey {
    Time when = 0;
    std::uint64_t rank = 0;
    std::uint32_t idx = 0;
  };
  /// Comparator for std::push_heap/pop_heap (a min-heap needs "after").
  static bool localKeyAfter(const LocalKey& a, const LocalKey& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.rank > b.rank;
  }

  struct StagedOp {
    Time when = 0;
    const char* tag = nullptr;
    NodeTag node = kNoNode;
    EventQueue::Callback cb;
    EventId staged_id = 0;
    bool cancelled = false;
  };

  struct Lane {
    std::uint32_t index = 0;  ///< == the NodeTag this lane owns

    // Filled by the main thread during extraction, drained by exec.
    std::vector<RunEntry> run;
    std::size_t run_head = 0;

    // Window-local events (same lane, timestamp inside the window).
    std::vector<LocalKey> lheap;
    std::vector<LocalEvent> lslab;
    std::vector<std::uint32_t> lfree;
    std::uint64_t local_rank = 0;

    // Mailboxes the barrier applies in deterministic order.
    std::vector<StagedOp> staged;
    std::vector<EventId> staged_cancels;

    Time local_now = 0;
    bool active = false;

    // Persistent id generators (ids must stay unique across rounds).
    std::uint32_t local_seq = 1;
    std::uint64_t staged_seq = 1;

    // Per-round results, folded into the queue's counters at the
    // barrier (workers never touch shared counters or the audit sink).
    std::uint64_t executed = 0;
    std::uint64_t same_sched = 0;
    std::uint64_t cross_sched = 0;
    Duration min_cross_delay = 0;
    std::uint64_t stale_cancels = 0;
    std::uint64_t bad_cancels = 0;
    std::uint64_t cross_cancels = 0;
    bool monotonic_violation = false;
  };

  // -- Main-thread round machinery -------------------------------------------
  void runUntil(Time deadline);
  /// One round at window anchor T: either a single serial (kNoNode)
  /// step or a full extract / parallel-execute / barrier-apply cycle.
  void roundAt(Time T, Time deadline);
  /// Execute the active lanes; returns how many threads ran them.
  std::size_t dispatchLanes();
  void applyBarrier(std::size_t lane_threads);
  void raiseBarrierAudits();

  // -- Worker-side entry points (reached via EventQueue's dispatch) -----------
  //
  // These run on worker threads against lane-local state (plus frozen
  // reads of the global slab), outside the static analysis's capability
  // model; the runtime ShardToken epochs police them instead.
  Time workerNow(const Lane& lane) const { return lane.local_now; }
  EventId workerSchedule(Lane& lane, Time when, const char* tag, NodeTag node,
                         EventQueue::Callback cb) VINI_NO_THREAD_SAFETY_ANALYSIS;
  bool workerCancel(Lane& lane, EventId id) VINI_NO_THREAD_SAFETY_ANALYSIS;
  /// Stage a cancel of a classic (global-structure) id from a lane:
  /// reads the frozen slab to answer the caller, defers the mutation.
  bool stageGlobalCancel(Lane& lane, EventId real)
      VINI_NO_THREAD_SAFETY_ANALYSIS;

  /// Cancel of a sharded id arriving on the main thread (a serial-burst
  /// handler cancelling a worker-issued handle).
  bool mainCancel(EventId id);
  void dropAlias(EventId staged_id);

  void execLane(Lane& lane, bool run_hooks) VINI_NO_THREAD_SAFETY_ANALYSIS;
  /// Work-steal lanes off the cursor.  `count` is the round's lane
  /// count and `round` its generation, both snapshotted under mu_ —
  /// workers must never read active_ directly (a straggler's last
  /// empty probe could race the main thread's post-round cleanup).
  void claimLanes(bool run_hooks, std::size_t count, std::uint64_t round);
  /// CAS-claim the next lane index of `round`, or return false if the
  /// cursor has moved to a later round or the round is exhausted.  A
  /// plain fetch_add cursor is not enough: a straggler's leftover
  /// increment from round N would silently consume — and with a stale,
  /// smaller lane count, *skip* — a slot of round N+1, deadlocking the
  /// barrier (observed on a single-core host, where the descheduling
  /// window between a worker's last execLane and its final empty probe
  /// is wide).
  bool claimSlot(std::uint64_t round, std::size_t count, std::size_t& out);
  void workerLoop();

  static EventId localId(std::uint32_t lane, std::uint32_t seq,
                         std::uint32_t idx) {
    return (static_cast<EventId>(lane + 1) << kLaneShift) |
           (static_cast<EventId>(seq & 0x7FFFFFFFu) << 24) | idx;
  }
  static EventId stagedId(std::uint32_t lane, std::uint64_t seq) {
    return (static_cast<EventId>(lane + 1) << kLaneShift) | kStagedBit |
           (seq & (kStagedBit - 1));
  }
  static std::uint32_t laneOf(EventId id) {
    return static_cast<std::uint32_t>(id >> kLaneShift) - 1;
  }

  EventQueue& queue_;
  const int threads_;
  Duration lookahead_ = 1;
  std::vector<Lane> lanes_;

  /// staged id -> real global id, populated at barrier apply, erased
  /// when the real event fires or is cancelled (Slot::alias back-ref).
  std::unordered_map<EventId, EventId> staged_id_map_;

  std::uint64_t rounds_ = 0;
  std::uint64_t lookahead_violations_ = 0;
  std::uint64_t deferred_unattributed_ = 0;
  std::uint64_t cross_lane_cancels_ = 0;
  std::uint64_t critical_path_events_ = 0;

  // Pool state.  No waits are timed (srclint V203): workers block on
  // the round counter and the main thread blocks on the done counter.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t round_ = 0;
  bool stop_ = false;
  std::vector<Lane*> active_;
  /// active_.size() snapshotted under mu_ for the live round; the only
  /// lane-count value worker threads may read.
  std::size_t active_count_ = 0;
  /// Round-tagged work cursor: (round << kCursorRoundShift) | index.
  /// The 20-bit index band bounds claims per round at ~1M — lanes cap
  /// at 254 and each participant adds at most one empty probe, so the
  /// band never saturates; 44 round bits outlast any plausible run.
  static constexpr unsigned kCursorRoundShift = 20;
  static constexpr std::uint64_t kCursorIndexMask =
      (std::uint64_t{1} << kCursorRoundShift) - 1;
  std::atomic<std::uint64_t> cursor_{0};
  std::size_t done_ = 0;
  Time window_end_ = 0;
};

}  // namespace vini::sim
