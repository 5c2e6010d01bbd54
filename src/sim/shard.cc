// Conservative-lookahead sharded execution (see shard.h for the
// architecture and the determinism argument).
//
// Thread roles, per round:
//
//   main    peekLive/popMinRaw extraction (global order), barrier
//           apply, audits, counter folds — everything that mutates the
//           global priority structure or the slab.
//   workers execLane() over lane-local run lists / heaps / mailboxes,
//           plus *read-only* probes of the global slab (cancel liveness
//           checks).  The slab and priority structure are frozen for
//           the duration of a window, so those reads race with nothing.
//
// Hand-off points (all of which establish happens-before):
//   extraction -> workers   next_lane_ release store, acquired by the
//                           workers' fetch_add claims
//   workers -> barrier      done_ under mu_, awaited by the main thread
#include "sim/shard.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "check/audit.h"
#include "core/thread_annotations.h"

namespace vini::sim {

namespace {
constexpr Time kMaxTime = std::numeric_limits<Time>::max();
}  // namespace

ShardRuntime::ShardRuntime(EventQueue& queue, int threads)
    : queue_(queue), threads_(threads < 1 ? 1 : threads) {}

ShardRuntime::~ShardRuntime() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ShardRuntime::finalize(Duration lookahead) {
  queue_.shard_.assertHeld();
  lookahead_ = lookahead > 0 ? lookahead : 1;
  const std::size_t n = queue_.node_tag_names_.size();
  // The sharded id layout reserves an 8-bit lane band (lane + 1), so at
  // most 254 lanes fit; larger topologies need a wider band first.
  VINI_AUDIT_CHECK(
      n <= 254,
      (check::Diagnostic{check::Severity::kError, "V106", "shard runtime",
                         "more than 254 node lanes (sharded id lane band "
                         "is 8-bit)"}));
  lanes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    lanes_[i].index = static_cast<std::uint32_t>(i);
  }
  active_.reserve(n);
  // The main thread participates, so N requested contexts mean N - 1
  // spawned workers; extra workers beyond the lane count just idle.
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

void ShardRuntime::runUntil(Time deadline) {
  queue_.shard_.assertHeld();
  EventQueue& q = queue_;
  for (;;) {
    const EventQueue::Key* top = q.peekLive();
    if (top == nullptr || top->when() > deadline) break;
    const Time anchor = top->when();
    // Advance global time to the window anchor first: the sampler (the
    // advance hook's client) observes boundary state here, on the main
    // thread, with every worker quiescent.
    if (anchor > q.now_) {
      if (q.advance_) q.advance_(q.now_, anchor);
      q.now_ = anchor;
    }
    roundAt(anchor, deadline);
  }
  if (q.now_ < deadline) {
    if (q.advance_) q.advance_(q.now_, deadline);
    q.now_ = deadline;
  }
}

void ShardRuntime::roundAt(Time anchor, Time deadline) {
  queue_.shard_.assertHeld();
  EventQueue& q = queue_;
  Time horizon =
      anchor > kMaxTime - lookahead_ ? kMaxTime : anchor + lookahead_;
  // runUntil()'s contract: nothing past the deadline executes.
  if (deadline < kMaxTime && horizon > deadline + 1) horizon = deadline + 1;

  // Extract every node-attributed event below the horizon, in the
  // global deterministic (when, id) order — the extraction sequence,
  // and therefore each lane's run list, is a pure function of the
  // event stream.  An unattributed (kNoNode) event stops the window:
  // those execute serially between windows, where they may touch
  // global state.
  std::size_t extracted = 0;
  for (;;) {
    const EventQueue::Key* top = q.peekLive();
    if (top == nullptr || top->when() >= horizon) break;
    const std::uint32_t slot = EventQueue::slotOf(top->id());
    const NodeTag node = q.slots_[slot].node;
    if (node == kNoNode || node >= lanes_.size()) {
      if (extracted == 0) {
        q.step();  // a lone serial event; the next round re-anchors
        ++critical_path_events_;
        return;
      }
      horizon = top->when();  // the serial event bounds this window
      break;
    }
    const EventQueue::Key key = q.popMinRaw();
    Lane& lane = lanes_[node];
    if (!lane.active) {
      lane.active = true;
      lane.local_now = anchor;
      active_.push_back(&lane);
    }
    EventQueue::Slot& s = q.slots_[slot];
    lane.run.push_back(RunEntry{std::move(s.cb), s.tag, key.when(), key.id(),
                                false});
    q.releaseSlot(slot);
    --q.live_;
    ++extracted;
  }
  if (extracted == 0) return;

  window_end_ = horizon;
  ++rounds_;
  applyBarrier(dispatchLanes());
}

std::size_t ShardRuntime::dispatchLanes() {
  queue_.shard_.assertHeld();
  const bool hooks = static_cast<bool>(queue_.profiler_);
  core::beginShardParallelPhase();
  std::size_t lane_threads = 1;
  if (threads_ <= 1 || hooks || active_.size() <= 1) {
    // Serial lane execution — canonically equivalent, because lanes
    // are independent within a window, and required when the profiling
    // hook (which is not thread-safe) is installed.
    for (Lane* lane : active_) execLane(*lane, hooks);
  } else {
    lane_threads = static_cast<std::size_t>(threads_);
    const std::size_t count = active_.size();
    std::uint64_t round = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      round = ++round_;
      // The release store publishes the extraction writes to workers
      // that claim lanes through the cursor; ordering it inside the
      // lock means a worker that wakes on round_ always sees it.  The
      // round tag in the cursor invalidates any straggler claim still
      // in flight from the previous round.
      cursor_.store(round << kCursorRoundShift, std::memory_order_release);
      active_count_ = count;
      done_ = 0;
    }
    cv_work_.notify_all();
    claimLanes(false, count, round);
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return done_ == count; });
  }
  core::endShardParallelPhase();
  return lane_threads;
}

bool ShardRuntime::claimSlot(std::uint64_t round, std::size_t count,
                             std::size_t& out) {
  std::uint64_t cur = cursor_.load(std::memory_order_acquire);
  for (;;) {
    if ((cur >> kCursorRoundShift) != round) return false;  // stale round
    const std::size_t i = static_cast<std::size_t>(cur & kCursorIndexMask);
    if (i >= count) return false;  // round exhausted
    if (cursor_.compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      out = i;
      return true;
    }
  }
}

void ShardRuntime::claimLanes(bool run_hooks, std::size_t count,
                              std::uint64_t round) {
  std::size_t i = 0;
  while (claimSlot(round, count, i)) {
    execLane(*active_[i], run_hooks);
    bool all_done = false;
    {
      std::lock_guard<std::mutex> lk(mu_);
      // done_ belongs to the round the claim validated; a stale thread
      // can no longer get here, so the count is exact.
      ++done_;
      all_done = done_ == count;
    }
    if (all_done) cv_done_.notify_all();
  }
}

void ShardRuntime::workerLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stop_ || round_ != seen; });
      if (stop_) return;
      seen = round_;
      count = active_count_;
    }
    claimLanes(false, count, seen);
  }
}

void ShardRuntime::execLane(Lane& lane, bool run_hooks) {
  // Install the lane context: the ShardToken claims every engine
  // object this lane touches for the duration of the window, and the
  // queue's public API reroutes to the lane-local state below.
  core::setShardContext((static_cast<std::uint64_t>(lane.index) + 1) * 2);
  EventQueue::worker_ctx_ =
      EventQueue::ShardWorkerCtx{&queue_, &lane, static_cast<int>(lane.index)};
  for (;;) {
    while (lane.run_head < lane.run.size() && lane.run[lane.run_head].dead) {
      ++lane.run_head;
    }
    const bool have_run = lane.run_head < lane.run.size();
    bool use_local = false;
    if (!lane.lheap.empty()) {
      if (!have_run ||
          lane.lheap.front().when < lane.run[lane.run_head].when) {
        // Timestamp ties go to the run list: extracted events carry
        // earlier global ids than anything scheduled inside the
        // window, so this is exactly the classic FIFO tie-break.
        use_local = true;
      }
    } else if (!have_run) {
      break;
    }
    EventQueue::Callback cb;
    const char* tag = nullptr;
    Time when = 0;
    if (use_local) {
      std::pop_heap(lane.lheap.begin(), lane.lheap.end(), localKeyAfter);
      const LocalKey lk = lane.lheap.back();
      lane.lheap.pop_back();
      LocalEvent& ev = lane.lslab[lk.idx];
      if (!ev.live) {  // cancelled inside the window
        lane.lfree.push_back(lk.idx);
        continue;
      }
      cb = std::move(ev.cb);
      tag = ev.tag;
      when = lk.when;
      ev.cb.reset();
      ev.live = false;
      lane.lfree.push_back(lk.idx);
    } else {
      RunEntry& e = lane.run[lane.run_head++];
      cb = std::move(e.cb);
      tag = e.tag;
      when = e.when;
    }
    // Lane-local monotonicity (the V100 invariant, deferred: workers
    // never touch the audit sink — the barrier raises it).
    if (when < lane.local_now) lane.monotonic_violation = true;
    lane.local_now = when;
    ++lane.executed;
    if (run_hooks && queue_.profiler_) {
      const auto start = std::chrono::steady_clock::now();
      cb();
      const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      // The callback may have detached the profiler; re-check.
      if (queue_.profiler_) {
        queue_.profiler_(tag, static_cast<NodeTag>(lane.index), wall);
      }
    } else {
      cb();
    }
  }
  lane.run.clear();
  lane.run_head = 0;
  EventQueue::worker_ctx_ = EventQueue::ShardWorkerCtx{};
  core::setShardContext(0);
}

EventId ShardRuntime::workerSchedule(Lane& lane, Time when, const char* tag,
                                     NodeTag node, EventQueue::Callback cb) {
  if (when < lane.local_now) when = lane.local_now;
  // Same accounting the classic engine keeps in schedule(): a lane
  // handler is by construction attributed to the lane's node.
  if (node != kNoNode) {
    if (node == lane.index) {
      ++lane.same_sched;
    } else {
      const Duration delay = when - lane.local_now;
      if (lane.cross_sched == 0 || delay < lane.min_cross_delay) {
        lane.min_cross_delay = delay;
      }
      ++lane.cross_sched;
    }
  }
  if (node == lane.index && when < window_end_) {
    // Same lane, inside the window: executes locally, this round.
    std::uint32_t idx;
    if (!lane.lfree.empty()) {
      idx = lane.lfree.back();
      lane.lfree.pop_back();
    } else {
      idx = static_cast<std::uint32_t>(lane.lslab.size());
      lane.lslab.emplace_back();
    }
    LocalEvent& ev = lane.lslab[idx];
    ev.cb = std::move(cb);
    ev.tag = tag;
    ev.when = when;
    ev.seq = lane.local_seq++ & 0x7FFFFFFFu;  // id carries 31 seq bits
    ev.live = true;
    lane.lheap.push_back(LocalKey{when, lane.local_rank++, idx});
    std::push_heap(lane.lheap.begin(), lane.lheap.end(), localKeyAfter);
    return localId(lane.index, ev.seq, idx);
  }
  // Everything else — same-lane beyond the horizon, cross-lane,
  // unattributed — is staged and merged into the global structure at
  // the barrier, in deterministic lane-major issue order.
  const EventId id = stagedId(lane.index, lane.staged_seq++);
  lane.staged.push_back(StagedOp{when, tag, node, std::move(cb), id, false});
  return id;
}

bool ShardRuntime::workerCancel(Lane& lane, EventId id) {
  if (id == 0) return false;
  if (isShardId(id)) {
    const std::uint32_t id_lane = laneOf(id);
    if (id_lane != lane.index) {
      // Another lane's handle: resolution must wait for the barrier
      // (its window-local state is not ours to touch).  Report "not
      // cancelled" — if the event is window-local it executes anyway,
      // and a staged target is cancelled quietly at the barrier.
      ++lane.cross_cancels;
      lane.staged_cancels.push_back(id);
      return false;
    }
    if ((id & kStagedBit) != 0) {
      // Our own staged id: still in this round's mailbox, or already
      // remapped to a global id by an earlier barrier.
      for (auto it = lane.staged.rbegin(); it != lane.staged.rend(); ++it) {
        if (it->staged_id == id) {
          if (it->cancelled) {
            ++lane.stale_cancels;
            return false;
          }
          it->cancelled = true;
          it->cb.reset();
          return true;
        }
      }
      const auto it = staged_id_map_.find(id);  // frozen during windows
      if (it == staged_id_map_.end()) {
        ++lane.stale_cancels;
        return false;
      }
      return stageGlobalCancel(lane, it->second);
    }
    // Our own window-local id.
    const std::uint32_t idx = static_cast<std::uint32_t>(id & 0xFFFFFFu);
    const std::uint32_t seq =
        static_cast<std::uint32_t>(id >> 24) & 0x7FFFFFFFu;
    if (idx >= lane.lslab.size() || !lane.lslab[idx].live ||
        lane.lslab[idx].seq != seq) {
      ++lane.stale_cancels;
      return false;
    }
    lane.lslab[idx].live = false;
    lane.lslab[idx].cb.reset();
    return true;
  }
  // A classic id: it may sit in our own run list (extracted this
  // round), or still in the (frozen) global structure.
  for (std::size_t i = lane.run_head; i < lane.run.size(); ++i) {
    if (lane.run[i].id == id) {
      if (lane.run[i].dead) {
        ++lane.stale_cancels;
        return false;
      }
      lane.run[i].dead = true;
      lane.run[i].cb.reset();
      return true;
    }
  }
  for (std::size_t i = 0; i < lane.run_head; ++i) {
    if (lane.run[i].id == id) {
      ++lane.stale_cancels;  // already executed inside this window
      return false;
    }
  }
  return stageGlobalCancel(lane, id);
}

bool ShardRuntime::stageGlobalCancel(Lane& lane, EventId real) {
  // The global slab is frozen for the window, so this read races with
  // nothing; the mutation itself waits for the barrier.
  const std::uint32_t slot = EventQueue::slotOf(real);
  if (slot >= queue_.slots_.size() || queue_.slots_[slot].id != real) {
    ++lane.stale_cancels;  // fired, cancelled, or extracted to a lane
    return false;
  }
  lane.staged_cancels.push_back(real);
  return true;
}

bool ShardRuntime::mainCancel(EventId id) {
  queue_.shard_.assertHeld();
  if ((id & kStagedBit) != 0) {
    const auto it = staged_id_map_.find(id);
    if (it != staged_id_map_.end()) {
      return queue_.cancelMain(it->second, /*audit=*/true);
    }
  }
  // A window-local id, or a staged id whose event already resolved:
  // the deterministic stale-handle path, same contract as classic.
  VINI_AUDIT_CHECK(
      false,
      (check::Diagnostic{check::Severity::kWarning, "V101",
                         "event " + std::to_string(id),
                         "cancel() of a sharded event that already fired or "
                         "was already cancelled"}));
  return false;
}

void ShardRuntime::dropAlias(EventId staged_id) {
  staged_id_map_.erase(staged_id);
}

void ShardRuntime::applyBarrier(std::size_t lane_threads) {
  queue_.shard_.assertHeld();
  EventQueue& q = queue_;
  // Phase 1: staged schedules, lane-major then issue order — a fixed
  // merge order, independent of worker interleaving, so the global
  // sequence numbers (and every later FIFO tie-break) are too.
  std::uint64_t round_violations = 0;
  for (Lane* lp : active_) {
    for (StagedOp& op : lp->staged) {
      if (op.cancelled) continue;
      if (op.when < window_end_) {
        // A cross-lane event landed inside the conservative window:
        // the lookahead bound (min cross-node propagation) was not
        // respected by some schedule.  Execution stays deterministic —
        // the event runs at its true time in a later round — but the
        // target lane may already have acted past it, so flag it.
        if (op.node != kNoNode) {
          ++round_violations;
        } else {
          ++deferred_unattributed_;
        }
      }
      const EventId real =
          q.schedule(op.when, op.tag, op.node, std::move(op.cb));
      q.slots_[EventQueue::slotOf(real)].alias = op.staged_id;
      staged_id_map_.emplace(op.staged_id, real);
    }
    lp->staged.clear();
  }
  VINI_AUDIT_CHECK(
      round_violations == 0,
      (check::Diagnostic{
          check::Severity::kWarning, "V108",
          "shard round " + std::to_string(rounds_),
          std::to_string(round_violations) +
              " cross-lane event(s) scheduled inside the conservative "
              "lookahead window"}));
  lookahead_violations_ += round_violations;
  // Phase 2: staged cancels, same order.  Quiet: a target that already
  // resolved is the expected outcome of a deferred cancel, not V101.
  for (Lane* lp : active_) {
    for (const EventId id : lp->staged_cancels) {
      if (isShardId(id)) {
        if ((id & kStagedBit) != 0) {
          const auto it = staged_id_map_.find(id);
          if (it != staged_id_map_.end()) {
            q.cancelMain(it->second, /*audit=*/false);
          }
        }
        // A foreign window-local id died with its window: stale, done.
      } else {
        q.cancelMain(id, /*audit=*/false);
      }
    }
    lp->staged_cancels.clear();
  }
  raiseBarrierAudits();
  // Phase 3: fold per-lane tallies into the queue's telemetry (the
  // same counters the classic engine keeps inline) and reset.  The
  // round's critical path is its heaviest lane, or its events spread
  // evenly over the threads that ran them if that is longer.
  std::uint64_t round_events = 0;
  std::uint64_t heaviest = 0;
  for (Lane* lp : active_) {
    Lane& lane = *lp;
    round_events += lane.executed;
    heaviest = std::max(heaviest, lane.executed);
    q.executed_ += lane.executed;
    q.node_executed_[lane.index] += lane.executed;
    q.same_node_scheduled_ += lane.same_sched;
    if (lane.cross_sched != 0) {
      if (q.cross_node_scheduled_ == 0 ||
          lane.min_cross_delay < q.min_cross_delay_) {
        q.min_cross_delay_ = lane.min_cross_delay;
      }
      q.cross_node_scheduled_ += lane.cross_sched;
    }
    cross_lane_cancels_ += lane.cross_cancels;
    lane.executed = 0;
    lane.same_sched = 0;
    lane.cross_sched = 0;
    lane.min_cross_delay = 0;
    lane.stale_cancels = 0;
    lane.bad_cancels = 0;
    lane.cross_cancels = 0;
    lane.monotonic_violation = false;
    lane.local_rank = 0;
    lane.active = false;
  }
  critical_path_events_ +=
      std::max(heaviest, (round_events + lane_threads - 1) / lane_threads);
  active_.clear();
}

void ShardRuntime::raiseBarrierAudits() {
#if VINI_AUDIT_ENABLED
  std::uint64_t stale = 0;
  bool monotonic_ok = true;
  for (const Lane* lp : active_) {
    stale += lp->stale_cancels;
    if (lp->monotonic_violation) monotonic_ok = false;
  }
  VINI_AUDIT_CHECK(
      monotonic_ok,
      (check::Diagnostic{check::Severity::kError, "V100",
                         "shard round " + std::to_string(rounds_),
                         "lane-local time ran backwards inside a window"}));
  VINI_AUDIT_CHECK(
      stale == 0,
      (check::Diagnostic{
          check::Severity::kWarning, "V109",
          "shard round " + std::to_string(rounds_),
          std::to_string(stale) +
              " cancel(s) of already-resolved events inside worker lanes"}));
#endif
}

// -- EventQueue's worker-context trampolines ---------------------------------
//
// Defined here, where ShardRuntime::Lane is complete.

Time EventQueue::workerNow() const {
  const auto* lane =
      static_cast<const ShardRuntime::Lane*>(worker_ctx_.lane);
  return lane->local_now;
}

EventId EventQueue::workerSchedule(Time when, const char* tag, NodeTag node,
                                   Callback cb) {
  auto* lane = static_cast<ShardRuntime::Lane*>(worker_ctx_.lane);
  return shard_rt_->workerSchedule(*lane, when, tag, node, std::move(cb));
}

bool EventQueue::workerCancel(EventId id) {
  auto* lane = static_cast<ShardRuntime::Lane*>(worker_ctx_.lane);
  return shard_rt_->workerCancel(*lane, id);
}

}  // namespace vini::sim
