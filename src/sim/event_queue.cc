#include "sim/event_queue.h"

#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "check/audit.h"
#include "sim/shard.h"

namespace vini::sim {

thread_local EventQueue::ShardWorkerCtx EventQueue::worker_ctx_;

EventQueue::EventQueue() : EventQueue(0) {}

EventQueue::EventQueue(int threads)
    : shard_threads_(threads > 0 ? threads : 0) {
  shard_.assertHeld();
}

EventQueue::~EventQueue() {
  // Join the worker pool first: no other thread may touch the queue
  // while it tears down.
  shard_rt_.reset();
  // Drain stored callbacks while every member is still alive: dropping
  // a callback can destroy the last owner of a component (e.g. a TCP
  // connection kept alive only by its pending retransmit event), and
  // that component's destructor may cancel() its own timers on this
  // queue.  With tearing_down_ set those cancels return without
  // touching the slab or the priority structure.
  tearing_down_ = true;
  for (Slot& slot : slots_) slot.cb.reset();
}

void EventQueue::finalizeSharding(Duration lookahead) {
  shard_.assertHeld();
  if (shard_threads_ <= 0 || shard_rt_ != nullptr) return;
  tags_frozen_ = true;
  shard_rt_ = std::make_unique<ShardRuntime>(*this, shard_threads_);
  shard_rt_->finalize(lookahead);
}

std::size_t EventQueue::shardLaneCount() const {
  return shard_rt_ ? shard_rt_->laneCount() : 0;
}

std::uint64_t EventQueue::criticalPathEvents() const {
  shard_.assertHeld();
  return shard_rt_ ? shard_rt_->criticalPathEvents() : executed_;
}

std::uint32_t EventQueue::allocSlot() {
  if (free_slots_.empty()) {
    // The id encoding caps the slab at 2^24 concurrent events; a
    // simulation needing more has almost certainly leaked events.
    VINI_AUDIT_CHECK(
        slots_.size() <= kSlotMask,
        (check::Diagnostic{check::Severity::kError, "V104", "event queue",
                           "more than 2^24 concurrent pending events"}));
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void EventQueue::releaseSlot(std::uint32_t slot) {
  slots_[slot].cb.reset();
  slots_[slot].tag = nullptr;
  slots_[slot].id = 0;
  if (slots_[slot].alias != 0) {
    if (shard_rt_) shard_rt_->dropAlias(slots_[slot].alias);
    slots_[slot].alias = 0;
  }
  slots_[slot].node = kNoNode;
  free_slots_.push_back(slot);
}

NodeTag EventQueue::internNodeTag(const std::string& name) {
  shard_.assertHeld();
  for (std::size_t i = 0; i < node_tag_names_.size(); ++i) {
    if (node_tag_names_[i] == name) return static_cast<NodeTag>(i);
  }
  // V106: the lane set of a sharded run is frozen at finalizeSharding();
  // a *new* node name appearing afterwards would need a lane that does
  // not exist (its events would silently fall to the serial path).
  VINI_AUDIT_CHECK(
      !tags_frozen_,
      (check::Diagnostic{check::Severity::kError, "V106", "event queue",
                         "node tag '" + name +
                             "' interned after finalizeSharding froze the "
                             "lane set"}));
  // Linear scan: interning happens once per node at construction, and
  // topologies hold tens of nodes, not thousands.
  VINI_AUDIT_CHECK(
      node_tag_names_.size() < kNoNode,
      (check::Diagnostic{check::Severity::kError, "V105", "event queue",
                         "node tag table overflow (>= 65535 node names)"}));
  node_tag_names_.push_back(name);
  node_executed_.push_back(0);
  return static_cast<NodeTag>(node_tag_names_.size() - 1);
}

const std::string& EventQueue::nodeTagName(NodeTag tag) const {
  shard_.assertHeld();
  static const std::string kUnattributed = "-";
  if (tag == kNoNode || tag >= node_tag_names_.size()) return kUnattributed;
  return node_tag_names_[tag];
}

std::uint64_t EventQueue::nodeExecutedCount(NodeTag tag) const {
  shard_.assertHeld();
  if (tag == kNoNode || tag >= node_executed_.size()) return 0;
  return node_executed_[tag];
}

EventId EventQueue::schedule(Time when, const char* tag, NodeTag node,
                             Callback cb) {
  if (worker_ctx_.queue == this) {
    return workerSchedule(when, tag, node, std::move(cb));
  }
  shard_.assertHeld();
  if (when < now_) when = now_;
  // Sharded runs reserve the id's top byte for worker lane bands; the
  // classic encoding stays clear of it while the sequence fits 31 bits.
  if (shard_rt_) {
    VINI_AUDIT_CHECK(
        next_seq_ < (1ull << 31),
        (check::Diagnostic{check::Severity::kError, "V107", "event queue",
                           "sharded-mode event sequence space exhausted"}));
  }
  // Cross-node edge accounting: an attributed handler scheduling onto a
  // different attributed node is exactly the event a sharded engine
  // would have to hand off through a mailbox; its delay bounds the
  // conservative lookahead window.
  if (exec_node_ != kNoNode && node != kNoNode) {
    if (node == exec_node_) {
      ++same_node_scheduled_;
    } else {
      const Duration delay = when - now_;
      if (cross_node_scheduled_ == 0 || delay < min_cross_delay_) {
        min_cross_delay_ = delay;
      }
      ++cross_node_scheduled_;
    }
  }
  const std::uint32_t slot = allocSlot();
  const EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].cb = std::move(cb);
  slots_[slot].tag = tag;
  slots_[slot].id = id;
  slots_[slot].node = node;
  const Key key = Key::make(when, id);
  if (fired_at_root_) {
    // Replace-top: the fired key still at the root gives way to this
    // one, one sift-down instead of the deferred pop plus a push.
    fired_at_root_ = false;
    heap_[0] = key;
    heapSiftDown(0);
  } else {
    heapPush(key);
  }
  ++live_;
  if (live_ > peak_pending_) peak_pending_ = live_;
  if (heapSize() > peak_storage_) peak_storage_ = heapSize();
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (worker_ctx_.queue == this) return workerCancel(id);
  return cancelMain(id, /*audit=*/true);
}

bool EventQueue::cancelMain(EventId id, bool audit) {
  shard_.assertHeld();
  if (tearing_down_) return false;
  // A worker-issued id (lane band in the top byte) resolves through the
  // shard runtime's translation tables.
  if (shard_rt_ != nullptr && ShardRuntime::isShardId(id)) {
    return shard_rt_->mainCancel(id);
  }
  // Only events still awaiting execution can be cancelled: the handle
  // must still occupy its slab slot.
  const std::uint32_t slot = slotOf(id);
  if (id == 0 || slot >= slots_.size() || slots_[slot].id != id) {
    if (id != 0 && audit) {
      if (seqOf(id) == 0 || seqOf(id) >= next_seq_) {
        // V101 (error): this queue never issued `id` — the handle is
        // corrupt, crossed queues, or was fabricated.  Unlike
        // cancel-after-fire this can never be a benign race with the
        // event's own execution, so it is definitely a caller bug.
        VINI_AUDIT_CHECK(
            false,
            (check::Diagnostic{check::Severity::kError, "V101",
                               "event " + std::to_string(id),
                               "cancel() of an id this queue never issued"}));
      } else {
        // V101 (warning): cancelling an event that already fired (or was
        // already cancelled) is deterministic — it returns false — but
        // usually means the caller lost track of its handle.
        VINI_AUDIT_CHECK(
            false,
            (check::Diagnostic{check::Severity::kWarning, "V101",
                               "event " + std::to_string(id),
                               "cancel() of an event that already fired or "
                               "was already cancelled"}));
      }
    }
    return false;
  }
  // Release the callback — and any packet or component state it
  // captured — *now*; only a 16-byte tombstone key stays behind.
  releaseSlot(slot);
  --live_;
  ++dead_keys_;
  maybeCompact();
  return true;
}

void EventQueue::maybeCompact() {
  if (dead_keys_ * 2 <= storageCount()) return;
  // Tombstones outnumber live keys: rebuild without them.  Removal
  // cannot change pop order — (when, id) is a total order, so any heap
  // arrangement of the surviving keys pops identically.  A fired key
  // awaiting its deferred pop is dead too (its slot was released), so
  // the same sweep settles it.
  fired_at_root_ = false;
  heap_.resize(heapSize());
  std::erase_if(heap_, [this](const Key& k) { return !keyLive(k); });
  heap_.insert(heap_.end(), kHeapPad, kSentinel);
  heapRebuild();
  dead_keys_ = 0;
}

// -- 4-ary heap ---------------------------------------------------------------
//
// An implicit d-ary min-heap with d = 4: children of node i are
// 4i+1..4i+4, which span one or two cache lines of 16-byte keys, so a
// sift touches half the depth a binary heap would for the same size.
// Pops always extract the exact (when, id) minimum, so heap arity is
// invisible to the simulation.

namespace {

/// The earliest of four adjacent keys.  Two compares pick the winner of
/// each pair, a third picks between the winners; each result selects a
/// pointer (a conditional move), not a jump, so a sift-down costs no
/// mispredicted branch per level however the keys fall.
template <typename Key>
const Key* minOfFour(const Key* c) {
  const Key* a = c + (c[1].packed < c[0].packed);
  const Key* b = c + 2 + (c[3].packed < c[2].packed);
  return b->packed < a->packed ? b : a;
}

}  // namespace

void EventQueue::heapPush(Key k) {
  const std::size_t i = heapSize();
  heap_.push_back(kSentinel);  // keeps kHeapPad sentinels after key i
  heap_[i] = k;
  heapSiftUp(i);
}

void EventQueue::heapPopTop() {
  const std::size_t last = heapSize() - 1;
  heap_[0] = heap_[last];
  heap_[last] = kSentinel;
  heap_.pop_back();
  heapSiftDown(0);
}

void EventQueue::heapSiftUp(std::size_t i) {
  Key* h = heap_.data();
  const Key k = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(k.packed < h[parent].packed)) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = k;
}

void EventQueue::heapSiftDown(std::size_t i) {
  const std::size_t n = heapSize();
  Key* h = heap_.data();
  const Key k = h[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    // Children past the last key are sentinels, so all four compare.
    const Key* best = minOfFour(h + first);
    if (!(best->packed < k.packed)) break;
    h[i] = *best;
    i = static_cast<std::size_t>(best - h);
  }
  h[i] = k;
}

void EventQueue::heapRebuild() {
  if (heapSize() < 2) return;
  // Floyd: sift internal nodes down, deepest first.
  for (std::size_t i = (heapSize() - 2) / 4 + 1; i-- > 0;) {
    heapSiftDown(i);
  }
}

// -- Min extraction -----------------------------------------------------------

EventQueue::Key EventQueue::popMinRaw() {
  settleFiredRoot();
  const Key k = heap_.front();
  heapPopTop();
  return k;
}

const EventQueue::Key* EventQueue::peekLive() {
  settleFiredRoot();
  while (heapSize() != 0) {
    const Key& top = heap_.front();
    if (dead_keys_ == 0 || keyLive(top)) return &top;
    heapPopTop();
    --dead_keys_;
  }
  return nullptr;
}

bool EventQueue::step() {
  shard_.assertHeld();
  const Key* top = peekLive();
  if (top == nullptr) return false;
  fire(*top);
  return true;
}

void EventQueue::fire(Key key) {
  // The key stays at the root: the handler's first schedule() replaces
  // it, and whatever else touches the heap first settles the pop.
  fired_at_root_ = true;
  const EventId id = key.id();
  const Time when = key.when();
  const std::uint32_t slot = slotOf(id);
  // Move the callback out of the slab before invoking: the handler may
  // schedule events, growing slots_ and invalidating slab references.
  Callback cb = std::move(slots_[slot].cb);
  const char* tag = slots_[slot].tag;
  const NodeTag node = slots_[slot].node;
  releaseSlot(slot);
  --live_;
  // V100: simulation time is monotonic — schedule() clamps to now(),
  // so an earlier-than-now pop means the priority structure broke.
  VINI_AUDIT_CHECK(
      when >= now_,
      (check::Diagnostic{check::Severity::kError, "V100",
                         "event " + std::to_string(id),
                         "event timestamp " + std::to_string(when) +
                             " is earlier than now() " +
                             std::to_string(now_)}));
  if (advance_ && when > now_) advance_(now_, when);
  now_ = when;
  ++executed_;
  if (node != kNoNode) {
    ++node_executed_[node];
  } else {
    ++executed_unattributed_;
  }
  // Events the handler schedules are attributed as scheduled-from this
  // event's node; reset afterwards (step() does not nest).
  exec_node_ = node;
  if (profiler_) {
    // Wall clock is read only on the profiled path: an unprofiled
    // step() pays a single branch.
    const auto start = std::chrono::steady_clock::now();
    cb();
    const auto wall = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    // The callback may have detached the profiler; re-check.
    if (profiler_) profiler_(tag, node, wall);
  } else {
    cb();
  }
  exec_node_ = kNoNode;
  // A handler that scheduled nothing leaves the pop to finish here.
  settleFiredRoot();
}

void EventQueue::runUntil(Time deadline) {
  shard_.assertHeld();
  if (shard_rt_ != nullptr) {
    shard_rt_->runUntil(deadline);
    return;
  }
  while (const Key* top = peekLive()) {
    if (top->when() > deadline) break;
    fire(*top);
  }
  if (now_ < deadline) {
    if (advance_) advance_(now_, deadline);
    now_ = deadline;
  }
}

void EventQueue::run() {
  shard_.assertHeld();
  if (shard_rt_ != nullptr) {
    // Drain in lookahead-sized chunks so every window still spans the
    // full conservative horizon.
    const Duration w = shard_rt_->lookahead();
    constexpr Time kMax = std::numeric_limits<Time>::max();
    while (const Key* top = peekLive()) {
      const Time t = top->when();
      shard_rt_->runUntil(t > kMax - w ? kMax : t + w);
    }
    return;
  }
  while (step()) {
  }
}

void PeriodicTimer::start() {
  if (running_) return;
  running_ = true;
  pending_ = queue_.scheduleAfter(period_, tag_, node_, [this] { fire(); });
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != 0) {
    queue_.cancel(pending_);
    pending_ = 0;
  }
}

void PeriodicTimer::fire() {
  pending_ = 0;
  if (!running_) return;
  // Re-arm before invoking so the callback may stop() or setPeriod().
  pending_ = queue_.scheduleAfter(period_, tag_, node_, [this] { fire(); });
  fn_();
}

void OneShotTimer::armAfter(Duration delay) {
  cancel();
  pending_ = queue_.scheduleAfter(delay, tag_, node_, [this] {
    pending_ = 0;
    fn_();
  });
}

void OneShotTimer::cancel() {
  if (pending_ != 0) {
    queue_.cancel(pending_);
    pending_ = 0;
  }
}

}  // namespace vini::sim
