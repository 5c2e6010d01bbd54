// Engine-level tests for the sharded EventQueue (sim/shard.h): the
// per-node execution sequence of a workload must be a pure function of
// the event stream — identical across worker-thread counts, and (for
// workloads with no barrier-staged timestamp collisions) identical to
// the classic single-threaded engine.  The critical-path counter the
// engine keeps is checked here too.
#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "app/iperf.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "topo/worlds.h"

namespace vini::sim {
namespace {

// One executed step, recorded from inside a handler.  Handlers only
// append to their own node's log, so recording is race-free under any
// thread count.
struct Step {
  Time when = 0;
  std::uint64_t marker = 0;

  bool operator==(const Step& other) const {
    return when == other.when && marker == other.marker;
  }
};

/// A deterministic workload over `nodes` lanes: every handler advances
/// a per-node mixing state, reschedules onto its own node (sometimes
/// inside the lookahead window, sometimes beyond), and periodically
/// hands off to the next node with a delay of at least the lookahead —
/// the cross-lane pattern link propagation produces.
struct Workload {
  static constexpr Duration kLookahead = 10 * kMicrosecond;

  explicit Workload(EventQueue& q, std::size_t nodes, std::uint64_t seed,
                    bool cross = true)
      : queue(q), cross_traffic(cross), logs(nodes), state(nodes, seed) {
    tags.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      tags.push_back(q.internNodeTag("node" + std::to_string(i)));
    }
  }

  void seedEvents(std::size_t per_node) {
    for (std::size_t n = 0; n < tags.size(); ++n) {
      for (std::size_t i = 0; i < per_node; ++i) {
        const Time at = static_cast<Time>((i + 1)) * 3 * kMicrosecond;
        queue.schedule(at, "test.load", tags[n],
                       [this, n, depth = 12] { step(n, depth); });
      }
    }
  }

  void step(std::size_t n, int depth) {
    // splitmix64: deterministic per-node mixing, independent of thread
    // interleaving because each node's handlers execute in order.
    std::uint64_t& s = state[n];
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    logs[n].push_back(Step{queue.now(), z});
    if (depth <= 0) return;
    // Same-node follow-ups: one inside the window, one beyond it.
    queue.scheduleAfter(static_cast<Duration>(z % 9), "test.local", tags[n],
                        [this, n, d = depth - 1] { step(n, d); });
    const EventId far = queue.scheduleAfter(
        kLookahead + static_cast<Duration>(z % 50), "test.far", tags[n],
        [this, n, d = depth - 1] { step(n, d); });
    if (z % 3 == 0) {
      queue.cancel(far);  // exercises the staged-id cancel path
    }
    if (cross_traffic && z % 4 == 0) {
      const std::size_t peer = (n + 1) % tags.size();
      queue.scheduleAfter(kLookahead + static_cast<Duration>(z % 17),
                          "test.cross", tags[peer],
                          [this, peer, d = depth - 1] { step(peer, d); });
    }
  }

  EventQueue& queue;
  bool cross_traffic = true;
  std::vector<NodeTag> tags;
  std::vector<std::vector<Step>> logs;
  std::vector<std::uint64_t> state;
};

std::vector<std::vector<Step>> runWorkload(int threads, std::uint64_t seed,
                                           std::uint64_t* executed = nullptr) {
  EventQueue q(threads);
  Workload w(q, 5, seed);
  if (threads > 0) q.finalizeSharding(Workload::kLookahead);
  w.seedEvents(4);
  q.run();
  if (executed != nullptr) *executed = q.executedCount();
  return w.logs;
}

TEST(ShardEngine, ClassicConstructionUnchanged) {
  EventQueue q(0);
  EXPECT_FALSE(q.sharded());
  q.finalizeSharding(kMicrosecond);  // no-op at threads == 0
  EXPECT_FALSE(q.sharded());
}

TEST(ShardEngine, ShardedSerialMatchesClassic) {
  // threads == 1 runs the sharded schedule (windows, mailboxes,
  // barriers) with no worker pool: the reference for the sharded
  // engine's canonical order.  Without cross-node traffic that order
  // is identical to the classic engine's — each node's events keep
  // their FIFO issue order through the barrier.  (With cross-node
  // timestamp collisions the sharded engine's lane-major barrier merge
  // may break classic's global FIFO ties; sharded mode defines its own
  // canonical order there, stable across thread counts — the
  // ThreadCountInvariant test — rather than classic's.)
  std::vector<std::vector<Step>> classic;
  for (const int threads : {0, 1, 4}) {
    EventQueue q(threads);
    Workload w(q, 5, 41, /*cross=*/false);
    if (threads > 0) q.finalizeSharding(Workload::kLookahead);
    w.seedEvents(4);
    q.run();
    if (threads == 0) {
      classic = w.logs;
      continue;
    }
    ASSERT_EQ(classic.size(), w.logs.size());
    for (std::size_t n = 0; n < classic.size(); ++n) {
      EXPECT_EQ(classic[n], w.logs[n]) << "threads=" << threads << " node " << n;
    }
  }
}

TEST(ShardEngine, ThreadCountInvariant) {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<int> counts = {1, 2, 8, hw > 0 ? static_cast<int>(hw) : 4};
  for (const std::uint64_t seed : {7ull, 1234ull, 999983ull}) {
    std::uint64_t ref_executed = 0;
    const auto ref = runWorkload(1, seed, &ref_executed);
    for (const int threads : counts) {
      std::uint64_t executed = 0;
      const auto got = runWorkload(threads, seed, &executed);
      EXPECT_EQ(ref_executed, executed) << "threads=" << threads;
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t n = 0; n < ref.size(); ++n) {
        EXPECT_EQ(ref[n], got[n]) << "threads=" << threads << " node " << n;
      }
    }
  }
}

TEST(ShardEngine, WorkerTimersAndCancellation) {
  // Timers armed from inside lanes (sharded ids) must stay cancellable
  // from later rounds and from the main thread.
  EventQueue q(4);
  const NodeTag a = q.internNodeTag("a");
  const NodeTag b = q.internNodeTag("b");
  q.finalizeSharding(10 * kMicrosecond);

  int fired = 0;
  int cancelled_fired = 0;
  EventId victim = 0;
  q.schedule(kMicrosecond, "test", a, [&] {
    // Far-future event on the other node, cancelled two windows later.
    victim = q.scheduleAfter(kMillisecond, "test", b,
                             [&] { ++cancelled_fired; });
    q.scheduleAfter(50 * kMicrosecond, "test", a, [&] {
      ++fired;
      EXPECT_TRUE(q.cancel(victim));
    });
  });
  q.run();
  EXPECT_EQ(1, fired);
  EXPECT_EQ(0, cancelled_fired);
  EXPECT_EQ(0u, q.pendingCount());
}

TEST(ShardEngine, UnattributedEventsRunSerially) {
  // kNoNode events interleave with sharded windows and observe global
  // time; their presence must not break lane execution.
  std::vector<std::vector<Step>> ref;
  for (const int threads : {1, 2, 8}) {
    EventQueue q(threads);
    Workload w(q, 3, 77);
    q.finalizeSharding(Workload::kLookahead);
    int global_ticks = 0;
    for (int i = 0; i < 20; ++i) {
      q.schedule(static_cast<Time>(i + 1) * 7 * kMicrosecond, "test.global",
                 [&] { ++global_ticks; });
    }
    w.seedEvents(3);
    q.run();
    EXPECT_EQ(20, global_ticks) << "threads=" << threads;
    if (threads == 1) {
      ref = w.logs;
    } else {
      for (std::size_t n = 0; n < ref.size(); ++n) {
        EXPECT_EQ(ref[n], w.logs[n]) << "threads=" << threads << " node " << n;
      }
    }
  }
}

TEST(ShardEngine, RunUntilHonorsDeadlineAndAdvance) {
  for (const int threads : {1, 4}) {
    EventQueue q(threads);
    const NodeTag a = q.internNodeTag("a");
    q.finalizeSharding(5 * kMicrosecond);
    int fired = 0;
    q.schedule(kMicrosecond, "t", a, [&] { ++fired; });
    q.schedule(kMillisecond, "t", a, [&] { ++fired; });
    Time last_to = 0;
    q.setAdvanceObserver([&](Time from, Time to) {
      EXPECT_LT(from, to);
      last_to = to;
    });
    q.runUntil(10 * kMicrosecond);
    EXPECT_EQ(1, fired);
    EXPECT_EQ(10 * kMicrosecond, q.now());
    EXPECT_EQ(10 * kMicrosecond, last_to);
    q.setAdvanceObserver(nullptr);
    q.runUntil(2 * kMillisecond);
    EXPECT_EQ(2, fired);
  }
}

TEST(ShardEngine, SkewedLoadCapsTheCriticalPath) {
  // Four windows, each with 9 events on a hot node and 1 on a cold one.
  // Two threads can overlap the cold event with the hot ones but not
  // split the hot node, so every round costs 9: 36 of 40 events.  One
  // thread runs all 10.
  for (const int threads : {1, 2}) {
    EventQueue q(threads);
    const NodeTag hot = q.internNodeTag("hot");
    const NodeTag cold = q.internNodeTag("cold");
    q.finalizeSharding(kMillisecond);
    for (int w = 0; w < 4; ++w) {
      const Time t = w * kMillisecond + kMicrosecond;
      for (int i = 0; i < 9; ++i) q.schedule(t + i, "test", hot, [] {});
      q.schedule(t + 100, "test", cold, [] {});
    }
    q.run();
    EXPECT_EQ(40u, q.executedCount()) << "threads=" << threads;
    EXPECT_EQ(threads == 1 ? 40u : 36u, q.criticalPathEvents())
        << "threads=" << threads;
  }
}

TEST(ShardEngine, CriticalPathIsDeterministic) {
  auto run = [] {
    topo::WorldOptions options;
    options.seed = 97;
    options.contention = 0.0;
    options.threads = 4;
    auto world = topo::makeAbileneWorld(options);
    EXPECT_TRUE(world->runUntilConverged(180 * kSecond));
    const Time t0 = world->queue.now();
    app::IperfUdpServer server(world->stack("Seattle"), 5001);
    app::IperfUdpClient client(world->stack("Washington"),
                               world->tapOf("Seattle"), 5001, 30e6, 1430,
                               world->tapOf("Washington"));
    client.start(kSecond / 2);
    world->queue.runUntil(t0 + kSecond / 2);
    EXPECT_LT(world->queue.criticalPathEvents(),
              world->queue.executedCount());
    return world->queue.criticalPathEvents();
  };
  const std::uint64_t first = run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace vini::sim
