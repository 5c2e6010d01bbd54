// Unit tests for the discrete-event engine, RNG, and statistics.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "sim/callback.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/stats.h"

namespace vini::sim {

/// White-box hooks into the queue (a friend of EventQueue).
struct EventQueueTestAccess {
  /// The earliest live (when, id), as the run loops see it.
  static std::optional<std::pair<Time, EventId>> peek(EventQueue& q) {
    q.shard_.assertHeld();
    const EventQueue::Key* top = q.peekLive();
    if (top == nullptr) return std::nullopt;
    return std::make_pair(top->when(), top->id());
  }
  /// True while a handler runs with its own key still at the heap root.
  static bool firedAtRoot(EventQueue& q) {
    q.shard_.assertHeld();
    return q.fired_at_root_;
  }
};

namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, EqualTimestampsRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue q;
  q.schedule(100, [] {});
  q.step();
  Time fired_at = -1;
  q.schedule(50, [&] { fired_at = q.now(); });  // in the past
  q.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  q.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  // cancel() of an id the queue never issued is a caller bug, so the
  // V101 audit reports it at error severity; capture it so the audited
  // build doesn't abort.
  check::ScopedAuditCollector collector;
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(12345));
#if VINI_AUDIT_ENABLED
  EXPECT_TRUE(collector.report().hasCode("V101"))
      << collector.report().format();
  EXPECT_TRUE(collector.report().hasErrors());
#else
  EXPECT_TRUE(collector.report().empty()) << collector.report().format();
#endif
}

TEST(EventQueue, CancelAfterFireReturnsFalseDeterministically) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(10, [&] { ++fired; });
  q.run();
  EXPECT_EQ(fired, 1);
  // An id that already fired can never be cancelled, no matter how
  // often the caller retries.
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  // The queue is still fully usable afterwards.
  const EventId next = q.schedule(20, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(next));
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, InterleavedCancelKeepsOrderDeterministic) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.schedule(10, [&] { order.push_back(1); });
  q.schedule(10, [&] { order.push_back(2); });
  q.schedule(20, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(a));
  q.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    q.schedule(i * kSecond, [&] { ++count; });
  }
  q.runUntil(5 * kSecond);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.now(), 5 * kSecond);
  EXPECT_EQ(q.pendingCount(), 5u);
}

TEST(EventQueue, RunUntilAdvancesTimeWithEmptyQueue) {
  EventQueue q;
  q.runUntil(7 * kSecond);
  EXPECT_EQ(q.now(), 7 * kSecond);
}

TEST(EventQueue, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int depth = 0;
  q.schedule(1, [&] {
    ++depth;
    q.scheduleAfter(1, [&] {
      ++depth;
      q.scheduleAfter(1, [&] { ++depth; });
    });
  });
  q.run();
  EXPECT_EQ(depth, 3);
  EXPECT_EQ(q.now(), 3);
}

TEST(EventQueue, PendingCountExcludesCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.pendingCount(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pendingCount(), 1u);
}

TEST(EventQueue, StorageBoundedUnderReArmChurn) {
  // Re-arming a one-shot timer cancels the previous event each time.
  // Eager cancellation plus tombstone compaction must keep the event
  // storage bounded no matter how many re-arm cycles happen before the
  // queue runs (the pre-overhaul queue leaked a tombstone per cycle).
  EventQueue q;
  int fires = 0;
  OneShotTimer timer(q, [&] { ++fires; });
  for (int i = 0; i < 20000; ++i) {
    timer.armAfter(kSecond + i);
  }
  EXPECT_EQ(q.pendingCount(), 1u);
  EXPECT_LE(q.storageCount(), 4u);
  q.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(q.storageCount(), 0u);
}

TEST(EventQueue, CancelOrderDeterministicAfterCompaction) {
  // Cancelling half the events at one timestamp forces at least one
  // compaction pass; the survivors must still fire in schedule order
  // (FIFO among equal timestamps survives the storage rebuild).
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.schedule(10, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 200; ++i) {
    if (i % 3 != 0) {
      EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    }
  }
  EXPECT_LT(q.storageCount(), 200u);  // compaction actually ran
  q.run();
  ASSERT_EQ(order.size(), 67u);
  for (int i = 0; i < 67; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], 3 * i);
  }
}

TEST(EventQueue, RandomizedReplayMatchesReferenceModel) {
  // A seeded workload replayed against a reference model: a std::set of
  // (when, seq), where seq counts schedule() calls — the order the
  // queue's (when, id) keys must pop in, FIFO among equal timestamps.
  // Every handler checks it is the model's minimum, then does a random
  // mix of the things that stress the fused pop/push: scheduling 0, 1
  // or several events (same-instant, near, and sparse far-future),
  // cancelling enough other events to force a compaction while its own
  // key still waits at the heap root, cancelling its own id, and
  // peeking the queue mid-handler.
  for (const std::uint64_t seed : {1ull, 7ull, 4242ull}) {
    // Cancelling its own id raises the V101 stale-handle warning.
    check::ScopedAuditCollector collector;
    EventQueue q;
    Random r(seed);
    std::set<std::pair<Time, std::uint64_t>> model;
    std::map<std::uint64_t, EventId> ids;  // model seq -> queue handle
    std::uint64_t next_seq = 0;
    std::uint64_t fired = 0;
    std::uint64_t budget = 6000;  // schedule() calls left
    int compactions_under_fired_root = 0;
    int self_cancels = 0;
    int peeks = 0;

    auto cancelRandom = [&] {
      const auto victim = std::next(
          model.begin(),
          r.uniformInt(0, static_cast<std::int64_t>(model.size()) - 1));
      EXPECT_TRUE(q.cancel(ids.at(victim->second)));
      ids.erase(victim->second);
      model.erase(victim);
    };
    std::function<void(Time)> add;
    auto handler = [&](std::uint64_t seq) {
      return [&, seq] {
        ASSERT_FALSE(model.empty());
        ASSERT_EQ(*model.begin(), std::make_pair(q.now(), seq));
        model.erase(model.begin());
        const EventId self = ids.at(seq);
        ids.erase(seq);
        ++fired;
        EXPECT_EQ(q.pendingCount(), model.size());
        const double roll = r.uniform01();
        if (roll < 0.05) {
          EXPECT_FALSE(q.cancel(self));  // already firing: not pending
          ++self_cancels;
        }
        if (roll > 0.995 && model.size() > 8) {
          // Cancel a majority of what is pending before scheduling
          // anything: compaction runs with this key still at the root.
          ASSERT_TRUE(EventQueueTestAccess::firedAtRoot(q));
          const std::size_t storage = q.storageCount();
          while (model.size() * 3 > storage) cancelRandom();
          EXPECT_LT(q.storageCount(), storage);
          EXPECT_FALSE(EventQueueTestAccess::firedAtRoot(q));
          ++compactions_under_fired_root;
        } else if (roll > 0.85 && !model.empty()) {
          cancelRandom();
        }
        if (r.chance(0.1)) {
          const auto top = EventQueueTestAccess::peek(q);
          ++peeks;
          if (model.empty()) {
            EXPECT_FALSE(top.has_value());
          } else {
            ASSERT_TRUE(top.has_value());
            EXPECT_EQ(top->first, model.begin()->first);
            EXPECT_EQ(top->second, ids.at(model.begin()->second));
          }
        }
        const std::int64_t fanout = r.uniformInt(0, 3);  // 0, 1 or several
        for (std::int64_t k = 0; k < fanout && budget > 0; ++k) {
          const double kind = r.uniform01();
          Duration delay = 0;  // same instant: FIFO behind the others
          if (kind < 0.02) {
            delay = r.uniformDuration(600 * kSecond, 3 * 3600 * kSecond);
          } else if (kind < 0.6) {
            delay = r.uniformInt(0, 3) * kMicrosecond;  // timestamp ties
          } else if (kind < 0.95) {
            delay = r.uniformDuration(0, kMillisecond);
          }
          add(q.now() + delay);
        }
      };
    };
    add = [&](Time when) {
      --budget;
      const std::uint64_t seq = next_seq++;
      model.emplace(when, seq);
      ids[seq] = q.schedule(when, handler(seq));
    };
    for (int i = 0; i < 64; ++i) add(r.uniformDuration(0, 10 * kMillisecond));
    // Step through deadlines first (runUntil's loop), then drain.
    for (Time t = 0; t < 50 * kMillisecond; t += 5 * kMillisecond) {
      q.runUntil(t);
    }
    q.run();

    EXPECT_TRUE(model.empty());
    EXPECT_EQ(q.executedCount(), fired);
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_EQ(q.storageCount(), 0u);
    EXPECT_GT(fired, 3000u) << "seed " << seed;
    EXPECT_GT(compactions_under_fired_root, 0) << "seed " << seed;
    EXPECT_GT(self_cancels, 0) << "seed " << seed;
    EXPECT_GT(peeks, 0) << "seed " << seed;
    EXPECT_FALSE(collector.report().hasErrors())
        << collector.report().format();
  }
}

TEST(EventQueue, PeakCountersTrackHighWater) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(q.schedule(i + 1, [] {}));
  q.cancel(ids[0]);
  q.cancel(ids[1]);
  q.cancel(ids[2]);
  q.run();
  EXPECT_EQ(q.peakPendingCount(), 10u);
  EXPECT_GE(q.peakStorageCount(), 10u);
  EXPECT_EQ(q.executedCount(), 7u);
  EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(InlineCallback, InvokesAndMoveTransfersOwnership) {
  int calls = 0;
  InlineCallback<64> cb = [&calls] { ++calls; };
  EXPECT_TRUE(static_cast<bool>(cb));
  cb();
  EXPECT_EQ(calls, 1);
  InlineCallback<64> moved = std::move(cb);
  EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(calls, 2);
}

TEST(InlineCallback, MoveOnlyCapturesWork) {
  auto value = std::make_unique<int>(41);
  InlineCallback<64> cb = [v = std::move(value)] { ++*v; };
  cb();
  InlineCallback<64> moved = std::move(cb);
  moved();
}

TEST(InlineCallback, HeapFallbackForOversizedCaptures) {
  // 128 bytes of capture cannot fit the 64-byte inline buffer; the
  // callback must transparently fall back to a heap allocation.
  struct Big {
    char data[128] = {0};
  };
  Big big;
  big.data[100] = 7;
  int seen = -1;
  InlineCallback<64> cb = [big, &seen] { seen = big.data[100]; };
  InlineCallback<64> moved = std::move(cb);
  moved();
  EXPECT_EQ(seen, 7);
}

TEST(InlineCallback, ResetReleasesCapturedStateEagerly) {
  // Eager cancel in the event queue relies on reset() destroying the
  // captured state immediately, not at queue teardown.
  auto token = std::make_shared<int>(1);
  InlineCallback<64> cb = [token] { (void)*token; };
  EXPECT_EQ(token.use_count(), 2);
  cb.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(EventQueue, EagerCancelReleasesCallbackState) {
  // cancel() must destroy the captured state right away even though the
  // tombstone key stays queued until compaction or pop.
  EventQueue q;
  auto token = std::make_shared<int>(1);
  const EventId id = q.schedule(10, [token] { (void)*token; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
  q.run();
}

TEST(EventQueue, TeardownSurvivesCallbacksThatCancelTheirOwnTimers) {
  // A component kept alive only by its pending event (shared_ptr in the
  // callback) may cancel its own timers from its destructor.  When the
  // queue itself is destroyed that destructor runs while the slab
  // drains, and the re-entrant cancel() must not touch the dying queue
  // (regression: heap-use-after-free on free_slots_ at teardown).
  struct SelfCancelling {
    explicit SelfCancelling(EventQueue& q)
        : timer(q, [] {}) {
      timer.armAfter(kSecond);
    }
    ~SelfCancelling() { timer.cancel(); }
    OneShotTimer timer;
  };
  auto q = std::make_unique<EventQueue>();
  auto owner = std::make_shared<SelfCancelling>(*q);
  q->schedule(10 * kSecond, [owner] { (void)owner; });
  owner.reset();  // the pending event now holds the only reference
  q.reset();      // must not re-enter the half-destroyed queue
}

TEST(PeriodicTimer, FiresRepeatedlyUntilStopped) {
  EventQueue q;
  int fires = 0;
  auto timer = std::make_unique<PeriodicTimer>(q, kSecond, [&] { ++fires; });
  timer->start();
  q.runUntil(10 * kSecond + 1);
  EXPECT_EQ(fires, 10);
  timer->stop();
  q.runUntil(20 * kSecond);
  EXPECT_EQ(fires, 10);
}

TEST(PeriodicTimer, StopBeforeFirstFire) {
  EventQueue q;
  int fires = 0;
  PeriodicTimer timer(q, kSecond, [&] { ++fires; });
  timer.start();
  timer.stop();
  q.runUntil(10 * kSecond);
  EXPECT_EQ(fires, 0);
}

TEST(PeriodicTimer, CallbackMayChangePeriod) {
  EventQueue q;
  std::vector<Time> fire_times;
  PeriodicTimer* handle = nullptr;
  PeriodicTimer timer(q, kSecond, [&] {
    fire_times.push_back(q.now());
    handle->setPeriod(2 * kSecond);
  });
  handle = &timer;
  timer.start();
  q.runUntil(8 * kSecond);
  // The firing already armed when setPeriod ran keeps the old period;
  // the change applies from the next re-arm.
  ASSERT_GE(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], kSecond);
  EXPECT_EQ(fire_times[1], 2 * kSecond);
  EXPECT_EQ(fire_times[2], 4 * kSecond);
}

TEST(OneShotTimer, ReArmReplacesPending) {
  EventQueue q;
  int fires = 0;
  OneShotTimer timer(q, [&] { ++fires; });
  timer.armAfter(5 * kSecond);
  timer.armAfter(1 * kSecond);  // replaces
  q.runUntil(10 * kSecond);
  EXPECT_EQ(fires, 1);
}

TEST(OneShotTimer, CancelStopsFiring) {
  EventQueue q;
  int fires = 0;
  OneShotTimer timer(q, [&] { ++fires; });
  timer.armAfter(kSecond);
  EXPECT_TRUE(timer.pending());
  timer.cancel();
  EXPECT_FALSE(timer.pending());
  q.runUntil(5 * kSecond);
  EXPECT_EQ(fires, 0);
}

TEST(TimeConversions, RoundTrip) {
  EXPECT_EQ(fromSeconds(1.5), 1'500'000'000);
  EXPECT_EQ(fromMillis(2.0), 2'000'000);
  EXPECT_EQ(fromMicros(3.0), 3'000);
  EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(toMillis(kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(toMicros(kMicrosecond), 1.0);
}

TEST(Random, DeterministicGivenSeed) {
  Random a(42);
  Random b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

TEST(Random, UniformBounds) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(3.0, 5.0);
    EXPECT_GE(x, 3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Random, ExponentialMeanIsApproximatelyRight) {
  Random r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Random, ExponentialDurationRespectsCap) {
  Random r(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(r.exponentialDuration(kSecond, 2 * kSecond), 2 * kSecond);
  }
}

TEST(Random, ChanceExtremes) {
  Random r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Random, UniformDurationDegenerateRange) {
  Random r(19);
  EXPECT_EQ(r.uniformDuration(5, 5), 5);
  EXPECT_EQ(r.uniformDuration(5, 3), 5);
}

TEST(SampleStats, BasicMoments) {
  SampleStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
  // ping's mdev is the population deviation.
  EXPECT_NEAR(s.mdev(), 1.1180339, 1e-6);
}

TEST(SampleStats, EmptyAndSingle) {
  SampleStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.mdev(), 0.0);
}

TEST(SampleStats, ConstantSeriesHasZeroDeviation) {
  SampleStats s;
  for (int i = 0; i < 50; ++i) s.add(3.25);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_NEAR(s.mdev(), 0.0, 1e-9);
}

TEST(TimeSeries, StatsBetweenFiltersHalfOpenInterval) {
  TimeSeries ts("x");
  for (int i = 0; i < 10; ++i) ts.add(i * kSecond, i);
  const SampleStats s = ts.statsBetween(2 * kSecond, 5 * kSecond);
  EXPECT_EQ(s.count(), 3u);  // t = 2, 3, 4
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(TimeSeries, CsvOutput) {
  TimeSeries ts("rtt");
  ts.add(kSecond, 1.5);
  ts.add(2 * kSecond, 2.5);
  std::ostringstream os;
  ts.writeCsv(os);
  EXPECT_EQ(os.str(), "seconds,rtt\n1,1.5\n2,2.5\n");
}

TEST(JitterEstimator, ConstantSpacingHasZeroJitter) {
  JitterEstimator j;
  for (int i = 0; i < 100; ++i) {
    j.onPacket(i * kMillisecond, i * kMillisecond + 5 * kMillisecond);
  }
  EXPECT_DOUBLE_EQ(j.jitterMs(), 0.0);
}

TEST(JitterEstimator, AlternatingTransitConverges) {
  // Transit alternates 5 ms / 7 ms: |D| = 2 ms every packet, so the
  // RFC 1889 estimator converges toward 2 ms from below.
  JitterEstimator j;
  for (int i = 0; i < 500; ++i) {
    const Duration transit = (i % 2 == 0 ? 5 : 7) * kMillisecond;
    j.onPacket(i * kMillisecond * 10, i * kMillisecond * 10 + transit);
  }
  EXPECT_GT(j.jitterMs(), 1.8);
  EXPECT_LT(j.jitterMs(), 2.0);
}

TEST(Determinism, SameSeedSameSchedule) {
  // A mixed workload of randomized timers must replay identically.
  auto run = [](std::uint64_t seed) {
    EventQueue q;
    Random r(seed);
    auto fired = std::make_shared<std::vector<Time>>();
    auto tick = std::make_shared<std::function<void()>>();
    *tick = [&q, &r, fired, tick] {
      fired->push_back(q.now());
      if (fired->size() < 200) {
        q.scheduleAfter(r.exponentialDuration(kMillisecond), [tick] { (*tick)(); });
      }
    };
    q.scheduleAfter(0, [tick] { (*tick)(); });
    q.run();
    *tick = nullptr;  // the stored lambda captures `tick`; break the cycle
    return *fired;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace vini::sim
