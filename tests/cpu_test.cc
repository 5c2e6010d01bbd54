// CPU scheduler model tests: fair share, reservations, real-time
// priority, accounting — the Section 4.1.1/4.1.2 machinery.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cpu/scheduler.h"
#include "sim/stats.h"

namespace vini::cpu {
namespace {

using sim::kMicrosecond;
using sim::kMillisecond;
using sim::kSecond;

SchedulerConfig dedicated() {
  SchedulerConfig config;
  config.contention_mean = 0.0;
  return config;
}

SchedulerConfig contended(double mean, double stddev = 0.0) {
  SchedulerConfig config;
  config.contention_mean = mean;
  config.contention_stddev = stddev;
  return config;
}

TEST(Process, DedicatedMachineRunsAtFullSpeed) {
  sim::EventQueue q;
  Scheduler sched(q, dedicated());
  Process& p = sched.createProcess({});
  sim::Time done_at = -1;
  p.execute(kMillisecond, [&] { done_at = q.now(); });
  q.run();
  // One millisecond of work plus the context switch; no gaps.
  EXPECT_GE(done_at, kMillisecond);
  EXPECT_LE(done_at, kMillisecond + 100 * kMicrosecond);
}

TEST(Process, SpeedFactorScalesCost) {
  sim::EventQueue q;
  SchedulerConfig config = dedicated();
  config.speed_factor = 2.0;
  Scheduler sched(q, config);
  Process& p = sched.createProcess({});
  sim::Time done_at = -1;
  p.execute(kMillisecond, [&] { done_at = q.now(); });
  q.run();
  EXPECT_GE(done_at, 2 * kMillisecond);
  EXPECT_LE(done_at, 2 * kMillisecond + 100 * kMicrosecond);
}

TEST(Process, JobsRunFifo) {
  sim::EventQueue q;
  Scheduler sched(q, dedicated());
  Process& p = sched.createProcess({});
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    p.execute(10 * kMicrosecond, [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(p.idle());
}

TEST(Process, JobRingStaysFifoAcrossGrowthAndWraparound) {
  // The job queue is a power-of-two ring that starts at 8 slots.  Every
  // completion submits two more jobs until 300 exist, so the backlog
  // climbs to ~150 (the ring doubles four times while its head is mid
  // ring) and then drains.  Order and queue accounting are checked at
  // every completion.
  struct Harness {
    Process* p = nullptr;
    std::vector<int> order;
    int next_id = 0;
    int finished = 0;

    void submit() {
      const int id = next_id++;
      p->execute(10 * kMicrosecond, [this, id] { complete(id); });
    }
    void complete(int id) {
      order.push_back(id);
      ++finished;
      // A job is popped before its completion runs: what is queued now
      // is every job submitted but not yet finished.
      EXPECT_EQ(p->queuedJobs(), static_cast<std::size_t>(next_id - finished));
      EXPECT_FALSE(p->idle());  // running until this event returns
      if (next_id < 300) {
        submit();
        submit();
      }
    }
  };
  sim::EventQueue q;
  Scheduler sched(q, dedicated());
  Harness h;
  h.p = &sched.createProcess({});
  for (int i = 0; i < 5; ++i) h.submit();
  EXPECT_EQ(h.p->queuedJobs(), 5u);
  EXPECT_FALSE(h.p->idle());
  q.run();
  ASSERT_EQ(h.finished, h.next_id);
  EXPECT_GE(h.finished, 300);
  std::vector<int> expected(static_cast<std::size_t>(h.finished));
  for (int i = 0; i < h.finished; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(h.order, expected);
  EXPECT_EQ(h.p->queuedJobs(), 0u);
  EXPECT_TRUE(h.p->idle());

  // Reuse after draining: the ring keeps its slots and its order.
  h.order.clear();
  for (int i = 0; i < 3; ++i) {
    h.p->execute(kMicrosecond, [&h, i] { h.order.push_back(1000 + i); });
  }
  EXPECT_EQ(h.p->queuedJobs(), 3u);
  q.run();
  EXPECT_EQ(h.order, (std::vector<int>{1000, 1001, 1002}));
  EXPECT_TRUE(h.p->idle());
}

TEST(FifoRing, PopsInPushOrderAcrossGrowthAndWraparound) {
  sim::FifoRing<std::unique_ptr<int>> ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), 0u);  // no storage until first use
  int pushed = 0;
  int popped = 0;
  // Alternate bursts of pushes and pops so the head walks around the
  // ring at every size from 8 to 128 slots.
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < round % 7 + 3; ++i) {
      ring.push(std::make_unique<int>(pushed++));
    }
    for (int i = 0; i < round % 5 + 1 && !ring.empty(); ++i) {
      EXPECT_EQ(*ring.front(), popped);
      EXPECT_EQ(*ring.pop(), popped);
      ++popped;
    }
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(pushed - popped));
    const std::size_t cap = ring.capacity();
    EXPECT_EQ(cap & (cap - 1), 0u);  // a power of two
    EXPECT_GE(cap, ring.size());
  }
  EXPECT_GT(ring.capacity(), 64u);
  while (!ring.empty()) EXPECT_EQ(*ring.pop(), popped++);
  EXPECT_EQ(popped, pushed);
}

TEST(Process, AccountingTracksConsumedCpu) {
  sim::EventQueue q;
  Scheduler sched(q, dedicated());
  Process& p = sched.createProcess({});
  for (int i = 0; i < 10; ++i) p.execute(kMillisecond, {});
  q.run();
  EXPECT_EQ(p.consumedCpu(), 10 * kMillisecond);
  p.resetAccounting();
  EXPECT_EQ(p.consumedCpu(), 0);
}

TEST(Process, UtilizationIsConsumedOverElapsed) {
  sim::EventQueue q;
  Scheduler sched(q, dedicated());
  Process& p = sched.createProcess({});
  p.execute(100 * kMillisecond, {});
  q.run();
  q.runUntil(kSecond);  // idle for the rest of the second
  EXPECT_NEAR(p.utilization(), 0.1, 0.01);
}

TEST(Scheduler, FairShareThrottlesCpuBoundProcess) {
  // With 4 other runnable slices, a default-share process should get
  // roughly 1/5 of the CPU in the long run.
  sim::EventQueue q;
  Scheduler sched(q, contended(4.0));
  Process& p = sched.createProcess({});
  // Keep the process saturated for the whole 20-second window.
  const int jobs = 30000;
  for (int i = 0; i < jobs; ++i) p.execute(kMillisecond, {});
  q.runUntil(20 * kSecond);
  const double util = p.utilization();
  EXPECT_GT(util, 0.12);
  EXPECT_LT(util, 0.30);
}

TEST(Scheduler, ReservationGuaranteesFloorUnderContention) {
  sim::EventQueue q;
  Scheduler sched(q, contended(10.0));  // heavy contention: fair share ~9%
  ProcessConfig config;
  config.cpu_reservation = 0.25;
  Process& p = sched.createProcess(config);
  for (int i = 0; i < 4000; ++i) p.execute(kMillisecond, {});
  q.runUntil(10 * kSecond);
  EXPECT_GT(p.utilization(), 0.20);
}

TEST(Scheduler, RealtimeWakeupIsImmediate) {
  sim::EventQueue q;
  SchedulerConfig config = contended(8.0);
  config.seed = 3;
  Scheduler sched(q, config);
  ProcessConfig rt;
  rt.realtime = true;
  Process& p = sched.createProcess(rt);
  // Sample many idle->runnable wakeups.
  sim::SampleStats latency_us;
  for (int i = 0; i < 200; ++i) {
    q.runUntil(q.now() + 10 * kMillisecond);
    const sim::Time submitted = q.now();
    sim::Time started = -1;
    p.execute(kMicrosecond, [&] { started = q.now(); });
    q.runUntil(q.now() + 5 * kMillisecond);
    ASSERT_GE(started, 0);
    latency_us.add(sim::toMicros(started - submitted));
  }
  // RT priority: context switch plus sub-millisecond kernel noise,
  // never a multi-millisecond run-queue stall.
  EXPECT_LT(latency_us.mean(), 400.0);
  EXPECT_LT(latency_us.max(), 3000.0);
}

TEST(Scheduler, DefaultShareWakeupHasStallTail) {
  sim::EventQueue q;
  SchedulerConfig config = contended(8.0);
  config.stall_probability = 0.10;  // exaggerate for the test
  config.seed = 4;
  Scheduler sched(q, config);
  Process& p = sched.createProcess({});
  sim::SampleStats latency_ms;
  for (int i = 0; i < 300; ++i) {
    q.runUntil(q.now() + 10 * kMillisecond);
    const sim::Time submitted = q.now();
    sim::Time started = -1;
    p.execute(kMicrosecond, [&] { started = q.now(); });
    q.runUntil(q.now() + 200 * kMillisecond);
    ASSERT_GE(started, 0);
    latency_ms.add(sim::toMillis(started - submitted));
  }
  // The tail reaches into run-queue territory (many milliseconds)...
  EXPECT_GT(latency_ms.max(), 4.0);
  // ...while the mean stays bounded (with a 10% stall rate the mean is
  // dominated by the stalls themselves).
  EXPECT_LT(latency_ms.mean(), 12.0);
}

TEST(Scheduler, RealtimeStillBoundedUnderLoad) {
  // "Even real-time processes are still subject to PlanetLab's CPU
  // reservations and shares, so a real-time process that runs amok
  // cannot lock the machine."  RT preempts the timeshare class, so its
  // effective contention is discounted, but it cannot take everything:
  // share = max(0.25, 1 / (1 + 0.15 * 10)) = 0.4.
  sim::EventQueue q;
  Scheduler sched(q, contended(10.0));
  ProcessConfig rt;
  rt.realtime = true;
  rt.cpu_reservation = 0.25;
  Process& p = sched.createProcess(rt);
  for (int i = 0; i < 6000; ++i) p.execute(kMillisecond, {});
  q.runUntil(10 * kSecond);
  const double util = p.utilization();
  EXPECT_GT(util, 0.30);
  EXPECT_LT(util, 0.50);
}

TEST(Scheduler, RtDiscountGivesRtMoreThanFairShare) {
  sim::EventQueue q;
  Scheduler sched(q, contended(4.0));
  ProcessConfig plain;
  ProcessConfig rt;
  rt.realtime = true;
  EXPECT_GT(sched.achievableShare(rt), sched.achievableShare(plain) * 2);
}

TEST(Scheduler, AchievableShareFormula) {
  sim::EventQueue q;
  Scheduler sched(q, contended(3.0));
  ProcessConfig plain;
  EXPECT_NEAR(sched.achievableShare(plain), 0.25, 1e-9);
  ProcessConfig reserved;
  reserved.cpu_reservation = 0.5;
  EXPECT_NEAR(sched.achievableShare(reserved), 0.5, 1e-9);
}

TEST(Scheduler, ContentionResamplesOverTime) {
  sim::EventQueue q;
  SchedulerConfig config = contended(5.0, 2.0);
  config.seed = 9;
  Scheduler sched(q, config);
  sim::SampleStats samples;
  for (int i = 0; i < 100; ++i) {
    q.runUntil(q.now() + config.contention_resample);
    samples.add(sched.contention());
  }
  EXPECT_NEAR(samples.mean(), 5.0, 1.0);
  EXPECT_GT(samples.stddev(), 0.5);
}

TEST(Scheduler, ZeroContentionHasNoGaps) {
  sim::EventQueue q;
  Scheduler sched(q, dedicated());
  Process& p = sched.createProcess({});
  sim::Time done_at = -1;
  // 100 ms of work in one job: crosses many quanta, but gaps are zero.
  p.execute(100 * kMillisecond, [&] { done_at = q.now(); });
  q.run();
  EXPECT_LE(done_at, 100 * kMillisecond + kMillisecond);
}

class ShareSweep : public ::testing::TestWithParam<double> {};

TEST_P(ShareSweep, LongRunUtilizationTracksFairShare) {
  const double contention = GetParam();
  sim::EventQueue q;
  SchedulerConfig config = contended(contention);
  config.seed = 21 + static_cast<std::uint64_t>(contention);
  Scheduler sched(q, config);
  Process& p = sched.createProcess({});
  for (int i = 0; i < 30000; ++i) p.execute(kMillisecond, {});
  q.runUntil(30 * kSecond);
  const double expect = 1.0 / (1.0 + contention);
  EXPECT_NEAR(p.utilization(), expect, expect * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Contention, ShareSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0));

}  // namespace
}  // namespace vini::cpu
