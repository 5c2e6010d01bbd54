// Micro-benchmarks (google-benchmark) of the substrate's hot paths:
// FIB longest-prefix match (trie vs. a linear scan baseline — the
// data-plane design choice — and the route-cached Click lookup element),
// the CPU model's job queue, packet serialization, checksums, the event
// queue, and RIB churn.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "click/elements.h"
#include "click/fib.h"
#include "cpu/scheduler.h"
#include "obs/obs.h"
#include "packet/checksum.h"
#include "packet/packet.h"
#include "sim/event_queue.h"
#include "xorp/rib.h"

namespace {

using vini::click::Fib;
using vini::click::FibEntry;
using vini::packet::IpAddress;
using vini::packet::Packet;
using vini::packet::Prefix;

std::vector<FibEntry> makeRoutes(std::size_t n) {
  std::mt19937 rng(7);
  std::vector<FibEntry> routes;
  routes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FibEntry entry;
    entry.prefix = Prefix(IpAddress(static_cast<std::uint32_t>(rng())),
                          8 + static_cast<int>(rng() % 25));
    entry.next_hop = IpAddress(static_cast<std::uint32_t>(rng()));
    entry.port = static_cast<int>(rng() % 4);
    routes.push_back(entry);
  }
  return routes;
}

void BM_FibTrieLookup(benchmark::State& state) {
  const auto routes = makeRoutes(static_cast<std::size_t>(state.range(0)));
  Fib fib;
  for (const auto& r : routes) fib.addRoute(r);
  std::mt19937 rng(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fib.lookup(IpAddress(static_cast<std::uint32_t>(rng()))));
  }
}
BENCHMARK(BM_FibTrieLookup)->Arg(16)->Arg(256)->Arg(4096);

void BM_FibLookupFlows(benchmark::State& state) {
  // The forwarder's view: LookupIPRoute routing packets of 32 flows
  // (repeating destinations, so its route cache hits) through a FIB of
  // range(0) routes.  Each packet is copied from its flow's template, as
  // a tunnel endpoint copies the shared inner packet.
  using vini::click::Discard;
  using vini::click::LookupIPRoute;
  const auto routes = makeRoutes(static_cast<std::size_t>(state.range(0)));
  LookupIPRoute rt;
  for (const auto& r : routes) rt.fib().addRoute(r);
  Discard sink;
  for (int port = 0; port < 4; ++port) rt.connectOutput(port, sink, 0);
  std::vector<Packet> flows;
  for (std::size_t i = 0; i < 32; ++i) {
    // Destinations in or next to routed prefixes: most match a route.
    const IpAddress dst(routes[(i * 7) % routes.size()].prefix.address().value() |
                        static_cast<std::uint32_t>(i));
    flows.push_back(Packet::udp(IpAddress(10, 1, 0, 2), dst, 1, 2, 1000));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    rt.push(0, Packet(flows[i++ & 31]));
  }
  benchmark::DoNotOptimize(sink.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FibLookupFlows)->Arg(16)->Arg(256)->Arg(4096);

void BM_ProcessJobs(benchmark::State& state) {
  // ns per packet-sized job through the CPU model: the Click ingress
  // pattern (click::ProcessInbox) of a packet waiting in the inbox and a
  // job capturing only the inbox, 1024 jobs per iteration, run to
  // completion on a dedicated machine (each job is two events:
  // wakeup/slice, completion).
  const Packet templ = Packet::udp(IpAddress(10, 1, 0, 2),
                                   IpAddress(10, 1, 1, 2), 1, 2, 1000);
  vini::sim::EventQueue q;
  vini::cpu::Scheduler sched(q, vini::cpu::SchedulerConfig{});
  vini::click::ClickContext context;
  context.process = &sched.createProcess({});
  vini::click::ProcessInbox inbox;
  std::size_t bytes = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) {
      inbox.submit(context, Packet(templ),
                   [&bytes](Packet&& p) { bytes += p.ipPacketBytes(); });
    }
    q.run();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ProcessJobs);

void BM_FibLinearLookup(benchmark::State& state) {
  // The naive alternative the trie replaces.
  const auto routes = makeRoutes(static_cast<std::size_t>(state.range(0)));
  std::mt19937 rng(13);
  for (auto _ : state) {
    const IpAddress addr(static_cast<std::uint32_t>(rng()));
    const FibEntry* best = nullptr;
    for (const auto& r : routes) {
      if (r.prefix.contains(addr) &&
          (!best || r.prefix.length() > best->prefix.length())) {
        best = &r;
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_FibLinearLookup)->Arg(16)->Arg(256)->Arg(4096);

void BM_FibInsert(benchmark::State& state) {
  const auto routes = makeRoutes(1024);
  for (auto _ : state) {
    Fib fib;
    for (const auto& r : routes) fib.addRoute(r);
    benchmark::DoNotOptimize(fib.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_FibInsert);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    vini::sim::EventQueue q;
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      q.schedule(i * 100, [&sink] { ++sink; });
    }
    q.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

/// Hold-model event: on firing, re-schedules itself a pseudo-random
/// 1 ns..1 ms ahead (xorshift64), so the pending population stays
/// constant and every step pops one key and pushes one.
struct HoldEvent {
  vini::sim::EventQueue* q;
  std::uint64_t* rng;
  void operator()() const {
    std::uint64_t x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    q->schedule(q->now() + 1 + static_cast<vini::sim::Duration>(x % 1000000),
                HoldEvent{q, rng});
  }
};

void BM_EventQueueHold(benchmark::State& state) {
  // The classic hold model: range(0) pending events, each handler
  // re-arming itself.  Unlike BM_EventQueueScheduleRun (schedule all,
  // then drain) every step here schedules from inside its handler —
  // the fused pop/push path the simulations actually take.
  vini::sim::EventQueue q;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  for (std::int64_t i = 0; i < state.range(0); ++i) HoldEvent{&q, &rng}();
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) q.step();
    benchmark::DoNotOptimize(q.now());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueHold)->Arg(64)->Arg(1024);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vini::packet::internetChecksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(20)->Arg(1500);

void BM_PacketSerializeParse(benchmark::State& state) {
  const Packet p = Packet::udp(IpAddress(10, 1, 0, 2), IpAddress(10, 1, 1, 2),
                               4000, 5000, 1430);
  for (auto _ : state) {
    const auto wire = p.serialize();
    benchmark::DoNotOptimize(Packet::parse(wire));
  }
}
BENCHMARK(BM_PacketSerializeParse);

void BM_TunnelEncapsulate(benchmark::State& state) {
  auto inner = std::make_shared<const Packet>(
      Packet::udp(IpAddress(10, 1, 0, 2), IpAddress(10, 1, 1, 2), 1, 2, 1430));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Packet::encapsulateUdp(
        IpAddress(198, 32, 154, 10), IpAddress(198, 32, 154, 11), 33001, 33001,
        inner));
  }
}
BENCHMARK(BM_TunnelEncapsulate);

void BM_RibChurn(benchmark::State& state) {
  using vini::xorp::Rib;
  using vini::xorp::RibRoute;
  using vini::xorp::RouteOrigin;
  std::mt19937 rng(3);
  std::vector<RibRoute> routes;
  for (int i = 0; i < 256; ++i) {
    RibRoute r;
    r.prefix = Prefix(IpAddress(static_cast<std::uint32_t>(rng())), 24);
    r.origin = RouteOrigin::kOspf;
    r.protocol = "ospf";
    r.metric = rng() % 1000;
    routes.push_back(r);
  }
  for (auto _ : state) {
    Rib rib;
    for (const auto& r : routes) rib.addRoute(r);
    for (const auto& r : routes) rib.removeRoute("ospf", r.prefix);
    benchmark::DoNotOptimize(rib.candidateCount());
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_RibChurn);

// -- Observability overhead ---------------------------------------------------
// These quantify the cost the instrumentation adds to hot paths, so a
// regression in the "zero-cost when disabled, one branch when enabled"
// promise shows up as a bench delta.

void BM_ObsCounterInc(benchmark::State& state) {
  vini::obs::Obs obs;
  vini::obs::Counter* c =
      &obs.metrics.counter("bench", "node", "hot_counter");
  for (auto _ : state) {
    VINI_OBS_INC(c);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramObserve(benchmark::State& state) {
  vini::obs::Obs obs;
  vini::obs::Histogram* h = &obs.metrics.histogram(
      "bench", "node", "rtt_ms", {1.0, 5.0, 10.0, 50.0, 100.0});
  double x = 0.0;
  for (auto _ : state) {
    VINI_OBS_OBSERVE(h, x);
    x += 0.37;
    if (x > 120.0) x = 0.0;
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsTracerRecord(benchmark::State& state) {
  vini::obs::PacketTracer tracer;
  vini::obs::TraceRecord rec;
  rec.event = vini::obs::TraceEvent::kEnqueue;
  rec.bytes = 1538;
  for (auto _ : state) {
    rec.t += 100;
    tracer.record(rec);
  }
  benchmark::DoNotOptimize(tracer.totalRecorded());
}
BENCHMARK(BM_ObsTracerRecord);

void BM_EventQueueProfiled(benchmark::State& state) {
  // Same workload as BM_EventQueueScheduleRun, with the wall-clock
  // profiler attached — the delta is the profiling tax per event.
  for (auto _ : state) {
    vini::sim::EventQueue q;
    vini::obs::EventLoopProfiler profiler;
    profiler.attach(q);
    int sink = 0;
    for (int i = 0; i < 1024; ++i) {
      q.schedule(i * 100, "bench", [&sink] { ++sink; });
    }
    q.run();
    benchmark::DoNotOptimize(sink);
    benchmark::DoNotOptimize(profiler.totalEvents());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueProfiled);

}  // namespace

BENCHMARK_MAIN();
