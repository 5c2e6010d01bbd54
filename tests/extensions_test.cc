// Tests for the paper's Section 6/7 extension machinery: atomic
// protocol switchover, upcall-driven fast failover, and per-slice link
// bandwidth shaping.
#include <gtest/gtest.h>

#include "app/iperf.h"
#include "app/ping.h"
#include "topo/worlds.h"

namespace vini {
namespace {

using sim::kSecond;
using topo::WorldOptions;

WorldOptions quiescent() {
  WorldOptions options;
  options.contention = 0.0;
  return options;
}

TEST(AtomicSwitchover, FibFlipsBetweenParallelProtocols) {
  // Section 7: "a network operator could run multiple routing protocols
  // in parallel on the same physical infrastructure ... controlling the
  // forwarding tables ... while providing the capability for atomic
  // switchover between virtual networks."  Here one virtual network runs
  // OSPF and RIP side by side; the RIB's protocol-distance override
  // flips which one programs the Click FIB.
  WorldOptions options = quiescent();
  options.enable_rip = true;
  options.hello_interval = 2 * kSecond;
  options.dead_interval = 6 * kSecond;
  auto world = topo::makeDeterWorld(options);
  // Let both protocols converge (RIP updates every 30 s by default; the
  // DETER world uses the default RipConfig, so run a couple of rounds).
  world->queue.runUntil(world->queue.now() + 70 * kSecond);

  auto* src = world->router("Src");
  const auto sink_tap = world->tapOf("Sink");
  auto route = src->xorp().rib().lookup(sink_tap);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->protocol, "ospf");  // OSPF wins by admin distance

  // Atomic switchover to RIP.
  src->xorp().rib().setProtocolDistance("rip", 5);
  route = src->xorp().rib().lookup(sink_tap);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->protocol, "rip");

  // Traffic still flows (the FIB now carries RIP's routes).
  app::Pinger::Options popt;
  popt.count = 10;
  popt.source = world->tapOf("Src");
  app::Pinger pinger(world->stack("Src"), sink_tap, popt);
  bool done = false;
  pinger.start([&] { done = true; });
  world->queue.runUntil(world->queue.now() + 20 * kSecond);
  ASSERT_TRUE(done);
  EXPECT_EQ(pinger.report().received, 10u);

  // And atomically back.
  src->xorp().rib().setProtocolDistance("rip", std::nullopt);
  route = src->xorp().rib().lookup(sink_tap);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->protocol, "ospf");
}

TEST(UpcallFailover, BeatsTheDeadInterval) {
  // Section 6.1: exposing topology changes via upcalls lets a slice
  // react immediately instead of waiting for its routing protocol's
  // timers.  Measure Seattle's reroute time for the Denver-KC physical
  // failure with and without upcall-driven failover.
  auto measure = [](bool use_upcalls) {
    auto world = topo::makeAbileneWorld(quiescent());
    if (use_upcalls) world->iias->enableUpcallFailover(*world->vini);
    EXPECT_TRUE(world->runUntilConverged(120 * kSecond));

    auto* seattle = world->router("Seattle");
    const auto kc_tap = world->tapOf("KansasCity");
    const auto metric_before = seattle->xorp().rib().lookup(kc_tap)->metric;

    const sim::Time fail_at = world->queue.now();
    world->net.linkBetween("Denver", "KansasCity")->setUp(false);
    for (int tick = 0; tick < 2400; ++tick) {
      world->queue.runUntil(fail_at + (tick + 1) * (sim::kMillisecond * 25));
      auto route = seattle->xorp().rib().lookup(kc_tap);
      if (route && route->metric != metric_before) {
        return sim::toSeconds(world->queue.now() - fail_at);
      }
    }
    return -1.0;
  };

  const double with_timers = measure(false);
  const double with_upcalls = measure(true);
  ASSERT_GT(with_timers, 0);
  ASSERT_GT(with_upcalls, 0);
  // Timer-driven: the 10 s dead interval dominates (detection 5-10.5 s).
  EXPECT_GT(with_timers, 4.5);
  // Upcall-driven: SPF hold-down plus flooding only.
  EXPECT_LT(with_upcalls, 1.5);
  EXPECT_LT(with_upcalls * 3, with_timers);
}

TEST(LinkShaping, SliceBandwidthIsEnforced) {
  // Section 6.2: "to allow researchers to vary link capacities, we also
  // plan to add support for setting link bandwidths ... via
  // configuration of traffic shapers in Click."
  WorldOptions options = quiescent();
  options.resources.link_bandwidth_bps = 10e6;  // shape the slice to 10 Mb/s
  auto world = topo::makeDeterWorld(options);
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));

  tcpip::TcpConfig tcp;
  tcp.recv_buffer = 64 * 1024;
  auto result = app::runIperfTcp(world->queue, world->stack("Src"),
                                 world->stack("Sink"), world->tapOf("Sink"),
                                 5001, 4, 5 * kSecond, tcp, world->tapOf("Src"));
  // Well below the ~200 Mb/s the unshaped overlay reaches (Table 2), and
  // close to the configured cap.
  EXPECT_LT(result.mbps, 11.0);
  EXPECT_GT(result.mbps, 5.0);
}

TEST(LinkShaping, UnshapedSliceUnaffectedOnSameSubstrate) {
  // Two slices on one substrate: one shaped, one not.
  auto world = topo::makeAbileneSubstrate(quiescent());
  core::TopologyEmbedder embedder(*world->vini);
  overlay::IiasConfig config;
  config.costs = topo::clickCosts();
  config.ospf.hello_interval = 2 * kSecond;
  config.ospf.dead_interval = 6 * kSecond;

  core::TopologySpec pair1;
  pair1.name = "shaped";
  pair1.nodes = {{"a", "Chicago"}, {"b", "NewYork"}};
  pair1.links = {{"a", "b", 1}};
  core::ResourceSpec shaped;
  shaped.link_bandwidth_bps = 5e6;
  auto e1 = embedder.embed(pair1, shaped);
  overlay::IiasNetwork slice1(std::move(e1), world->stacks, config);

  core::TopologySpec pair2;
  pair2.name = "unshaped";
  pair2.nodes = {{"x", "Indianapolis"}, {"y", "Atlanta"}};
  pair2.links = {{"x", "y", 1}};
  auto e2 = embedder.embed(pair2);
  overlay::IiasNetwork slice2(std::move(e2), world->stacks, config);

  slice1.start();
  slice2.start();
  for (int i = 0; i < 30 && !(slice1.allAdjacent() && slice2.allAdjacent()); ++i) {
    world->queue.runUntil(world->queue.now() + kSecond);
  }
  ASSERT_TRUE(slice1.allAdjacent());
  ASSERT_TRUE(slice2.allAdjacent());

  tcpip::TcpConfig tcp;
  tcp.recv_buffer = 64 * 1024;
  auto shaped_result = app::runIperfTcp(
      world->queue, world->stack("Chicago"), world->stack("NewYork"),
      slice1.slice().nodeByName("b")->tapAddress(), 5001, 4, 5 * kSecond, tcp,
      slice1.slice().nodeByName("a")->tapAddress());
  auto free_result = app::runIperfTcp(
      world->queue, world->stack("Indianapolis"), world->stack("Atlanta"),
      slice2.slice().nodeByName("y")->tapAddress(), 5002, 4, 5 * kSecond, tcp,
      slice2.slice().nodeByName("x")->tapAddress());
  EXPECT_LT(shaped_result.mbps, 6.0);
  EXPECT_GT(free_result.mbps, 3 * shaped_result.mbps);
}

TEST(BgpEgress, LearnedExternalPrefixesProgramTheNaptPort) {
  // The egress router speaks BGP (through the Section 6.1 multiplexer)
  // with a neighboring domain; prefixes it learns must program the Click
  // FIB toward the NAPT (port 2), not toward a tunnel.
  auto world = topo::makeDeterWorld(quiescent());
  ASSERT_TRUE(world->runUntilConverged(60 * kSecond));
  auto* egress = world->router("Sink");
  egress->setExternalEgress();

  xorp::BgpMultiplexer::Config mux_config;
  mux_config.vini_block = packet::Prefix::mustParse("198.32.0.0/16");
  xorp::BgpConfig mux_speaker;
  mux_speaker.asn = 42;
  mux_speaker.router_id = 99;
  xorp::BgpMultiplexer mux(world->queue, mux_speaker, mux_config);

  xorp::BgpConfig isp_config;
  isp_config.asn = 7018;
  isp_config.router_id = 50;
  xorp::BgpProcess isp(world->queue, nullptr, isp_config);
  xorp::BgpProcess::connect(mux.externalSpeaker(), isp);

  auto& slice_bgp = egress->xorp().enableBgp({42, 0, "bgp"});
  ASSERT_TRUE(mux.registerSlice(slice_bgp,
                                packet::Prefix::mustParse("198.32.1.0/24")));
  isp.originate(packet::Prefix::mustParse("64.236.0.0/16"));
  world->queue.runUntil(world->queue.now() + 2 * kSecond);

  // The egress's RIB holds the eBGP route...
  auto rib_route =
      egress->xorp().rib().lookup(packet::IpAddress(64, 236, 16, 20));
  ASSERT_TRUE(rib_route.has_value());
  // Learned through the mux's speaker, which sits in VINI's own AS, so
  // the session is iBGP from the slice's perspective.
  EXPECT_EQ(rib_route->origin, xorp::RouteOrigin::kIbgp);
  // ...and the Click FIB sends that prefix to the NAPT, not a tunnel.
  const click::FibEntry* fib_entry =
      egress->fibElement().fib().lookup(packet::IpAddress(64, 236, 16, 20));
  ASSERT_NE(fib_entry, nullptr);
  EXPECT_EQ(fib_entry->prefix.str(), "64.236.0.0/16");
  EXPECT_EQ(fib_entry->port, 2);

  // Withdrawal cleans the FIB back to the default route.
  isp.withdrawOrigin(packet::Prefix::mustParse("64.236.0.0/16"));
  world->queue.runUntil(world->queue.now() + 2 * kSecond);
  fib_entry =
      egress->fibElement().fib().lookup(packet::IpAddress(64, 236, 16, 20));
  ASSERT_NE(fib_entry, nullptr);
  EXPECT_EQ(fib_entry->prefix, packet::Prefix::defaultRoute());
}

}  // namespace
}  // namespace vini
