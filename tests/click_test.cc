// Click tests: FIB trie (with a property check against a reference
// implementation), the element library, the config-language parser, and
// NAPT translation.
#include <gtest/gtest.h>

#include <random>

#include "click/elements.h"
#include "click/fib.h"
#include "click/flat_label.h"
#include "click/graph.h"
#include "phys/network.h"
#include "tcpip/stack_manager.h"

namespace vini::click {
namespace {

using packet::IpAddress;
using packet::Packet;
using packet::Prefix;
using sim::kMillisecond;
using sim::kSecond;

// ---------------------------------------------------------------------------
// Fib

TEST(Fib, LongestPrefixMatch) {
  Fib fib;
  fib.addRoute({Prefix::mustParse("0.0.0.0/0"), IpAddress(1, 1, 1, 1), 9});
  fib.addRoute({Prefix::mustParse("10.0.0.0/8"), IpAddress(2, 2, 2, 2), 1});
  fib.addRoute({Prefix::mustParse("10.1.0.0/16"), IpAddress(3, 3, 3, 3), 2});
  fib.addRoute({Prefix::mustParse("10.1.2.0/24"), IpAddress(4, 4, 4, 4), 3});

  EXPECT_EQ(fib.lookup(IpAddress(10, 1, 2, 3))->port, 3);
  EXPECT_EQ(fib.lookup(IpAddress(10, 1, 9, 3))->port, 2);
  EXPECT_EQ(fib.lookup(IpAddress(10, 9, 9, 3))->port, 1);
  EXPECT_EQ(fib.lookup(IpAddress(11, 0, 0, 1))->port, 9);
}

TEST(Fib, RemoveRestoresShorterMatch) {
  Fib fib;
  fib.addRoute({Prefix::mustParse("10.0.0.0/8"), {}, 1});
  fib.addRoute({Prefix::mustParse("10.1.0.0/16"), {}, 2});
  EXPECT_EQ(fib.lookup(IpAddress(10, 1, 0, 1))->port, 2);
  EXPECT_TRUE(fib.removeRoute(Prefix::mustParse("10.1.0.0/16")));
  EXPECT_EQ(fib.lookup(IpAddress(10, 1, 0, 1))->port, 1);
  EXPECT_FALSE(fib.removeRoute(Prefix::mustParse("10.1.0.0/16")));
  EXPECT_EQ(fib.size(), 1u);
}

TEST(Fib, EmptyLookupMisses) {
  Fib fib;
  EXPECT_EQ(fib.lookup(IpAddress(10, 0, 0, 1)), nullptr);
}

TEST(Fib, ReplaceExistingPrefixKeepsSize) {
  Fib fib;
  fib.addRoute({Prefix::mustParse("10.0.0.0/8"), {}, 1});
  fib.addRoute({Prefix::mustParse("10.0.0.0/8"), {}, 7});
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.lookup(IpAddress(10, 0, 0, 1))->port, 7);
}

TEST(Fib, HostRouteAndDefaultCoexist) {
  Fib fib;
  fib.addRoute({Prefix::defaultRoute(), {}, 0});
  fib.addRoute({Prefix::mustParse("10.1.0.2/32"), {}, 5});
  EXPECT_EQ(fib.lookup(IpAddress(10, 1, 0, 2))->port, 5);
  EXPECT_EQ(fib.lookup(IpAddress(10, 1, 0, 3))->port, 0);
}

TEST(Fib, PropertyMatchesLinearReference) {
  // Random prefixes vs. a brute-force longest-match reference.
  std::mt19937 rng(2006);
  Fib fib;
  std::vector<FibEntry> reference;
  for (int i = 0; i < 400; ++i) {
    const int len = static_cast<int>(rng() % 33);
    FibEntry entry;
    entry.prefix = Prefix(IpAddress(static_cast<std::uint32_t>(rng())), len);
    entry.port = static_cast<int>(rng() % 16);
    entry.next_hop = IpAddress(static_cast<std::uint32_t>(rng()));
    // Keep reference semantics identical: replace same-prefix entries.
    bool replaced = false;
    for (auto& r : reference) {
      if (r.prefix == entry.prefix) {
        r = entry;
        replaced = true;
        break;
      }
    }
    if (!replaced) reference.push_back(entry);
    fib.addRoute(entry);
  }
  EXPECT_EQ(fib.size(), reference.size());
  for (int trial = 0; trial < 3000; ++trial) {
    const IpAddress addr(static_cast<std::uint32_t>(rng()));
    const FibEntry* best = nullptr;
    for (const auto& r : reference) {
      if (r.prefix.contains(addr) &&
          (!best || r.prefix.length() > best->prefix.length())) {
        best = &r;
      }
    }
    const FibEntry* got = fib.lookup(addr);
    if (!best) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->prefix, best->prefix);
      EXPECT_EQ(got->port, best->port);
    }
  }
}

TEST(Fib, ForEachVisitsAllEntries) {
  Fib fib;
  fib.addRoute({Prefix::mustParse("10.0.0.0/8"), {}, 1});
  fib.addRoute({Prefix::mustParse("192.168.0.0/16"), {}, 2});
  fib.addRoute({Prefix::defaultRoute(), {}, 3});
  int count = 0;
  fib.forEach([&](const FibEntry&) { ++count; });
  EXPECT_EQ(count, 3);
  fib.clear();
  EXPECT_EQ(fib.size(), 0u);
}

// ---------------------------------------------------------------------------
// Elements (standalone, no host stack needed)

/// Capture sink used to observe element outputs.
class Capture final : public Element {
 public:
  std::string className() const override { return "Capture"; }
  void push(int port, Packet&& p) override {
    packets.emplace_back(port, std::move(p));
  }
  std::vector<std::pair<int, Packet>> packets;
};

Packet udpTo(IpAddress dst, std::size_t payload = 100) {
  return Packet::udp(IpAddress(10, 1, 0, 2), dst, 1, 2, payload);
}

TEST(LookupIPRouteElement, AnnotatesNextHopAndRoutesByPort) {
  LookupIPRoute rt;
  rt.fib().addRoute({Prefix::mustParse("10.1.0.0/16"), IpAddress(10, 1, 224, 1), 0});
  rt.fib().addRoute({Prefix::mustParse("10.2.0.0/16"), {}, 1});
  Capture out0, out1;
  rt.connectOutput(0, out0, 0);
  rt.connectOutput(1, out1, 0);

  rt.push(0, udpTo(IpAddress(10, 1, 5, 5)));
  rt.push(0, udpTo(IpAddress(10, 2, 5, 5)));
  rt.push(0, udpTo(IpAddress(99, 9, 9, 9)));  // miss

  ASSERT_EQ(out0.packets.size(), 1u);
  EXPECT_EQ(out0.packets[0].second.meta.next_hop, IpAddress(10, 1, 224, 1));
  ASSERT_EQ(out1.packets.size(), 1u);
  // Zero gateway: the packet's own destination becomes the next hop.
  EXPECT_EQ(out1.packets[0].second.meta.next_hop, IpAddress(10, 2, 5, 5));
  EXPECT_EQ(rt.misses(), 1u);
}

TEST(LookupIPRouteElement, ConfiguredFromArgs) {
  LookupIPRoute rt({"10.0.0.0/8 10.1.224.1 0", "0.0.0.0/0 0.0.0.0 2"});
  Capture out2;
  rt.connectOutput(2, out2, 0);
  rt.push(0, udpTo(IpAddress(64, 236, 16, 20)));
  ASSERT_EQ(out2.packets.size(), 1u);
}

TEST(LookupIPRouteElement, RouteCacheSeesEveryFibChangeOnTheNextPacket) {
  // The element caches recent destinations; each FIB change must show
  // on the very next packet to a cached destination.
  LookupIPRoute rt;
  Capture out;
  for (int port = 0; port < 3; ++port) rt.connectOutput(port, out, port);
  const IpAddress dst(10, 1, 2, 3);
  auto send = [&] {
    out.packets.clear();
    rt.push(0, udpTo(dst));
  };
  auto routedTo = [&](int port, IpAddress next_hop) {
    return out.packets.size() == 1 && out.packets[0].first == port &&
           out.packets[0].second.meta.next_hop == next_hop;
  };

  send();  // a cached miss
  EXPECT_TRUE(out.packets.empty());
  EXPECT_EQ(rt.misses(), 1u);

  rt.fib().addRoute({Prefix::mustParse("10.0.0.0/8"), IpAddress(1, 1, 1, 1), 0});
  send();
  EXPECT_TRUE(routedTo(0, IpAddress(1, 1, 1, 1)));
  send();  // served from the cache
  EXPECT_TRUE(routedTo(0, IpAddress(1, 1, 1, 1)));

  // A more-specific prefix.
  rt.fib().addRoute({Prefix::mustParse("10.1.0.0/16"), IpAddress(2, 2, 2, 2), 1});
  send();
  EXPECT_TRUE(routedTo(1, IpAddress(2, 2, 2, 2)));

  // The same prefix re-added with another port and gateway.
  rt.fib().addRoute({Prefix::mustParse("10.1.0.0/16"), IpAddress(3, 3, 3, 3), 2});
  send();
  EXPECT_TRUE(routedTo(2, IpAddress(3, 3, 3, 3)));

  // Removing it falls back to the shorter match.
  ASSERT_TRUE(rt.fib().removeRoute(Prefix::mustParse("10.1.0.0/16")));
  send();
  EXPECT_TRUE(routedTo(0, IpAddress(1, 1, 1, 1)));

  // An unrelated change elsewhere leaves the answer alone.
  rt.fib().addRoute({Prefix::mustParse("192.168.0.0/16"), {}, 1});
  send();
  EXPECT_TRUE(routedTo(0, IpAddress(1, 1, 1, 1)));

  rt.fib().clear();
  send();
  EXPECT_TRUE(out.packets.empty());
  EXPECT_EQ(rt.misses(), 2u);
}

TEST(LookupIPRouteElement, RoutesLikeTheTrieUnderRandomChurn) {
  // Property: with FIB changes interleaved among packets to a small set
  // of destinations (many share cache slots), the element routes every
  // packet exactly as an uncached Fib::lookup would.
  std::mt19937 rng(13);
  LookupIPRoute rt;
  Capture out;
  for (int port = 0; port < 4; ++port) rt.connectOutput(port, out, port);
  std::vector<IpAddress> dsts;
  for (int i = 0; i < 200; ++i) {
    dsts.emplace_back(std::uint8_t{10}, static_cast<std::uint8_t>(rng() % 4),
                      static_cast<std::uint8_t>(rng() % 4),
                      static_cast<std::uint8_t>(rng() % 256));
  }
  std::vector<Prefix> prefixes;
  for (int len = 8; len <= 24; len += 8) {
    for (int i = 0; i < 4; ++i) prefixes.push_back(Prefix(dsts[rng() % 200], len));
  }
  std::uint64_t expected_misses = 0;
  for (int step = 0; step < 5000; ++step) {
    const unsigned action = rng() % 100;
    if (action < 5) {
      rt.fib().addRoute({prefixes[rng() % prefixes.size()],
                         IpAddress(static_cast<std::uint32_t>(rng())),
                         static_cast<int>(rng() % 4)});
    } else if (action < 9) {
      rt.fib().removeRoute(prefixes[rng() % prefixes.size()]);
    } else if (action < 10) {
      rt.fib().clear();
    }
    const IpAddress dst = dsts[rng() % dsts.size()];
    const FibEntry* want = rt.fib().lookup(dst);
    out.packets.clear();
    rt.push(0, udpTo(dst));
    if (want == nullptr) {
      ++expected_misses;
      EXPECT_TRUE(out.packets.empty());
      continue;
    }
    ASSERT_EQ(out.packets.size(), 1u);
    EXPECT_EQ(out.packets[0].first, want->port);
    EXPECT_EQ(out.packets[0].second.meta.next_hop,
              want->next_hop.isZero() ? dst : want->next_hop);
  }
  EXPECT_EQ(rt.misses(), expected_misses);
}

TEST(EncapTableElement, MapsNextHopToTunnelEndpoint) {
  EncapTable encap;
  encap.addMapping(IpAddress(10, 1, 224, 1), IpAddress(198, 32, 154, 10), 33001);
  Capture out;
  encap.connectOutput(0, out, 0);

  Packet p = udpTo(IpAddress(10, 1, 5, 5));
  p.meta.next_hop = IpAddress(10, 1, 224, 1);
  encap.push(0, std::move(p));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].second.meta.encap_dst, IpAddress(198, 32, 154, 10));
  EXPECT_EQ(out.packets[0].second.meta.encap_port, 33001);

  Packet miss = udpTo(IpAddress(10, 1, 5, 5));
  miss.meta.next_hop = IpAddress(10, 1, 224, 9);
  encap.push(0, std::move(miss));
  EXPECT_EQ(encap.misses(), 1u);
  EXPECT_TRUE(encap.removeMapping(IpAddress(10, 1, 224, 1)));
  EXPECT_EQ(encap.size(), 0u);
}

TEST(LocalDemuxElement, SplitsControlLocalTransit) {
  LocalDemux demux;
  demux.addLocalAddress(IpAddress(10, 1, 0, 2));
  Capture control, local, transit;
  demux.connectOutput(0, control, 0);
  demux.connectOutput(1, local, 0);
  demux.connectOutput(2, transit, 0);

  Packet ospf;
  ospf.ip.dst = IpAddress(10, 1, 0, 2);
  ospf.ip.proto = packet::IpProto::kOspf;
  demux.push(0, std::move(ospf));
  demux.push(0, udpTo(IpAddress(10, 1, 0, 2)));
  demux.push(0, udpTo(IpAddress(10, 1, 0, 3)));

  EXPECT_EQ(control.packets.size(), 1u);
  EXPECT_EQ(local.packets.size(), 1u);
  EXPECT_EQ(transit.packets.size(), 1u);
}

TEST(DecIpTtlElement, DecrementsAndDropsExpired) {
  DecIpTtl ttl;
  Capture out;
  ttl.connectOutput(0, out, 0);
  Packet p = udpTo(IpAddress(10, 2, 0, 1));
  p.ip.ttl = 2;
  ttl.push(0, std::move(p));
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(out.packets[0].second.ip.ttl, 1);

  Packet dying = udpTo(IpAddress(10, 2, 0, 1));
  dying.ip.ttl = 1;
  ttl.push(0, std::move(dying));
  EXPECT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(ttl.expired(), 1u);
}

TEST(DropFilterElement, BlocksByEncapDestination) {
  DropFilter filter;
  Capture out;
  filter.connectOutput(0, out, 0);
  const IpAddress peer(198, 32, 154, 11);

  Packet p = udpTo(IpAddress(10, 1, 5, 5));
  p.meta.encap_dst = peer;
  filter.push(0, Packet(p));
  EXPECT_EQ(out.packets.size(), 1u);

  filter.block(peer);
  filter.push(0, Packet(p));
  EXPECT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(filter.dropped(), 1u);

  filter.unblock(peer);
  filter.push(0, Packet(p));
  EXPECT_EQ(out.packets.size(), 2u);
}

TEST(DropFilterElement, FallsBackToIpDestination) {
  DropFilter filter;
  Capture out;
  filter.connectOutput(0, out, 0);
  filter.block(IpAddress(10, 1, 5, 5));
  filter.push(0, udpTo(IpAddress(10, 1, 5, 5)));  // no encap annotation
  EXPECT_EQ(filter.dropped(), 1u);
  EXPECT_TRUE(out.packets.empty());
}

TEST(CounterAndDiscard, CountAndSink) {
  Counter counter;
  Discard discard;
  counter.connectOutput(0, discard, 0);
  for (int i = 0; i < 5; ++i) counter.push(0, udpTo(IpAddress(1, 2, 3, 4), 100));
  EXPECT_EQ(counter.packets(), 5u);
  EXPECT_EQ(counter.bytes(), 5u * 128u);
  EXPECT_EQ(discard.count(), 5u);
  counter.reset();
  EXPECT_EQ(counter.packets(), 0u);
}

TEST(ClassifierElement, RoutesByProtocolFirstMatch) {
  Classifier cls({"icmp", "udp", "-"});
  Capture icmp, udp, rest;
  cls.connectOutput(0, icmp, 0);
  cls.connectOutput(1, udp, 0);
  cls.connectOutput(2, rest, 0);

  cls.push(0, Packet::icmpEchoRequest(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2), 1, 1, 8));
  cls.push(0, udpTo(IpAddress(2, 2, 2, 2)));
  packet::TcpHeader th;
  cls.push(0, Packet::tcp(IpAddress(1, 1, 1, 1), IpAddress(2, 2, 2, 2), th, 10));
  EXPECT_EQ(icmp.packets.size(), 1u);
  EXPECT_EQ(udp.packets.size(), 1u);
  EXPECT_EQ(rest.packets.size(), 1u);
}

TEST(ClassifierElement, NoMatchCountsUnmatched) {
  Classifier cls({"tcp"});
  cls.push(0, udpTo(IpAddress(2, 2, 2, 2)));
  EXPECT_EQ(cls.unmatched(), 1u);
}

TEST(Element, UnconnectedOutputDropsSafely) {
  LocalDemux demux;  // no outputs connected
  demux.push(0, udpTo(IpAddress(1, 2, 3, 4)));
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Shaper (needs an event queue)

struct ShaperWorld {
  sim::EventQueue queue;
  ClickContext context;
  ShaperWorld() { context.queue = &queue; }
};

TEST(ShaperElement, EnforcesConfiguredRate) {
  ShaperWorld world;
  Shaper shaper(world.context, 8e6, 2000);  // 1 MB/s, small bucket
  Capture out;
  shaper.connectOutput(0, out, 0);
  // Offer 200 x 1000-byte packets instantaneously.
  for (int i = 0; i < 200; ++i) shaper.push(0, udpTo(IpAddress(1, 1, 1, 1), 1000));
  world.queue.runUntil(100 * kMillisecond);
  // At 1 MB/s for 0.1 s: ~100 KB = ~95 packets of ~1128 wire bytes,
  // plus the initial bucket.
  EXPECT_GT(out.packets.size(), 70u);
  EXPECT_LT(out.packets.size(), 110u);
}

TEST(ShaperElement, BucketAllowsInitialBurst) {
  ShaperWorld world;
  Shaper shaper(world.context, 8e3, 10000);  // 1 KB/s but a 10 KB bucket
  Capture out;
  shaper.connectOutput(0, out, 0);
  for (int i = 0; i < 8; ++i) shaper.push(0, udpTo(IpAddress(1, 1, 1, 1), 1000));
  // All 8 packets fit the bucket: delivered immediately.
  EXPECT_EQ(out.packets.size(), 8u);
}

TEST(ShaperElement, QueueOverflowDrops) {
  ShaperWorld world;
  Shaper shaper(world.context, 8e3, 1000, 3000);  // tiny queue
  Capture out;
  shaper.connectOutput(0, out, 0);
  for (int i = 0; i < 50; ++i) shaper.push(0, udpTo(IpAddress(1, 1, 1, 1), 1000));
  EXPECT_GT(shaper.drops(), 0u);
}

// ---------------------------------------------------------------------------
// Graph and parser

struct GraphWorld {
  sim::EventQueue queue;
  phys::PhysNetwork net{queue};
  tcpip::StackManager stacks{net};
  tcpip::HostStack* stack;
  cpu::Process* process;
  ClickContext context;

  GraphWorld() {
    auto& node = net.addNode("n", IpAddress(9, 0, 0, 1));
    stack = &stacks.ensure(node);
    process = &node.scheduler().createProcess({});
    context.stack = stack;
    context.process = process;
    context.queue = &queue;
  }
};

TEST(ProcessInbox, EachJobDeliversThePacketSubmittedWithIt) {
  // Two inboxes and a plain job share one process, and a delivery
  // submits more packets.  Every packet must arrive through its own
  // inbox, in submission order.
  struct Inboxes {
    GraphWorld w;
    ProcessInbox a;
    ProcessInbox b;
    std::vector<std::pair<char, std::uint16_t>> delivered;

    void submit(ProcessInbox& inbox, char name, std::uint16_t id) {
      inbox.submit(w.context, udp(id), [this, name](Packet&& p) {
        delivered.emplace_back(name, p.udpHeader()->src_port);
        if (p.udpHeader()->src_port == 2) {
          submit(a, 'a', 5);
          submit(b, 'b', 6);
        }
      });
    }
    static Packet udp(std::uint16_t id) {
      return Packet::udp(IpAddress(10, 1, 0, 2), IpAddress(10, 9, 0, 1), id, 2, 100);
    }
  } s;
  s.submit(s.a, 'a', 1);
  s.w.process->execute(kMillisecond, [&s] { s.delivered.emplace_back('-', 0); });
  s.submit(s.b, 'b', 2);
  s.submit(s.a, 'a', 3);
  s.submit(s.b, 'b', 4);
  s.w.queue.run();
  const std::vector<std::pair<char, std::uint16_t>> expected{
      {'a', 1}, {'-', 0}, {'b', 2}, {'a', 3}, {'b', 4}, {'a', 5}, {'b', 6}};
  EXPECT_EQ(s.delivered, expected);
  EXPECT_TRUE(s.w.process->idle());
}

TEST(RouterGraph, ParsesDeclarationsAndConnections) {
  GraphWorld world;
  RouterGraph graph(world.context);
  graph.parseConfig(R"(
    // a comment
    rt :: LookupIPRoute(10.0.0.0/8 0.0.0.0 0);
    counter :: Counter();
    sink :: Discard();  /* block comment */
    rt [0] -> counter -> sink;
  )");
  EXPECT_EQ(graph.elementCount(), 3u);
  auto* rt = graph.get<LookupIPRoute>("rt");
  ASSERT_NE(rt, nullptr);
  rt->push(0, udpTo(IpAddress(10, 1, 1, 1)));
  EXPECT_EQ(graph.get<Counter>("counter")->packets(), 1u);
  EXPECT_EQ(graph.get<Discard>("sink")->count(), 1u);
}

TEST(RouterGraph, PortBracketsOnBothSides) {
  GraphWorld world;
  RouterGraph graph(world.context);
  graph.parseConfig(R"(
    demux :: LocalDemux(10.1.0.2);
    a :: Discard();
    b :: Discard();
    c :: Discard();
    demux [0] -> [0] a;
    demux [1] -> b;
    demux [2] -> c;
  )");
  auto* demux = graph.get<LocalDemux>("demux");
  Packet p;
  p.ip.dst = IpAddress(10, 1, 0, 2);
  p.ip.proto = packet::IpProto::kOspf;
  demux->push(0, std::move(p));
  EXPECT_EQ(graph.get<Discard>("a")->count(), 1u);
}

TEST(RouterGraph, RejectsUnknownClassAndDuplicates) {
  GraphWorld world;
  RouterGraph graph(world.context);
  EXPECT_THROW(graph.parseConfig("x :: NoSuchElement();"), std::exception);
  graph.parseConfig("a :: Discard();");
  EXPECT_THROW(graph.parseConfig("a :: Discard();"), std::exception);
  EXPECT_THROW(graph.parseConfig("a -> nosuch;"), std::exception);
  EXPECT_THROW(graph.parseConfig("what is this"), std::exception);
}

TEST(RouterGraph, ChainedConnectionsAcrossThreeElements) {
  GraphWorld world;
  RouterGraph graph(world.context);
  graph.parseConfig(R"(
    c1 :: Counter(); c2 :: Counter(); c3 :: Counter(); sink :: Discard();
    c1 -> c2 -> c3 -> sink;
  )");
  graph.get<Counter>("c1")->push(0, udpTo(IpAddress(1, 1, 1, 1)));
  EXPECT_EQ(graph.get<Counter>("c3")->packets(), 1u);
}

TEST(RouterGraph, ShaperHonoursQueueBytesArgument) {
  GraphWorld world;
  RouterGraph graph(world.context);
  // 1 KB/s, a 1000-byte bucket, and a 3000-byte queue: a burst of 50
  // 1000-byte packets overflows the queue at once.  With the 256 KiB
  // default queue the same burst would drop nothing.
  graph.parseConfig(R"(
    shaper :: Shaper(8000, 1000, 3000);
    sink :: Discard();
    shaper -> sink;
  )");
  auto* shaper = graph.get<Shaper>("shaper");
  ASSERT_NE(shaper, nullptr);
  for (int i = 0; i < 50; ++i) shaper->push(0, udpTo(IpAddress(1, 1, 1, 1), 1000));
  EXPECT_LE(shaper->queuedBytes(), 3000u);
  EXPECT_GE(shaper->drops(), 45u);
}

TEST(RouterGraph, ShaperRejectsExtraArguments) {
  GraphWorld world;
  RouterGraph graph(world.context);
  try {
    graph.parseConfig("s :: Shaper(8000, 1000, 3000, 7);");
    FAIL() << "four Shaper arguments were accepted";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("Shaper(rate_bps, bucket_bytes"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(graph.parseConfig("t :: Shaper(8000);"), std::exception);
}

// ---------------------------------------------------------------------------
// NAPT (needs stacks and a network)

struct NaptWorld {
  sim::EventQueue queue;
  phys::PhysNetwork net{queue};
  tcpip::StackManager stacks{net};
  tcpip::HostStack* egress_stack;
  tcpip::HostStack* web_stack;
  cpu::Process* process;
  ClickContext context;

  NaptWorld() {
    auto& egress = net.addNode("egress", IpAddress(198, 32, 154, 20));
    auto& web = net.addNode("web", IpAddress(64, 236, 16, 20));
    net.addLink(egress, web);
    egress_stack = &stacks.ensure(egress);
    web_stack = &stacks.ensure(web);
    process = &egress.scheduler().createProcess({});
    context.stack = egress_stack;
    context.process = process;
    context.queue = &queue;
  }
};

TEST(NaptElement, RewritesSourceAndPullsReturnTrafficBack) {
  NaptWorld world;
  Napt napt(world.context, world.egress_stack->address());
  Capture back;
  napt.connectOutput(0, back, 0);

  // The external web server echoes any UDP datagram back to its source.
  IpAddress seen_src;
  std::uint16_t seen_port = 0;
  world.web_stack->openUdp(80).setReceiveHandler([&](Packet p) {
    seen_src = p.ip.src;
    seen_port = p.udpHeader()->src_port;
    world.web_stack->openUdp(80).sendTo(seen_src, seen_port, 500);
  });

  // An overlay client packet (private source) exits through the NAPT.
  Packet out = Packet::udp(IpAddress(10, 1, 250, 10), world.web_stack->address(),
                           4444, 80, 100);
  napt.push(0, std::move(out));
  world.queue.runUntil(kSecond);

  // The web server saw the egress node's public address, not 10.x.
  EXPECT_EQ(seen_src, world.egress_stack->address());
  EXPECT_NE(seen_port, 4444);
  EXPECT_EQ(napt.translatedOut(), 1u);

  // The reply was captured, reverse-translated, and pushed back into the
  // graph addressed to the original private source and port.
  ASSERT_EQ(back.packets.size(), 1u);
  const Packet& reply = back.packets[0].second;
  EXPECT_EQ(reply.ip.dst, IpAddress(10, 1, 250, 10));
  EXPECT_EQ(reply.udpHeader()->dst_port, 4444);
  EXPECT_EQ(napt.translatedBack(), 1u);
  EXPECT_EQ(napt.activeMappings(), 1u);
}

TEST(NaptElement, ReusesMappingForSameFlow) {
  NaptWorld world;
  Napt napt(world.context, world.egress_stack->address());
  std::set<std::uint16_t> ports;
  world.web_stack->openUdp(80).setReceiveHandler([&](Packet p) {
    ports.insert(p.udpHeader()->src_port);
  });
  for (int i = 0; i < 5; ++i) {
    napt.push(0, Packet::udp(IpAddress(10, 1, 250, 10),
                             world.web_stack->address(), 4444, 80, 100));
  }
  world.queue.runUntil(kSecond);
  EXPECT_EQ(ports.size(), 1u);  // one flow, one mapping
  EXPECT_EQ(napt.activeMappings(), 1u);
}

TEST(NaptElement, DistinctFlowsGetDistinctPorts) {
  NaptWorld world;
  Napt napt(world.context, world.egress_stack->address());
  std::set<std::uint16_t> ports;
  world.web_stack->openUdp(80).setReceiveHandler([&](Packet p) {
    ports.insert(p.udpHeader()->src_port);
  });
  for (std::uint16_t sport = 1000; sport < 1005; ++sport) {
    napt.push(0, Packet::udp(IpAddress(10, 1, 250, 10),
                             world.web_stack->address(), sport, 80, 100));
  }
  world.queue.runUntil(kSecond);
  EXPECT_EQ(ports.size(), 5u);
  EXPECT_EQ(napt.activeMappings(), 5u);
}

TEST(NaptElement, TranslatesIcmpByIdent) {
  NaptWorld world;
  Napt napt(world.context, world.egress_stack->address());
  Capture back;
  napt.connectOutput(0, back, 0);
  // Echo request from an overlay client to the web host.
  napt.push(0, Packet::icmpEchoRequest(IpAddress(10, 1, 250, 10),
                                       world.web_stack->address(), 77, 1, 56));
  world.queue.runUntil(kSecond);
  // The web host's kernel answers; the reply comes back through the NAT.
  ASSERT_EQ(back.packets.size(), 1u);
  EXPECT_EQ(back.packets[0].second.ip.dst, IpAddress(10, 1, 250, 10));
  EXPECT_EQ(back.packets[0].second.icmpHeader()->ident, 77);
}

TEST(RouterGraph, ParserFuzzNeverCrashes) {
  // Random config text must either parse or throw; never crash.
  std::mt19937 rng(42);
  const char alphabet[] = "ab:;()->[]0123456789 \n/*";
  GraphWorld world;
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const std::size_t len = rng() % 80;
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng() % (sizeof(alphabet) - 1)]);
    }
    RouterGraph graph(world.context);
    try {
      graph.parseConfig(text);
    } catch (const std::exception&) {
      // expected for most inputs
    }
  }
  SUCCEED();
}

// ---------------------------------------------------------------------------
// FlatLabelRoute: the Section 4.2.1 "new forwarding paradigm" claim

TEST(FlatLabelRoute, OwnerIsRingSuccessor) {
  FlatLabelRoute rt(/*own_label=*/100);
  rt.addPeer(200, IpAddress(9, 0, 0, 2), 40000);
  rt.addPeer(300, IpAddress(9, 0, 0, 3), 40000);
  EXPECT_EQ(rt.ownerOf(150), 200u);   // next label clockwise
  EXPECT_EQ(rt.ownerOf(250), 300u);
  EXPECT_EQ(rt.ownerOf(350), 100u);   // wraps around to us
  EXPECT_EQ(rt.ownerOf(100), 100u);   // exact hit
  EXPECT_EQ(rt.ownerOf(200), 200u);
}

TEST(FlatLabelRoute, LocalVsTunnelOutput) {
  FlatLabelRoute rt(100);
  rt.addPeer(200, IpAddress(9, 0, 0, 2), 40000);
  Capture tunnel, local;
  rt.connectOutput(0, tunnel, 0);
  rt.connectOutput(1, local, 0);

  Packet for_peer = udpTo(IpAddress(1, 2, 3, 4));
  for_peer.meta.flow_id = 150;  // owned by peer 200
  rt.push(0, std::move(for_peer));
  ASSERT_EQ(tunnel.packets.size(), 1u);
  EXPECT_EQ(tunnel.packets[0].second.meta.encap_dst, IpAddress(9, 0, 0, 2));
  EXPECT_EQ(tunnel.packets[0].second.meta.encap_port, 40000);

  Packet for_us = udpTo(IpAddress(5, 6, 7, 8));
  for_us.meta.flow_id = 250;  // wraps to us (no peer past 200)
  rt.push(0, std::move(for_us));
  EXPECT_EQ(local.packets.size(), 1u);
}

TEST(FlatLabelRoute, MultiHopKeyRoutingOverRealTunnels) {
  // Four virtual nodes on a ring of labels, each knowing only its two
  // ring neighbors, connected by real UDP tunnels between real stacks:
  // greedy key routing converges to the owner in <= 2 hops, with the IP
  // headers never consulted.
  sim::EventQueue queue;
  phys::PhysNetwork net(queue);
  tcpip::StackManager stacks(net);
  constexpr int kN = 4;
  const std::uint64_t kQuarter = 1ull << 62;
  struct Node {
    tcpip::HostStack* stack;
    std::unique_ptr<RouterGraph> graph;
    FlatLabelRoute* route;
    Capture* local;
  };
  std::vector<Node> nodes(kN);
  std::vector<phys::PhysNode*> phys_nodes;
  for (int i = 0; i < kN; ++i) {
    phys_nodes.push_back(&net.addNode(
        "n" + std::to_string(i), IpAddress(9, 0, 0, static_cast<std::uint8_t>(i + 1))));
  }
  for (int i = 0; i < kN; ++i) {
    net.addLink(*phys_nodes[static_cast<std::size_t>(i)],
                *phys_nodes[static_cast<std::size_t>((i + 1) % kN)]);
  }
  for (int i = 0; i < kN; ++i) {
    Node& node = nodes[static_cast<std::size_t>(i)];
    node.stack = &stacks.ensure(*phys_nodes[static_cast<std::size_t>(i)]);
    ClickContext context;
    context.stack = node.stack;
    context.process = &phys_nodes[static_cast<std::size_t>(i)]
                           ->scheduler()
                           .createProcess({});
    context.queue = &queue;
    node.graph = std::make_unique<RouterGraph>(context);
    node.graph->parseConfig("from :: FromSocket(40000);\n"
                            "tosock :: ToSocket(40000);\n");
    auto route = std::make_unique<FlatLabelRoute>(
        static_cast<std::uint64_t>(i) * kQuarter);
    node.route = route.get();
    node.graph->addElement("flat", std::move(route));
    auto capture = std::make_unique<Capture>();
    node.local = capture.get();
    node.graph->addElement("local", std::move(capture));
    node.graph->connect("from", 0, "flat", 0);
    node.graph->connect("flat", 0, "tosock", 0);
    node.graph->connect("flat", 1, "local", 0);
  }
  // Ring neighbor knowledge only.
  for (int i = 0; i < kN; ++i) {
    for (int d : {1, kN - 1}) {
      const int j = (i + d) % kN;
      nodes[static_cast<std::size_t>(i)].route->addPeer(
          static_cast<std::uint64_t>(j) * kQuarter,
          nodes[static_cast<std::size_t>(j)].stack->address(), 40000);
    }
  }

  // Inject keys at node 0; each must land at its ring owner.
  struct Probe {
    std::uint64_t key;
    int expect_owner;
  };
  // Keys strictly above a label are owned by the NEXT node on the ring.
  const Probe probes[] = {{1, 1},  // just past node 0's label
                          {kQuarter, 1},
                          {kQuarter + 5, 2},
                          {2 * kQuarter + 5, 3},
                          {3 * kQuarter + 5, 0}};
  for (const auto& probe : probes) {
    Packet p = udpTo(IpAddress(10, 99, 99, 99));  // IP dst is irrelevant
    p.meta.flow_id = probe.key;
    nodes[0].graph->find("flat")->push(0, std::move(p));
  }
  queue.runUntil(queue.now() + sim::kSecond);

  for (int i = 0; i < kN; ++i) {
    std::size_t expected = 0;
    for (const auto& probe : probes) {
      if (probe.expect_owner == i) ++expected;
    }
    EXPECT_EQ(nodes[static_cast<std::size_t>(i)].local->packets.size(), expected)
        << "node " << i;
    for (const auto& [port, packet] : nodes[static_cast<std::size_t>(i)].local->packets) {
      EXPECT_EQ(nodes[static_cast<std::size_t>(i)].route->ownerOf(packet.meta.flow_id),
                nodes[static_cast<std::size_t>(i)].route->ownLabel());
    }
  }
}

}  // namespace
}  // namespace vini::click
