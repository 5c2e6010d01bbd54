#include "click/elements.h"

#include <sstream>
#include <stdexcept>

#include "click/graph.h"

namespace vini::click {

namespace {

std::vector<std::string> splitWords(const std::string& s) {
  std::istringstream is(s);
  std::vector<std::string> words;
  std::string w;
  while (is >> w) words.push_back(w);
  return words;
}

tcpip::TunDevice* requireTun(ClickContext& context, const std::string& name) {
  auto* dev = dynamic_cast<tcpip::TunDevice*>(context.stack->deviceByName(name));
  if (!dev) throw std::runtime_error("no TUN device named " + name);
  return dev;
}

// Hop-span helpers for traced packets (meta.trace_id != 0).  Elements
// without a ClickContext (DropFilter, Classifier, the lookup tables)
// only ever *end* a journey, and use VINI_OBS_ROOT_DROP, which reads the
// clock the World attached to the obs context.
std::uint32_t spanOpen(const ClickContext& context, const packet::Packet& p,
                       std::int16_t layer, std::int16_t node) {
  if (p.meta.trace_id == 0) return obs::SpanTracker::kNoSpan;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    return ctx->spans.open(p.meta.trace_id, layer, context.queue->now(), node,
                           -1, static_cast<std::uint32_t>(p.ipPacketBytes()));
  }
  return obs::SpanTracker::kNoSpan;
}

void spanClose(const ClickContext& context, std::uint32_t span_id) {
  if (span_id == obs::SpanTracker::kNoSpan) return;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    ctx->spans.close(span_id, context.queue->now());
  }
}

void spanDrop(const ClickContext& context, std::uint32_t span_id,
              const char* reason) {
  if (span_id == obs::SpanTracker::kNoSpan) return;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    ctx->spans.close(span_id, context.queue->now(), obs::SpanOutcome::kDropped,
                     ctx->spans.intern(reason));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FromSocket

FromSocket::FromSocket(ClickContext& context, std::uint16_t port)
    : context_(context), port_(port) {
  tcpip::UdpSocket& socket = context_.stack->openUdp(port_);
  socket.setBuffered();
  socket.setNotify([this](const packet::Packet& p) { onQueued(p); });
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    // One counter per node: co-resident slices' tunnel endpoints share it
    // (registration of an existing (key, type) returns the same metric).
    m_rx_packets_ = &ctx->metrics.counter(
        "click.FromSocket", context_.stack->node().name(), "rx_packets");
    span_layer_ = ctx->spans.intern("click.process");
    span_node_ = ctx->spans.intern(context_.stack->node().name());
  }
}

void FromSocket::onQueued(const packet::Packet& p) {
  // One process job per queued datagram: the job pays the user-space
  // forwarding cost (syscalls + copies), then reads and processes it.
  // While the process is descheduled the socket buffer fills — and
  // overflows, which is Figure 6(a).
  const sim::Duration cost = context_.costs.cost(p.ipPacketBytes());
  // The span covers the socket-buffer wait (the process may be
  // descheduled) plus the charged forwarding cost: jobs and the buffer
  // are both FIFO, so the job reads the packet it was notified for.
  const std::uint32_t span = spanOpen(context_, p, span_layer_, span_node_);
  const std::uint64_t trace_id = p.meta.trace_id;
  context_.process->execute(cost, [this, span, trace_id] {
    tcpip::UdpSocket* socket = context_.stack->udpSocket(port_);
    if (!socket) {
      spanDrop(context_, span, "socket_gone");
      VINI_OBS_ROOT_DROP(trace_id, "socket_gone");
      return;
    }
    auto p = socket->readPacket();
    if (!p) {
      spanDrop(context_, span, "socket_gone");
      VINI_OBS_ROOT_DROP(trace_id, "socket_gone");
      return;
    }
    ++received_;
    VINI_OBS_INC(m_rx_packets_);
    if (!p->inner) {
      ++non_tunnel_drops_;
      spanDrop(context_, span, "non_tunnel");
      VINI_OBS_ROOT_DROP(trace_id, "non_tunnel");
      return;
    }
    // Inner packets are shared and immutable: the graph gets its own copy.
    output(0, packet::Packet(*p->inner));
    spanClose(context_, span);
  });
}

std::uint64_t FromSocket::socketDrops() const {
  tcpip::UdpSocket* socket = context_.stack->udpSocket(port_);
  return socket ? socket->bufferDrops() : 0;
}

// ---------------------------------------------------------------------------
// ToSocket

ToSocket::ToSocket(ClickContext& context, std::uint16_t local_port)
    : context_(context), local_port_(local_port) {
  if (!context_.stack->udpSocket(local_port_)) {
    context_.stack->openUdp(local_port_);
  }
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    const std::string& node = context_.stack->node().name();
    m_tx_packets_ = &ctx->metrics.counter("click.ToSocket", node, "tx_packets");
    m_unroutable_ = &ctx->metrics.counter("click.ToSocket", node, "unroutable");
  }
}

void ToSocket::push(int, packet::Packet&& p) {
  if (p.meta.encap_dst.isZero()) {
    ++unroutable_;
    VINI_OBS_INC(m_unroutable_);
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "unroutable");
    return;
  }
  tcpip::UdpSocket* socket = context_.stack->udpSocket(local_port_);
  if (!socket) {
    ++unroutable_;
    VINI_OBS_INC(m_unroutable_);
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "unroutable");
    return;
  }
  ++sent_;
  VINI_OBS_INC(m_tx_packets_);
  const auto dst = p.meta.encap_dst;
  const std::uint16_t dport = p.meta.encap_port != 0 ? p.meta.encap_port : local_port_;
  p.meta.slice_id = context_.slice_id;  // VNET attribution of tunnel traffic
  socket->sendEncapsulatedTo(dst, dport,
                             std::make_shared<const packet::Packet>(std::move(p)));
}

// ---------------------------------------------------------------------------
// TapIn / TapOut

TapIn::TapIn(ClickContext& context, const std::string& device_name)
    : context_(context) {
  tcpip::TunDevice* dev = requireTun(context_, device_name);
  dev->setReader([this](packet::Packet p) {
    // The kernel handed us a packet via /dev/net/tun; reading it is a
    // syscall round like any other forwarding operation.
    inbox_.submit(context_, std::move(p), [this](packet::Packet&& q) {
      ++received_;
      output(0, std::move(q));
    });
  });
}

TapOut::TapOut(ClickContext& context, const std::string& device_name)
    : context_(context), device_name_(device_name) {
  requireTun(context_, device_name);  // fail fast on bad config
}

void TapOut::push(int, packet::Packet&& p) {
  auto* dev = dynamic_cast<tcpip::TunDevice*>(
      context_.stack->deviceByName(device_name_));
  if (!dev) return;
  ++delivered_;
  dev->inject(std::move(p));
}

// ---------------------------------------------------------------------------
// UmlSwitch

UmlSwitch::UmlSwitch(ClickContext& context) : context_(context) {}

void UmlSwitch::push(int, packet::Packet&& p) {
  ++to_uml_;
  if (upcall_) upcall_(std::move(p));
}

void UmlSwitch::injectFromUml(packet::Packet p) {
  inbox_.submit(context_, std::move(p), [this](packet::Packet&& q) {
    ++from_uml_;
    output(0, std::move(q));
  });
}

// ---------------------------------------------------------------------------
// LocalDemux

void LocalDemux::push(int, packet::Packet&& p) {
  const bool local = isLocal(p.ip.dst);
  // Control-plane traffic: OSPF (protocol 89) and RIP (UDP port 520)
  // addressed to this virtual node go up to the routing daemon.
  const auto* udp = p.udpHeader();
  const bool control = p.ip.proto == packet::IpProto::kOspf ||
                       (udp && udp->dst_port == 520);
  if (local && control) {
    output(0, std::move(p));
  } else if (local) {
    output(1, std::move(p));
  } else {
    output(2, std::move(p));
  }
}

// ---------------------------------------------------------------------------
// DecIpTtl

void DecIpTtl::push(int, packet::Packet&& p) {
  if (p.ip.ttl <= 1) {
    ++expired_;
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "ttl_expired");
    // Packet::icmpError starts the Time Exceeded error on an untraced
    // journey of its own; the expired packet's trace ends at this drop.
    if (outputCount() > 1) output(1, std::move(p));
    return;
  }
  p.ip.ttl -= 1;
  output(0, std::move(p));
}

// ---------------------------------------------------------------------------
// LookupIPRoute

LookupIPRoute::LookupIPRoute(const std::vector<std::string>& route_args) {
  for (const auto& arg : route_args) {
    const auto words = splitWords(arg);
    if (words.size() != 3) {
      throw std::runtime_error("LookupIPRoute: want 'prefix gw port', got: " + arg);
    }
    FibEntry entry;
    entry.prefix = packet::Prefix::mustParse(words[0]);
    entry.next_hop = packet::IpAddress::mustParse(words[1]);
    entry.port = std::stoi(words[2]);
    fib_.addRoute(entry);
  }
}

const FibEntry* LookupIPRoute::route(packet::IpAddress dst) {
  // Fibonacci hashing: the top bits of dst * 2^32/phi pick the slot,
  // so destinations differing only in low bits spread across slots.
  CacheSlot& slot = cache_[(dst.value() * 0x9E3779B9u) >> (32 - kCacheBits)];
  if (slot.generation != fib_.generation() || slot.dst != dst.value()) {
    slot = CacheSlot{dst.value(), fib_.generation(), fib_.lookup(dst)};
  }
  return slot.entry;
}

void LookupIPRoute::push(int, packet::Packet&& p) {
  const FibEntry* entry = route(p.ip.dst);
  if (!entry) {
    ++misses_;
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "fib_miss");
    return;
  }
  p.meta.next_hop = entry->next_hop.isZero() ? p.ip.dst : entry->next_hop;
  output(entry->port, std::move(p));
}

// ---------------------------------------------------------------------------
// EncapTable

void EncapTable::addMapping(packet::IpAddress next_hop, packet::IpAddress node_addr,
                            std::uint16_t port) {
  table_[next_hop] = Endpoint{node_addr, port};
}

bool EncapTable::removeMapping(packet::IpAddress next_hop) {
  return table_.erase(next_hop) != 0;
}

void EncapTable::push(int, packet::Packet&& p) {
  auto it = table_.find(p.meta.next_hop);
  if (it == table_.end()) {
    ++misses_;
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "encap_miss");
    return;
  }
  p.meta.encap_dst = it->second.node;
  p.meta.encap_port = it->second.port;
  output(0, std::move(p));
}

// ---------------------------------------------------------------------------
// Napt

Napt::Napt(ClickContext& context, packet::IpAddress public_addr)
    : context_(context), public_addr_(public_addr) {
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    span_layer_ = ctx->spans.intern("click.napt");
    span_node_ = ctx->spans.intern(context_.stack->node().name());
  }
}

Napt::~Napt() {
  for (const auto& [proto, port] : captures_) {
    context_.stack->clearPortCapture(proto, port);
  }
}

std::uint16_t Napt::mapFlow(const FlowKey& key, packet::IpProto proto) {
  auto it = forward_.find(key);
  if (it != forward_.end()) return it->second;
  const std::uint16_t nat_port = context_.stack->allocateEphemeralPort();
  forward_[key] = nat_port;
  reverse_[nat_port] = Origin{packet::IpAddress(key.src_addr), key.src_port};
  captures_.emplace_back(proto, nat_port);
  context_.stack->setPortCapture(proto, nat_port, [this, nat_port](packet::Packet p) {
    onReturnPacket(std::move(p), nat_port);
  });
  return nat_port;
}

void Napt::push(int, packet::Packet&& p) {
  // Egress marker in the hop decomposition: translation is synchronous,
  // so the span is zero-width, but it records where the packet left the
  // overlay.
  const std::uint32_t span = spanOpen(context_, p, span_layer_, span_node_);
  FlowKey key;
  key.proto = static_cast<std::uint8_t>(p.ip.proto);
  key.src_addr = p.ip.src.value();
  key.dst_addr = p.ip.dst.value();

  if (auto* udp = p.udpHeader()) {
    key.src_port = udp->src_port;
    key.dst_port = udp->dst_port;
    udp->src_port = mapFlow(key, packet::IpProto::kUdp);
  } else if (auto* tcp = p.tcpHeader()) {
    key.src_port = tcp->src_port;
    key.dst_port = tcp->dst_port;
    tcp->src_port = mapFlow(key, packet::IpProto::kTcp);
  } else if (auto* icmp = p.icmpHeader()) {
    key.src_port = icmp->ident;
    icmp->ident = mapFlow(key, packet::IpProto::kIcmp);
  } else {
    ++untranslatable_;
    spanDrop(context_, span, "napt_untranslatable");
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "napt_untranslatable");
    return;
  }
  p.ip.src = public_addr_;
  ++translated_out_;
  spanClose(context_, span);
  // Out through the kernel to the "real" Internet.
  context_.stack->sendPacket(std::move(p));
}

void Napt::onReturnPacket(packet::Packet p, std::uint16_t nat_port) {
  auto it = reverse_.find(nat_port);
  if (it == reverse_.end()) {
    ++untranslatable_;
    return;
  }
  const Origin origin = it->second;
  p.ip.dst = origin.addr;
  if (auto* udp = p.udpHeader()) {
    udp->dst_port = origin.port;
  } else if (auto* tcp = p.tcpHeader()) {
    tcp->dst_port = origin.port;
  } else if (auto* icmp = p.icmpHeader()) {
    icmp->ident = origin.port;
  }
  ++translated_back_;
  // Return traffic re-enters the overlay through the Click process.
  inbox_.submit(context_, std::move(p),
                [this](packet::Packet&& q) { output(0, std::move(q)); });
}

// ---------------------------------------------------------------------------
// Shaper

Shaper::Shaper(ClickContext& context, double rate_bps, std::size_t bucket_bytes,
               std::size_t queue_bytes)
    : context_(context),
      rate_bps_(rate_bps),
      bucket_bytes_(static_cast<double>(bucket_bytes)),
      tokens_(static_cast<double>(bucket_bytes)),
      queue_capacity_(queue_bytes) {
  last_refill_ = context_.queue->now();
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    m_drops_ = &ctx->metrics.counter("click.Shaper",
                                     context_.stack->node().name(), "drops");
    span_layer_ = ctx->spans.intern("click.shaper");
    span_node_ = ctx->spans.intern(context_.stack->node().name());
  }
}

void Shaper::refill() {
  const sim::Time now = context_.queue->now();
  tokens_ = std::min(bucket_bytes_,
                     tokens_ + rate_bps_ / 8.0 * sim::toSeconds(now - last_refill_));
  last_refill_ = now;
}

void Shaper::push(int, packet::Packet&& p) {
  const std::size_t size = p.wireBytes();
  if (queued_bytes_ + size > queue_capacity_) {
    ++drops_;
    VINI_OBS_INC(m_drops_);
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "shaper_overflow");
    return;
  }
  queued_bytes_ += size;
  queue_spans_.push_back(spanOpen(context_, p, span_layer_, span_node_));
  queue_.push_back(std::move(p));
  drain();
}

void Shaper::drain() {
  refill();
  while (!queue_.empty()) {
    const std::size_t size = queue_.front().wireBytes();
    if (tokens_ < static_cast<double>(size)) break;
    tokens_ -= static_cast<double>(size);
    packet::Packet p = std::move(queue_.front());
    queue_.pop_front();
    spanClose(context_, queue_spans_.front());
    queue_spans_.pop_front();
    queued_bytes_ -= size;
    output(0, std::move(p));
  }
  if (!queue_.empty() && !drain_scheduled_) {
    const double deficit = static_cast<double>(queue_.front().wireBytes()) - tokens_;
    const auto wait = static_cast<sim::Duration>(deficit * 8.0 / rate_bps_ *
                                                 static_cast<double>(sim::kSecond));
    drain_scheduled_ = true;
    context_.queue->scheduleAfter(std::max<sim::Duration>(wait, sim::kMicrosecond),
                                  "click.shaper", [this] {
                                    drain_scheduled_ = false;
                                    drain();
                                  });
  }
}

// ---------------------------------------------------------------------------
// DropFilter

void DropFilter::push(int, packet::Packet&& p) {
  const packet::IpAddress key =
      p.meta.encap_dst.isZero() ? p.ip.dst : p.meta.encap_dst;
  if (isBlocked(key)) {
    ++dropped_;
    // The Section 5.2 link-failure mechanism: this is where fig8's
    // in-flight probes die while OSPF reconverges.
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "click_drop_filter");
    return;
  }
  output(0, std::move(p));
}

// ---------------------------------------------------------------------------
// IcmpTimeExceeded

void IcmpTimeExceeded::push(int, packet::Packet&& p) {
  if (p.isIcmp()) return;  // never ICMP about ICMP
  ++generated_;
  output(0, packet::Packet::icmpError(reporter_,
                                      packet::IcmpHeader::kTimeExceeded,
                                      packet::IcmpHeader::kCodeTtlExpired, p));
}

// ---------------------------------------------------------------------------
// Counter / Classifier

void Counter::push(int, packet::Packet&& p) {
  ++packets_;
  bytes_ += p.ipPacketBytes();
  output(0, std::move(p));
}

Classifier::Classifier(std::vector<std::string> patterns)
    : patterns_(std::move(patterns)) {}

void Classifier::push(int, packet::Packet&& p) {
  for (std::size_t i = 0; i < patterns_.size(); ++i) {
    const std::string& pat = patterns_[i];
    const bool match =
        (pat == "-") || (pat == "udp" && p.isUdp()) || (pat == "tcp" && p.isTcp()) ||
        (pat == "icmp" && p.isIcmp()) ||
        (pat == "ospf" && p.ip.proto == packet::IpProto::kOspf);
    if (match) {
      output(static_cast<int>(i), std::move(p));
      return;
    }
  }
  ++unmatched_;
  VINI_OBS_ROOT_DROP(p.meta.trace_id, "classifier_unmatched");
}

// ---------------------------------------------------------------------------
// Registry

namespace {

void doRegisterStandardElements() {
  auto& reg = ElementRegistry::instance();

  reg.registerClass("FromSocket", [](const auto& args, ClickContext& ctx) {
    if (args.size() != 1) throw std::runtime_error("FromSocket(port)");
    return std::make_unique<FromSocket>(ctx, static_cast<std::uint16_t>(std::stoi(args[0])));
  });
  reg.registerClass("ToSocket", [](const auto& args, ClickContext& ctx) {
    if (args.size() != 1) throw std::runtime_error("ToSocket(port)");
    return std::make_unique<ToSocket>(ctx, static_cast<std::uint16_t>(std::stoi(args[0])));
  });
  reg.registerClass("TapIn", [](const auto& args, ClickContext& ctx) {
    if (args.size() != 1) throw std::runtime_error("TapIn(device)");
    return std::make_unique<TapIn>(ctx, args[0]);
  });
  reg.registerClass("TapOut", [](const auto& args, ClickContext& ctx) {
    if (args.size() != 1) throw std::runtime_error("TapOut(device)");
    return std::make_unique<TapOut>(ctx, args[0]);
  });
  reg.registerClass("UmlSwitch", [](const auto& args, ClickContext& ctx) {
    if (!args.empty()) throw std::runtime_error("UmlSwitch()");
    return std::make_unique<UmlSwitch>(ctx);
  });
  reg.registerClass("LocalDemux", [](const auto& args, ClickContext&) {
    auto demux = std::make_unique<LocalDemux>();
    for (const auto& a : args) demux->addLocalAddress(packet::IpAddress::mustParse(a));
    return demux;
  });
  reg.registerClass("DecIpTtl", [](const auto&, ClickContext&) {
    return std::make_unique<DecIpTtl>();
  });
  reg.registerClass("LookupIPRoute", [](const auto& args, ClickContext&) {
    return std::make_unique<LookupIPRoute>(args);
  });
  reg.registerClass("EncapTable", [](const auto& args, ClickContext&) {
    auto table = std::make_unique<EncapTable>();
    for (const auto& arg : args) {
      const auto words = splitWords(arg);
      if (words.size() != 3) throw std::runtime_error("EncapTable: 'vif node port'");
      table->addMapping(packet::IpAddress::mustParse(words[0]),
                        packet::IpAddress::mustParse(words[1]),
                        static_cast<std::uint16_t>(std::stoi(words[2])));
    }
    return table;
  });
  reg.registerClass("Napt", [](const auto& args, ClickContext& ctx) {
    if (args.size() != 1) throw std::runtime_error("Napt(public_addr)");
    return std::make_unique<Napt>(ctx, packet::IpAddress::mustParse(args[0]));
  });
  reg.registerClass("Shaper", [](const auto& args, ClickContext& ctx) {
    if (args.size() < 2 || args.size() > 3) {
      throw std::runtime_error("Shaper(rate_bps, bucket_bytes[, queue_bytes])");
    }
    const std::size_t queue_bytes =
        args.size() == 3 ? std::stoul(args[2]) : Shaper::kDefaultQueueBytes;
    return std::make_unique<Shaper>(ctx, std::stod(args[0]), std::stoul(args[1]),
                                    queue_bytes);
  });
  reg.registerClass("DropFilter", [](const auto& args, ClickContext&) {
    auto filter = std::make_unique<DropFilter>();
    for (const auto& a : args) filter->block(packet::IpAddress::mustParse(a));
    return filter;
  });
  reg.registerClass("IcmpTimeExceeded", [](const auto& args, ClickContext&) {
    if (args.size() != 1) throw std::runtime_error("IcmpTimeExceeded(reporter)");
    return std::make_unique<IcmpTimeExceeded>(packet::IpAddress::mustParse(args[0]));
  });
  reg.registerClass("Counter", [](const auto&, ClickContext&) {
    return std::make_unique<Counter>();
  });
  reg.registerClass("Discard", [](const auto&, ClickContext&) {
    return std::make_unique<Discard>();
  });
  reg.registerClass("Classifier", [](const auto& args, ClickContext&) {
    return std::make_unique<Classifier>(args);
  });
}

}  // namespace

void registerStandardElements() {
  // Idempotent and thread-safe: the const magic static runs registration
  // exactly once and is immutable afterwards.
  static const bool registered = [] {
    doRegisterStandardElements();
    return true;
  }();
  (void)registered;
}

}  // namespace vini::click
