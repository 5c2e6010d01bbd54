#include "overlay/iias_router.h"

#include <sstream>
#include <stdexcept>

namespace vini::overlay {

IiasRouter::IiasRouter(core::VirtualNode& vnode, tcpip::HostStack& stack,
                       IiasConfig config)
    : vnode_(vnode), stack_(stack), config_(config) {
  core::Slice& slice = vnode_.slice();
  const core::ResourceSpec& res = slice.resources();

  // The slice's two user-space daemons, contending for this node's CPU.
  cpu::Scheduler& sched = vnode_.physNode().scheduler();
  cpu::ProcessConfig click_cfg;
  click_cfg.name = "click-" + slice.name();
  click_cfg.cpu_reservation = res.cpu_reservation;
  click_cfg.realtime = res.realtime;
  click_process_ = &sched.createProcess(click_cfg);
  cpu::ProcessConfig xorp_cfg;
  xorp_cfg.name = "xorp-" + slice.name();
  xorp_cfg.cpu_reservation = res.cpu_reservation;
  xorp_cfg.realtime = false;  // the paper boosts the Click process
  xorp_process_ = &sched.createProcess(xorp_cfg);

  // tap0: the slice's door between local applications and the overlay.
  tap_ = &stack_.createTunDevice(tapName(), vnode_.tapAddress());
  tcpip::Route tap_route;
  tap_route.prefix = slice.overlayPrefix();
  tap_route.device = tap_;
  tap_route.metric = 10;
  tap_route.proto = "connected";
  stack_.routingTable().addRoute(tap_route);

  buildGraph();

  // XORP, with the tap address doubling as the router id.
  xorp_ = std::make_unique<xorp::XorpInstance>(
      stack_.queue(), vnode_.tapAddress().value(), xorp_process_);
  if (config_.enable_ospf) {
    auto& ospf = xorp_->enableOspf(config_.ospf);
    ospf.addStubPrefix(packet::Prefix(vnode_.tapAddress(), 32), 0);
  }
  if (config_.enable_rip) {
    auto& rip = xorp_->enableRip(config_.rip);
    rip.addLocalPrefix(packet::Prefix(vnode_.tapAddress(), 32));
  }

  wireControlPlane();

  // Register the interfaces that already exist on the virtual node.
  // (IiasNetwork builds routers after the topology is embedded.)
  demux_->addLocalAddress(vnode_.tapAddress());
  for (const auto& iface : vnode_.interfaces()) {
    demux_->addLocalAddress(iface->address());
    stack_.addLocalAddress(iface->address());
    encap_->addMapping(iface->peerAddress(),
                       iface->link().peerOf(vnode_).physNode().address(),
                       slice.tunnelPort());
  }

  // FEA: RIB winners program the Click FIB (replays existing routes).
  xorp_->rib().setFea(this);
}

IiasRouter::~IiasRouter() {
  if (xorp_) xorp_->rib().setFea(nullptr);
}

std::string IiasRouter::tapName() const {
  return "tap-" + vnode_.slice().name();
}

void IiasRouter::buildGraph() {
  click::ClickContext context;
  context.stack = &stack_;
  context.process = click_process_;
  context.queue = &stack_.queue();
  context.costs = config_.costs;
  context.slice_id = vnode_.slice().id();
  graph_ = std::make_unique<click::RouterGraph>(context);

  const core::Slice& slice = vnode_.slice();
  std::ostringstream cfg;
  cfg << "// IIAS router for " << vnode_.name() << " (slice " << slice.name()
      << ")\n"
      << "from :: FromSocket(" << slice.tunnelPort() << ");\n"
      << "tosock :: ToSocket(" << slice.tunnelPort() << ");\n"
      << "tapin :: TapIn(" << tapName() << ");\n"
      << "tapout :: TapOut(" << tapName() << ");\n"
      << "uml :: UmlSwitch();\n"
      << "demux :: LocalDemux();\n"
      << "ttl :: DecIpTtl();\n"
      << "rt :: LookupIPRoute();\n"
      << "encap :: EncapTable();\n"
      << "fail :: DropFilter();\n"
      << "napt :: Napt(" << stack_.address().str() << ");\n"
      << "icmperr :: IcmpTimeExceeded(" << vnode_.tapAddress().str() << ");\n"
      << "from -> demux;\n"
      << "demux [0] -> uml;\n"
      << "demux [1] -> tapout;\n"
      << "demux [2] -> ttl -> rt;\n"
      << "ttl [1] -> icmperr -> rt;\n"
      << "uml -> rt;\n"
      << "tapin -> rt;\n"
      << "rt [0] -> encap -> fail;\n"
      << "rt [1] -> tapout;\n"
      << "rt [2] -> napt -> rt;\n";
  const double shape_bps = slice.resources().link_bandwidth_bps;
  if (shape_bps > 0) {
    cfg << "shaper :: Shaper(" << shape_bps << ", "
        << static_cast<std::size_t>(shape_bps / 8 / 20) << ");\n"
        << "fail -> shaper -> tosock;\n";
  } else {
    cfg << "fail -> tosock;\n";
  }
  graph_->parseConfig(cfg.str());

  from_ = graph_->get<click::FromSocket>("from");
  demux_ = graph_->get<click::LocalDemux>("demux");
  uml_ = graph_->get<click::UmlSwitch>("uml");
  rt_ = graph_->get<click::LookupIPRoute>("rt");
  encap_ = graph_->get<click::EncapTable>("encap");
  fail_ = graph_->get<click::DropFilter>("fail");
  napt_ = graph_->get<click::Napt>("napt");

  if (config_.socket_buffer > 0) {
    stack_.udpSocket(slice.tunnelPort())->setBuffered(config_.socket_buffer);
  }
}

void IiasRouter::wireControlPlane() {
  // XORP -> Click: virtual interface transmissions enter the data plane
  // through the uml_switch.
  uml_->setUpcall([this](packet::Packet p) {
    // Click -> XORP: find the interface this control packet addresses.
    core::VirtualInterface* vif = vnode_.interfaceByAddress(p.ip.dst);
    if (!vif) return;
    xorp_->receiveControl(*vif, p);
  });
  vnode_.setControlTx([this](packet::Packet p) { uml_->injectFromUml(std::move(p)); });
}

void IiasRouter::registerVifs(
    const std::map<const core::VirtualLink*, std::uint32_t>& link_costs) {
  for (const auto& iface : vnode_.interfaces()) {
    std::uint32_t cost = 1;
    if (auto it = link_costs.find(&iface->link()); it != link_costs.end()) {
      cost = it->second;
    }
    xorp_->registerVif(*iface, cost, config_.enable_rip);
  }
}

void IiasRouter::start() { xorp_->start(); }

void IiasRouter::stop() { xorp_->stop(); }

void IiasRouter::detachFromStack() {
  if (detached_) return;
  detached_ = true;
  // The FEA first: RIB withdrawals on the dying instance must not touch
  // the (retired) FIB anymore.
  xorp_->rib().setFea(nullptr);
  // Tunnel endpoint: the replacement router owns the slice's tunnel
  // port on *its* stack; this stack stops answering it.
  stack_.closeUdp(vnode_.slice().tunnelPort());
  // tap0 and every route through it (the overlay prefix route among
  // them), plus the interface addresses the stack answered for.
  stack_.removeTunDevice(tapName());
  tap_ = nullptr;
  for (const auto& iface : vnode_.interfaces()) {
    stack_.removeLocalAddress(iface->address());
  }
}

void IiasRouter::routeAdded(const xorp::RibRoute& route) {
  if (locallyAttachedConflict(route.prefix)) return;
  click::FibEntry entry;
  entry.prefix = route.prefix;
  const bool external = route.origin == xorp::RouteOrigin::kEbgp ||
                        route.origin == xorp::RouteOrigin::kIbgp;
  if (external && external_egress_) {
    // A BGP-learned Internet prefix on the egress node: traffic leaves
    // the overlay through the NAPT, not a tunnel (Section 3.3).
    entry.next_hop = {};
    entry.port = 2;
  } else {
    entry.next_hop = route.next_hop;  // zero = use packet destination
    entry.port = 0;                   // IGP-learned: exits via tunnels
  }
  rt_->fib().addRoute(entry);
}

void IiasRouter::routeRemoved(const xorp::RibRoute& route) {
  if (locallyAttachedConflict(route.prefix)) return;
  rt_->fib().removeRoute(route.prefix);
}

void IiasRouter::setExternalEgress() {
  if (external_egress_) return;
  external_egress_ = true;
  click::FibEntry entry;
  entry.prefix = packet::Prefix::defaultRoute();
  entry.port = 2;  // NAPT
  rt_->fib().addRoute(entry);
  locally_attached_.insert(entry.prefix);
  if (xorp_->ospf()) xorp_->ospf()->addStubPrefix(entry.prefix, 0);
  if (xorp_->rip()) xorp_->rip()->addLocalPrefix(entry.prefix);
}

int IiasRouter::attachStubPrefix(const packet::Prefix& prefix,
                                 click::Element& sink) {
  const int port = next_fib_port_++;
  rt_->connectOutput(port, sink, 0);
  click::FibEntry entry;
  entry.prefix = prefix;
  entry.port = port;
  rt_->fib().addRoute(entry);
  locally_attached_.insert(prefix);
  if (xorp_->ospf()) xorp_->ospf()->addStubPrefix(prefix, 0);
  if (xorp_->rip()) xorp_->rip()->addLocalPrefix(prefix);
  return port;
}

void IiasRouter::blockTunnelTo(packet::IpAddress peer_node_addr) {
  fail_->block(peer_node_addr);
}

void IiasRouter::unblockTunnelTo(packet::IpAddress peer_node_addr) {
  fail_->unblock(peer_node_addr);
}

void IiasRouter::remapTunnelPeer(packet::IpAddress vif_addr,
                                 packet::IpAddress node_addr) {
  encap_->addMapping(vif_addr, node_addr, vnode_.slice().tunnelPort());
}

void IiasRouter::injectIntoDataPlane(packet::Packet p) {
  injected_.submit(graph_->context(), std::move(p),
                   [this](packet::Packet&& q) { rt_->push(0, std::move(q)); });
}

bool IiasRouter::locallyAttachedConflict(const packet::Prefix& prefix) const {
  return locally_attached_.count(prefix) != 0;
}

}  // namespace vini::overlay
