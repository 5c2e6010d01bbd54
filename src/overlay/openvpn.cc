#include "overlay/openvpn.h"

#include <algorithm>

#include "obs/obs.h"

namespace vini::overlay {

// ---------------------------------------------------------------------------
// OpenVpnServer

OpenVpnServer::OpenVpnServer(IiasRouter& router, packet::Prefix client_pool)
    : router_(&router), pool_(client_pool) {
  egress_element_ = std::make_unique<EgressElement>(*this);
  router_->attachStubPrefix(pool_, *egress_element_);
  tcpip::UdpSocket& socket = router_->stack().openUdp(kOpenVpnPort);
  socket.setReceiveHandler([this](packet::Packet p) { onDatagram(std::move(p)); });
}

OpenVpnServer::~OpenVpnServer() { router_->stack().closeUdp(kOpenVpnPort); }

std::vector<OpenVpnLease> OpenVpnServer::exportLeases() const {
  std::vector<OpenVpnLease> leases;
  leases.reserve(by_source_.size());
  for (const auto& [addr, session] : by_source_) {
    leases.push_back(OpenVpnLease{session.real_addr, session.real_port,
                                  session.overlay_addr, session.session_id});
  }
  return leases;  // by_source_ is a std::map: already sorted by real addr
}

void OpenVpnServer::restoreLeases(const std::vector<OpenVpnLease>& leases,
                                  std::uint32_t next_host) {
  by_source_.clear();
  by_overlay_.clear();
  for (const auto& lease : leases) {
    Session session{lease.real_addr, lease.real_port, lease.overlay_addr,
                    lease.session_id};
    by_source_[lease.real_addr] = session;
    by_overlay_[lease.overlay_addr] = session;
  }
  next_host_ = next_host;
}

void OpenVpnServer::attachTo(IiasRouter& router) {
  if (&router == router_) return;
  // The retired ingress stops answering; if both routers share a stack
  // (rollback) the port was already closed by the retired router's
  // detach, and this close is a no-op.
  router_->stack().closeUdp(kOpenVpnPort);
  router_ = &router;
  router_->attachStubPrefix(pool_, *egress_element_);
  tcpip::UdpSocket& socket = router_->stack().openUdp(kOpenVpnPort);
  socket.setReceiveHandler([this](packet::Packet p) { onDatagram(std::move(p)); });
}

packet::IpAddress OpenVpnServer::openSession(packet::IpAddress real_addr,
                                             std::uint16_t real_port,
                                             std::uint32_t session_id) {
  if (auto it = by_source_.find(real_addr); it != by_source_.end()) {
    return it->second.overlay_addr;  // reconnect: keep the lease
  }
  const packet::IpAddress overlay = pool_.hostAt(next_host_);
  if (!pool_.contains(overlay) || next_host_ >= (1u << (32 - pool_.length())) - 1) {
    return packet::IpAddress{};  // pool exhausted
  }
  ++next_host_;
  Session session{real_addr, real_port, overlay, session_id};
  by_source_[real_addr] = session;
  by_overlay_[overlay] = session;
  return overlay;
}

void OpenVpnServer::handleControl(const packet::Packet& p,
                                  const OpenVpnControl& msg) {
  tcpip::UdpSocket* socket = router_->stack().udpSocket(kOpenVpnPort);
  if (!socket) return;
  const auto* udp = p.udpHeader();
  if (!udp) return;
  auto reply = std::make_shared<OpenVpnControl>();
  reply->session_id = msg.session_id;
  if (msg.kind == OpenVpnControl::kSessionRequest) {
    reply->kind = OpenVpnControl::kSessionGrant;
    reply->overlay_addr = openSession(p.ip.src, udp->src_port, msg.session_id);
  } else if (msg.kind == OpenVpnControl::kKeepalive) {
    // Only answer for a live session: a server that lost the session
    // (or never had it) stays silent and the client reconnects.
    if (by_source_.find(p.ip.src) == by_source_.end()) return;
    reply->kind = OpenVpnControl::kKeepaliveAck;
  } else {
    return;
  }
  socket->sendAppTo(p.ip.src, udp->src_port, std::move(reply));
}

void OpenVpnServer::onDatagram(packet::Packet p) {
  // Control channel: handshake and keepalives.
  if (p.app) {
    if (auto msg = std::dynamic_pointer_cast<const OpenVpnControl>(p.app)) {
      handleControl(p, *msg);
    }
    return;
  }
  // Data channel: an encapsulated IP packet from an opted-in client.
  if (!p.inner) {
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "non_tunnel");
    return;
  }
  auto it = by_source_.find(p.ip.src);
  if (it == by_source_.end()) {  // no session: drop
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "no_vpn_session");
    return;
  }
  ++ingress_packets_;
  // "The OpenVPN server removes the headers and forwards the original
  // packet to Click over a local Unix domain socket."  (Figure 2, step 2)
  router_->injectIntoDataPlane(*p.inner);
}

void OpenVpnServer::EgressElement::push(int, packet::Packet&& p) {
  auto it = server_.by_overlay_.find(p.ip.dst);
  if (it == server_.by_overlay_.end()) {
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "no_vpn_session");
    return;
  }
  ++count_;
  server_.sendToClient(it->second, std::move(p));
}

void OpenVpnServer::sendToClient(const Session& session, packet::Packet p) {
  tcpip::UdpSocket* socket = router_->stack().udpSocket(kOpenVpnPort);
  if (!socket) {
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "socket_gone");
    return;
  }
  socket->sendEncapsulatedTo(session.real_addr, session.real_port,
                             std::make_shared<const packet::Packet>(std::move(p)),
                             packet::OpenVpnHeader::kWireBytes);
}

// ---------------------------------------------------------------------------
// OpenVpnClient

namespace {

/// FNV-1a, for folding a client's name into its jitter seed.
std::uint64_t hashName(const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

OpenVpnClient::OpenVpnClient(tcpip::HostStack& stack, std::string name)
    : stack_(stack), name_(std::move(name)) {
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    span_layer_ = ctx->spans.intern("overlay.openvpn");
    span_node_ = ctx->spans.intern(stack_.node().name());
  }
}

OpenVpnClient::~OpenVpnClient() = default;

void OpenVpnClient::ensureSocket() {
  if (socket_) return;
  socket_ = &stack_.openUdp(0);
  session_id_ = socket_->port();  // cheap unique id
  socket_->setReceiveHandler([this](packet::Packet p) { onDatagram(std::move(p)); });
}

void OpenVpnClient::plumbTunnel() {
  if (tun_) return;
  // "OpenVPN creates a TUN/TAP device on the client to intercept
  // outgoing packets from the operating system."
  tun_ = &stack_.createTunDevice("tun-" + name_, overlay_addr_);
  tun_->setReader([this](packet::Packet p) { onTunPacket(std::move(p)); });

  // Routing: everything into the tunnel, except the server itself.
  tcpip::Route all;
  all.prefix = packet::Prefix::defaultRoute();
  all.device = tun_;
  all.metric = 5;  // beats the underlay default route (metric 100)
  all.proto = "openvpn";
  stack_.routingTable().addRoute(all);
  tcpip::Route server_host;
  server_host.prefix = packet::Prefix(server_addr_, 32);
  server_host.device = &stack_.underlayDevice();
  server_host.metric = 1;
  server_host.proto = "openvpn";
  stack_.routingTable().addRoute(server_host);
}

void OpenVpnClient::rehome(OpenVpnServer& server) {
  const packet::IpAddress old_addr = server_addr_;
  server_addr_ = server.serverAddress();
  if (server_addr_ == old_addr) return;
  if (!old_addr.isZero()) {
    stack_.routingTable().removeRoute(packet::Prefix(old_addr, 32));
  }
  if (tun_) {
    // Re-pin the (new) server address to the underlay so tunnel frames
    // don't chase the default route into the tun device.
    tcpip::Route server_host;
    server_host.prefix = packet::Prefix(server_addr_, 32);
    server_host.device = &stack_.underlayDevice();
    server_host.metric = 1;
    server_host.proto = "openvpn";
    stack_.routingTable().addRoute(server_host);
  }
}

bool OpenVpnClient::connect(OpenVpnServer& server) {
  server_addr_ = server.serverAddress();
  ensureSocket();
  overlay_addr_ =
      server.openSession(stack_.address(), socket_->port(), session_id_);
  if (overlay_addr_.isZero()) return false;
  plumbTunnel();
  connected_ = true;
  ever_connected_ = true;
  return true;
}

void OpenVpnClient::connectAsync(OpenVpnServer& server,
                                 OpenVpnReconnectConfig config) {
  server_addr_ = server.serverAddress();
  config_ = config;
  // Per-client jitter stream: two clients sharing a config (the common
  // case — callers rarely thread distinct seeds through) must not
  // retry in lockstep, so fold the substrate seed and the client's own
  // name into the stream seed.  Deterministic across same-seed runs.
  const std::uint64_t seed = config.seed ^
                             stack_.network().config().seed *
                                 0x9e3779b97f4a7c15ull ^
                             hashName(name_);
  random_ = std::make_unique<sim::Random>(seed);
  supervised_ = true;
  ensureSocket();
  sim::EventQueue& queue = stack_.queue();
  handshake_timer_ = std::make_unique<sim::OneShotTimer>(queue, [this] {
    // No grant in time: the request or the reply died on the way.
    scheduleRetry();
  });
  retry_timer_ =
      std::make_unique<sim::OneShotTimer>(queue, [this] { attemptHandshake(); });
  dead_timer_ =
      std::make_unique<sim::OneShotTimer>(queue, [this] { onPeerDead(); });
  keepalive_timer_ = std::make_unique<sim::PeriodicTimer>(
      queue, config_.keepalive_interval, [this] {
        if (!socket_ || !connected_) return;
        auto probe = std::make_shared<OpenVpnControl>();
        probe->kind = OpenVpnControl::kKeepalive;
        probe->session_id = session_id_;
        socket_->sendAppTo(server_addr_, kOpenVpnPort, std::move(probe));
      });
  attemptHandshake();
}

void OpenVpnClient::attemptHandshake() {
  if (!socket_ || connected_) return;
  ++handshake_attempts_;
  auto request = std::make_shared<OpenVpnControl>();
  request->kind = OpenVpnControl::kSessionRequest;
  request->session_id = session_id_;
  socket_->sendAppTo(server_addr_, kOpenVpnPort, std::move(request));
  handshake_timer_->armAfter(config_.handshake_timeout);
}

void OpenVpnClient::scheduleRetry() {
  ++consecutive_failures_;
  double delay = static_cast<double>(config_.initial_backoff);
  for (int i = 1; i < consecutive_failures_; ++i) delay *= config_.multiplier;
  delay = std::min(delay, static_cast<double>(config_.max_backoff));
  if (config_.jitter > 0 && random_) {
    delay *= 1.0 + config_.jitter * (2.0 * random_->uniform01() - 1.0);
  }
  retry_timer_->armAfter(static_cast<sim::Duration>(std::max(delay, 0.0)));
}

void OpenVpnClient::onSessionGrant(const OpenVpnControl& msg) {
  handshake_timer_->cancel();
  if (msg.overlay_addr.isZero()) {
    // Refused (pool exhausted): keep retrying with backoff.
    scheduleRetry();
    return;
  }
  overlay_addr_ = msg.overlay_addr;
  plumbTunnel();
  connected_ = true;
  consecutive_failures_ = 0;
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;
  keepalive_timer_->start();
  dead_timer_->armAfter(config_.peer_timeout);
}

void OpenVpnClient::onPeerDead() {
  // The server went quiet: tear the session state down (routes stay —
  // traffic blackholes into the tun until we re-attach, exactly like a
  // real stranded VPN) and start the backoff'd reconnect loop.
  connected_ = false;
  keepalive_timer_->stop();
  consecutive_failures_ = 0;
  attemptHandshake();
}

void OpenVpnClient::onTunPacket(packet::Packet p) {
  if (!socket_) {
    VINI_OBS_ROOT_DROP(p.meta.trace_id, "socket_gone");
    return;
  }
  ++sent_;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    // Opted-in host traffic enters the overlay here.  Packets not
    // already in a trace (the app ingress points assign ids first) get
    // one now so their hop decomposition starts at the VPN; a zero-width
    // span marks the encapsulation itself.
    if (p.meta.trace_id == 0) p.meta.trace_id = ctx->spans.newTraceId();
    const std::uint32_t span =
        ctx->spans.open(p.meta.trace_id, span_layer_, stack_.queue().now(),
                        span_node_, -1,
                        static_cast<std::uint32_t>(p.ipPacketBytes()));
    ctx->spans.close(span, stack_.queue().now());
  }
  // Rewrite nothing: the client sources traffic from its overlay address
  // (applications bind to it).  Encapsulate with OpenVPN framing.
  socket_->sendEncapsulatedTo(server_addr_, kOpenVpnPort,
                              std::make_shared<const packet::Packet>(std::move(p)),
                              packet::OpenVpnHeader::kWireBytes);
}

void OpenVpnClient::onDatagram(packet::Packet p) {
  if (p.app) {
    if (auto msg = std::dynamic_pointer_cast<const OpenVpnControl>(p.app)) {
      if (msg->kind == OpenVpnControl::kSessionGrant) {
        if (!connected_) onSessionGrant(*msg);
      } else if (msg->kind == OpenVpnControl::kKeepaliveAck) {
        if (supervised_ && connected_) dead_timer_->armAfter(config_.peer_timeout);
      }
    }
    return;
  }
  if (!p.inner || !tun_) return;
  ++received_;
  tun_->inject(*p.inner);
}

}  // namespace vini::overlay
