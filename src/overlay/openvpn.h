// OpenVPN-style ingress (Section 4.2.3).
//
// End hosts "opt in" to an IIAS instance by connecting an OpenVPN client
// that diverts their traffic to a server running on a designated ingress
// node.  The client creates a TUN device, routes traffic into it, and
// tunnels packets (with OpenVPN framing overhead) over UDP to the
// server; the server decapsulates and hands them to the local Click
// process.  Return traffic toward the client pool is routed across the
// overlay to the ingress node (the server advertises the pool into the
// IGP) and tunneled back down to the right client.
//
// Two connection paths exist.  connect() is the original synchronous
// handshake (fine when the server is known reachable).  connectAsync()
// runs the handshake over the actual network with a timeout, keeps the
// session alive with keepalives, detects a dead server via a peer
// timeout, and reconnects with exponential backoff + jitter — so when
// the ingress node crashes, opted-in hosts degrade gracefully and
// re-attach once it returns instead of silently blackholing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "overlay/iias_router.h"
#include "sim/random.h"
#include "tcpip/host_stack.h"

namespace vini::overlay {

inline constexpr std::uint16_t kOpenVpnPort = 1194;

/// Control-channel message (session handshake and liveness probing).
struct OpenVpnControl final : packet::AppPayload {
  enum Kind { kSessionRequest, kSessionGrant, kKeepalive, kKeepaliveAck };
  Kind kind = kSessionRequest;
  std::uint32_t session_id = 0;
  /// kSessionGrant: the allocated overlay address (zero = refused).
  packet::IpAddress overlay_addr;

  std::size_t sizeBytes() const override { return 16; }
  std::string describe() const override { return "openvpn-control"; }
};

class OpenVpnClient;

/// One client's address lease, in checkpoint-serializable form.
struct OpenVpnLease {
  packet::IpAddress real_addr;
  std::uint16_t real_port = 0;
  packet::IpAddress overlay_addr;
  std::uint32_t session_id = 0;
};

class OpenVpnServer {
 public:
  /// Attach a server to an ingress router.  `client_pool` is the overlay
  /// prefix handed out to clients (advertised into the IGP as a stub).
  OpenVpnServer(IiasRouter& router, packet::Prefix client_pool);
  ~OpenVpnServer();

  OpenVpnServer(const OpenVpnServer&) = delete;
  OpenVpnServer& operator=(const OpenVpnServer&) = delete;

  packet::IpAddress serverAddress() const { return router_->stack().address(); }
  packet::Prefix clientPool() const { return pool_; }
  std::size_t sessionCount() const { return by_source_.size(); }
  std::uint64_t ingressPackets() const { return ingress_packets_; }
  std::uint64_t egressPackets() const { return egress_element_->count(); }

  // -- Live migration ----------------------------------------------------------

  /// Snapshot every lease (sorted by client real address) plus the pool
  /// allocation cursor, for the router checkpoint.
  std::vector<OpenVpnLease> exportLeases() const;
  std::uint32_t nextHost() const { return next_host_; }

  /// Replace the lease table wholesale (checkpoint restore / rollback).
  void restoreLeases(const std::vector<OpenVpnLease>& leases,
                     std::uint32_t next_host);

  /// Move the ingress onto another router (the original migrated): close
  /// the OpenVPN port on the old stack, re-advertise the pool from the
  /// new router, and start answering on its stack.  Leases survive.
  /// Clients must rehome() — the server's public address changed.
  void attachTo(IiasRouter& router);

  /// The router currently hosting this ingress (migration bookkeeping).
  const IiasRouter* attachedRouter() const { return router_; }

 private:
  friend class OpenVpnClient;

  /// The control-channel handshake: allocate an overlay address for a
  /// client at (real_addr, real_port).  Returns zero when the pool is
  /// exhausted.  A returning client keeps its lease.
  packet::IpAddress openSession(packet::IpAddress real_addr,
                                std::uint16_t real_port,
                                std::uint32_t session_id);

  void onDatagram(packet::Packet p);
  void handleControl(const packet::Packet& p, const OpenVpnControl& msg);

  /// Click element that carries overlay packets back down to clients.
  class EgressElement final : public click::Element {
   public:
    explicit EgressElement(OpenVpnServer& server) : server_(server) {}
    std::string className() const override { return "OpenVpnEgress"; }
    void push(int, packet::Packet&& p) override;
    std::uint64_t count() const { return count_; }

   private:
    OpenVpnServer& server_;
    std::uint64_t count_ = 0;
  };

  struct Session {
    packet::IpAddress real_addr;
    std::uint16_t real_port = 0;
    packet::IpAddress overlay_addr;
    std::uint32_t session_id = 0;
  };

  void sendToClient(const Session& session, packet::Packet p);

  IiasRouter* router_;  ///< never null; repointed by attachTo()
  packet::Prefix pool_;
  std::uint32_t next_host_ = 10;
  std::map<packet::IpAddress, Session> by_source_;   ///< by client real addr
  std::map<packet::IpAddress, Session> by_overlay_;  ///< by assigned addr
  std::unique_ptr<EgressElement> egress_element_;
  std::uint64_t ingress_packets_ = 0;
};

/// Retry/timeout/backoff policy for connectAsync().
struct OpenVpnReconnectConfig {
  sim::Duration handshake_timeout = 2 * sim::kSecond;
  sim::Duration keepalive_interval = 5 * sim::kSecond;
  /// No keepalive-ack for this long = the server (or the path) is dead.
  sim::Duration peer_timeout = 15 * sim::kSecond;
  sim::Duration initial_backoff = sim::kSecond;
  double multiplier = 2.0;
  sim::Duration max_backoff = 30 * sim::kSecond;
  /// Relative jitter on each backoff delay, in [1 - jitter, 1 + jitter].
  double jitter = 0.25;
  /// Mixed with the substrate seed and the client's name into the
  /// per-client jitter stream, so co-located clients never share a
  /// backoff schedule yet every same-seed run replays identically.
  std::uint64_t seed = 1;
};

class OpenVpnClient {
 public:
  /// Create a client on an end host's stack, pointed at a server.
  OpenVpnClient(tcpip::HostStack& stack, std::string name);
  ~OpenVpnClient();

  OpenVpnClient(const OpenVpnClient&) = delete;
  OpenVpnClient& operator=(const OpenVpnClient&) = delete;

  /// Perform the handshake with `server` and plumb the TUN device plus
  /// routes: the overlay prefix and the default route are diverted into
  /// the tunnel; a host route pins the server's real address to the
  /// underlay.  Returns false if the server refused (pool exhausted).
  bool connect(OpenVpnServer& server);

  /// Network-driven handshake with supervision: retries with backoff
  /// until the server answers, then keeps the session alive and
  /// reconnects automatically if the server stops answering.
  void connectAsync(OpenVpnServer& server, OpenVpnReconnectConfig config = {});

  /// Follow a migrated server to its new substrate address: repin the
  /// host route and aim handshakes/keepalives at the new home.  The
  /// lease (keyed server-side by this client's real address) survives,
  /// so an established session continues without a new handshake.
  void rehome(OpenVpnServer& server);

  /// The overlay address assigned by the server (zero before connect).
  packet::IpAddress overlayAddress() const { return overlay_addr_; }
  bool connected() const { return connected_; }
  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }
  /// Handshake requests sent (first connect and every retry).
  std::uint64_t handshakeAttempts() const { return handshake_attempts_; }
  /// Sessions re-established after a detected loss.
  std::uint64_t reconnects() const { return reconnects_; }

 private:
  void onTunPacket(packet::Packet p);
  void onDatagram(packet::Packet p);
  void attemptHandshake();
  void onSessionGrant(const OpenVpnControl& msg);
  void onPeerDead();
  void scheduleRetry();
  void plumbTunnel();
  void ensureSocket();

  tcpip::HostStack& stack_;
  std::string name_;
  std::int16_t span_layer_ = -1;
  std::int16_t span_node_ = -1;
  tcpip::TunDevice* tun_ = nullptr;
  tcpip::UdpSocket* socket_ = nullptr;
  packet::IpAddress server_addr_;
  packet::IpAddress overlay_addr_;
  std::uint32_t session_id_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;

  // Supervised-session state (connectAsync).
  OpenVpnReconnectConfig config_;
  std::unique_ptr<sim::Random> random_;
  bool supervised_ = false;
  bool connected_ = false;
  std::uint64_t handshake_attempts_ = 0;
  std::uint64_t reconnects_ = 0;
  bool ever_connected_ = false;
  int consecutive_failures_ = 0;
  std::unique_ptr<sim::OneShotTimer> handshake_timer_;
  std::unique_ptr<sim::OneShotTimer> retry_timer_;
  std::unique_ptr<sim::OneShotTimer> dead_timer_;
  std::unique_ptr<sim::PeriodicTimer> keepalive_timer_;
};

}  // namespace vini::overlay
