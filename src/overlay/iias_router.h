// The IIAS router (Figure 1 of the paper).
//
// One per virtual node: a Click data plane (user-space process subject
// to the slice's CPU resources), a XORP control plane (another process
// in the slice), the uml_switch bridge between them, and the tap0
// device through which local applications enter the overlay.  The
// router implements XORP's FEA: RIB changes program the Click FIB, so
// "data packets forwarded by the overlay do not enter UML" — the
// decoupled control/data planes of Section 4.2.
//
// Click graph (built through the Click-language parser):
//
//   from(tunnels) ──▶ demux ── [0 control] ──▶ uml ──▶ (XORP)
//        tapin ───────▶│  └──── [1 local] ──▶ tapout (kernel)
//   (XORP) ▶ uml [0] ──┤        [2 transit] ─▶ ttl ─▶ rt
//                      ▼
//        rt [0 tunnels] ─▶ encap ─▶ fail ─▶ [shaper] ─▶ tosock
//        rt [1 local] ──▶ tapout
//        rt [2 external] ─▶ napt ─▶ (kernel) ▶ Internet
//        napt [0 return] ─▶ rt
#pragma once

#include <memory>
#include <set>
#include <string>

#include "click/elements.h"
#include "click/graph.h"
#include "core/slice.h"
#include "tcpip/host_stack.h"
#include "xorp/xorp_instance.h"

namespace vini::overlay {

struct IiasConfig {
  /// Per-packet forwarder cost model (reference machine).
  click::ClickCostModel costs;
  /// OSPF timers etc.; router_id is assigned per node.
  xorp::OspfConfig ospf;
  bool enable_ospf = true;
  bool enable_rip = false;
  xorp::RipConfig rip;
  /// Click's UDP socket buffer (0 = stack default ~110 KB).
  std::size_t socket_buffer = 0;
};

class IiasRouter final : public xorp::Fea {
 public:
  IiasRouter(core::VirtualNode& vnode, tcpip::HostStack& stack, IiasConfig config);
  ~IiasRouter() override;

  IiasRouter(const IiasRouter&) = delete;
  IiasRouter& operator=(const IiasRouter&) = delete;

  /// Register the virtual node's interfaces with the routing daemon,
  /// using the supplied per-link IGP metrics (from the embedding).
  /// Links absent from the map get cost 1.
  void registerVifs(
      const std::map<const core::VirtualLink*, std::uint32_t>& link_costs);

  /// Start the routing protocols.
  void start();
  void stop();

  /// Release this router's grip on its host stack: close the tunnel
  /// socket, remove the tap device (and every route through it), drop
  /// the interface addresses, and detach the FEA.  Called on a retired
  /// router after a live migration built its replacement on another
  /// node.  The object stays alive — queued CPU-process closures may
  /// still hold element pointers — but it no longer sees traffic.
  /// Idempotent.
  void detachFromStack();
  bool isDetached() const { return detached_; }

  // -- Fea: XORP programs the Click FIB here -----------------------------------

  void routeAdded(const xorp::RibRoute& route) override;
  void routeRemoved(const xorp::RibRoute& route) override;

  // -- Roles ---------------------------------------------------------------------

  /// Make this node an external egress: it advertises a default route
  /// into the IGP and NATs external traffic out (Section 4.2.3).
  void setExternalEgress();
  bool isExternalEgress() const { return external_egress_; }

  /// Advertise a locally-attached stub prefix (e.g. an OpenVPN client
  /// pool) and route it to a dedicated FIB port.  Returns the port.
  int attachStubPrefix(const packet::Prefix& prefix, click::Element& sink);

  // -- Failure injection (Section 5.2 mechanism) ---------------------------------

  /// Drop all tunnel traffic toward the given peer node.
  void blockTunnelTo(packet::IpAddress peer_node_addr);
  void unblockTunnelTo(packet::IpAddress peer_node_addr);

  // -- Live migration (neighbor-side tunnel repair) ------------------------------

  /// Repoint the tunnel that reaches next-hop `vif_addr` (a virtual
  /// interface on a neighboring virtual node) at a new substrate
  /// address — the neighbor migrated.
  void remapTunnelPeer(packet::IpAddress vif_addr, packet::IpAddress node_addr);

  // -- Ingress (OpenVPN server hands decapsulated packets in) --------------------

  void injectIntoDataPlane(packet::Packet p);

  // -- Accessors -------------------------------------------------------------------

  core::VirtualNode& vnode() { return vnode_; }
  tcpip::HostStack& stack() { return stack_; }
  xorp::XorpInstance& xorp() { return *xorp_; }
  click::RouterGraph& graph() { return *graph_; }
  cpu::Process& clickProcess() { return *click_process_; }
  cpu::Process& xorpProcess() { return *xorp_process_; }
  tcpip::TunDevice& tapDevice() { return *tap_; }
  click::LookupIPRoute& fibElement() { return *rt_; }
  click::FromSocket& fromSocket() { return *from_; }
  click::Napt& napt() { return *napt_; }
  const IiasConfig& config() const { return config_; }
  std::string tapName() const;

 private:
  void buildGraph();
  void wireControlPlane();
  bool locallyAttachedConflict(const packet::Prefix& prefix) const;

  core::VirtualNode& vnode_;
  tcpip::HostStack& stack_;
  IiasConfig config_;
  cpu::Process* click_process_ = nullptr;
  cpu::Process* xorp_process_ = nullptr;
  tcpip::TunDevice* tap_ = nullptr;
  std::unique_ptr<click::RouterGraph> graph_;
  std::unique_ptr<xorp::XorpInstance> xorp_;

  // Typed element handles into the graph.
  click::FromSocket* from_ = nullptr;
  click::LocalDemux* demux_ = nullptr;
  click::UmlSwitch* uml_ = nullptr;
  click::LookupIPRoute* rt_ = nullptr;
  click::EncapTable* encap_ = nullptr;
  click::DropFilter* fail_ = nullptr;
  click::Napt* napt_ = nullptr;

  /// OpenVPN packets on their way into the data plane.
  click::ProcessInbox injected_;

  bool external_egress_ = false;
  bool detached_ = false;
  int next_fib_port_ = 3;  // 0 tunnels, 1 local, 2 external
  /// Prefixes bound directly to FIB ports here; RIB updates for these
  /// must not clobber the local binding.
  std::set<packet::Prefix> locally_attached_;
};

}  // namespace vini::overlay
