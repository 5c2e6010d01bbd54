// OSPF.
//
// A point-to-point OSPF implementing the mechanisms the Section 5.2
// experiment exercises: per-interface hello/dead timers (the experiment
// sets hello = 5 s, router-dead = 10 s), router-LSA origination, reliable
// flooding with sequence numbers, acknowledgments and retransmission,
// and full SPF (Dijkstra with the two-way connectivity check) feeding
// routes into the RIB.  Messages travel as packets over the virtual
// links, so failing a tunnel really silences hellos, the dead interval
// fires ~7 s later, new LSAs flood, and every node reconverges — the
// anatomy of Figure 8.
//
// If a cpu::Process is attached, all protocol work (sending hellos,
// handling messages, running SPF) is charged to it — a starved routing
// daemon sends hellos late, which is precisely the PlanetLab hazard
// Section 4.1.2 describes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cpu/scheduler.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "xorp/messages.h"
#include "xorp/rib.h"
#include "xorp/vif.h"

namespace vini::xorp {

struct OspfConfig {
  RouterId router_id = 0;
  sim::Duration hello_interval = 10 * sim::kSecond;
  sim::Duration dead_interval = 40 * sim::kSecond;
  sim::Duration rxmt_interval = 5 * sim::kSecond;
  /// Hold-down between an LSDB change and the SPF run.
  sim::Duration spf_delay = 100 * sim::kMillisecond;
  /// CPU costs charged to the attached process (reference machine).
  sim::Duration hello_cost = 30 * sim::kMicrosecond;
  sim::Duration message_cost = 60 * sim::kMicrosecond;
  sim::Duration spf_base_cost = 200 * sim::kMicrosecond;
  sim::Duration spf_per_lsa_cost = 20 * sim::kMicrosecond;
};

struct OspfStats {
  std::uint64_t hellos_sent = 0;
  std::uint64_t hellos_received = 0;
  std::uint64_t lsas_originated = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t spf_runs = 0;
  std::uint64_t neighbors_lost = 0;
};

enum class NeighborState { kDown, kInit, kFull };

class OspfProcess {
 public:
  /// `process` (optional) is the CPU context all work is charged to.
  /// `seed` staggers hello phases so routers do not fire in lockstep.
  OspfProcess(sim::EventQueue& queue, Rib& rib, OspfConfig config,
              cpu::Process* process = nullptr, std::uint64_t seed = 7);
  ~OspfProcess();

  OspfProcess(const OspfProcess&) = delete;
  OspfProcess& operator=(const OspfProcess&) = delete;

  /// Attach an interface with its OSPF cost (must precede start()).
  void addInterface(Vif& vif, std::uint32_t cost);

  /// Advertise a local stub prefix (e.g. the node's tap0 /32).
  void addStubPrefix(const packet::Prefix& prefix, std::uint32_t cost = 0);

  void start();
  void stop();
  bool running() const { return running_; }
  /// True when no timer owned by this process can still fire — the
  /// invariant a dead daemon must satisfy (chaos audit V123).
  bool timersQuiet() const;

  /// Deliver an incoming OSPF packet that arrived on `vif`.
  void receive(Vif& vif, const packet::Packet& p);

  /// Externally-signalled interface failure (a VINI upcall, Section 6.1):
  /// tear the adjacency down immediately instead of waiting out the
  /// router-dead interval.
  void notifyInterfaceDown(const Vif& vif);

  // -- Introspection -----------------------------------------------------------

  NeighborState neighborState(const Vif& vif) const;
  std::optional<RouterId> neighborId(const Vif& vif) const;
  std::size_t fullNeighborCount() const;
  std::size_t lsdbSize() const { return lsdb_.size(); }
  std::optional<RouterLsa> lsdbEntry(RouterId origin) const;
  const OspfStats& stats() const { return stats_; }
  const OspfConfig& config() const { return config_; }
  RouterId routerId() const { return config_.router_id; }

  // -- Checkpoint / restore (live migration) ---------------------------------

  /// Serializable protocol state: the LSDB plus this router's own LSA
  /// sequence number.  Capture *before* stop() — stop models a crash and
  /// clears both.
  struct Checkpoint {
    std::uint32_t own_seq = 0;
    std::vector<RouterLsa> lsdb;  ///< sorted by origin
  };
  Checkpoint checkpoint() const;

  /// Warm restart: pre-seed the LSDB and own sequence number while
  /// stopped, so the next start() floods a *newer* own-LSA (seq + 1)
  /// instead of restarting the sequence space from scratch — neighbors
  /// accept it immediately rather than after a flooding war.  Throws if
  /// the process is running.
  void restore(const Checkpoint& checkpoint);

 private:
  struct Pending {
    RouterLsa lsa;
    sim::Time last_sent = 0;
  };
  struct Interface {
    Vif* vif = nullptr;
    std::uint32_t cost = 1;
    NeighborState state = NeighborState::kDown;
    RouterId neighbor_id = 0;
    std::unique_ptr<sim::OneShotTimer> dead_timer;
    /// LSAs flooded to this neighbor and not yet acknowledged.
    std::map<RouterId, Pending> unacked;
  };

  // Work scheduling through the (optional) CPU process.
  void runCharged(sim::Duration cost, cpu::Process::JobFn work);

  void sendHellos();
  void handleHello(Interface& iface, const OspfHello& hello);
  void handleUpdate(Interface& iface, const OspfLsUpdate& update);
  void handleAck(Interface& iface, const OspfLsAck& ack);
  void onNeighborUp(Interface& iface);
  void onNeighborDead(Interface& iface);
  void originateOwnLsa();
  void installLsa(const RouterLsa& lsa, Interface* from);
  void floodLsa(const RouterLsa& lsa, Interface* except);
  void sendUpdateTo(Interface& iface, std::vector<RouterLsa> lsas,
                    bool track_ack);
  void sendAckTo(Interface& iface, const std::vector<RouterLsa>& lsas);
  void retransmitUnacked();
  void scheduleSpf();
  void runSpf();
  void sendOn(Interface& iface, std::shared_ptr<const packet::AppPayload> payload);

  sim::EventQueue& queue_;
  Rib& rib_;
  OspfConfig config_;
  cpu::Process* process_;
  sim::Random random_;
  std::string protocol_name_;
  /// Timeline track for this router's control-plane events.
  std::string timeline_track_;

  std::vector<std::unique_ptr<Interface>> interfaces_;
  std::vector<std::pair<packet::Prefix, std::uint32_t>> stubs_;
  std::map<RouterId, RouterLsa> lsdb_;
  std::uint32_t own_seq_ = 0;
  bool running_ = false;
  bool spf_scheduled_ = false;
  std::set<packet::Prefix> installed_;
  std::unique_ptr<sim::PeriodicTimer> hello_timer_;
  std::unique_ptr<sim::PeriodicTimer> rxmt_timer_;
  OspfStats stats_;
  // Observability handles, registered at start() (null when no obs
  // context is installed).
  obs::Counter* m_hellos_sent_ = nullptr;
  obs::Counter* m_updates_sent_ = nullptr;
  obs::Counter* m_updates_received_ = nullptr;
  obs::Counter* m_spf_runs_ = nullptr;
  obs::Counter* m_retransmissions_ = nullptr;
  obs::Counter* m_neighbors_lost_ = nullptr;
};

}  // namespace vini::xorp
