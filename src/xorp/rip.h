// RIP (v2-style distance vector).
//
// XORP ships RIP alongside OSPF; VINI's Section 7 imagines operators
// running several routing protocols side by side on one physical
// network.  This implementation supports that usage mode (and the
// protocol-comparison ablation bench): periodic full-table updates over
// the same virtual interfaces OSPF uses, split horizon with poisoned
// reverse, route timeout, and hop-count metric with infinity = 16.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cpu/scheduler.h"
#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "xorp/messages.h"
#include "xorp/rib.h"
#include "xorp/vif.h"

namespace vini::xorp {

struct RipConfig {
  sim::Duration update_interval = 30 * sim::kSecond;
  sim::Duration route_timeout = 180 * sim::kSecond;
  sim::Duration message_cost = 40 * sim::kMicrosecond;
};

struct RipStats {
  std::uint64_t updates_sent = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t routes_timed_out = 0;
};

class RipProcess {
 public:
  RipProcess(sim::EventQueue& queue, Rib& rib, RipConfig config,
             cpu::Process* process = nullptr, std::uint64_t seed = 11);
  ~RipProcess();

  RipProcess(const RipProcess&) = delete;
  RipProcess& operator=(const RipProcess&) = delete;

  void addInterface(Vif& vif);
  /// A prefix this router originates (metric 1).
  void addLocalPrefix(const packet::Prefix& prefix);

  void start();
  void stop();
  bool running() const { return running_; }
  /// True when no timer owned by this process can still fire — the
  /// invariant a dead daemon must satisfy (chaos audit V123).
  bool timersQuiet() const;

  /// Deliver an incoming RIP packet (UDP port 520) from `vif`.
  void receive(Vif& vif, const packet::Packet& p);

  const RipStats& stats() const { return stats_; }
  std::size_t tableSize() const { return table_.size(); }
  std::optional<std::uint32_t> metricFor(const packet::Prefix& prefix) const;

  // -- Checkpoint / restore (live migration) ---------------------------------

  /// One serializable table entry; `vif` names the learning interface
  /// (empty = locally originated).
  struct CheckpointRoute {
    packet::Prefix prefix;
    std::uint32_t metric = kRipInfinity;
    packet::IpAddress next_hop;
    std::string vif;
  };
  struct Checkpoint {
    std::vector<CheckpointRoute> routes;  ///< table order (sorted by prefix)
  };
  /// Capture before stop() — stop models a crash and clears the table.
  Checkpoint checkpoint() const;
  /// Re-seed the table while stopped.  Learned entries resolve their
  /// interface by name against this process's interfaces (unresolvable
  /// entries are dropped — the link did not survive the move) and are
  /// installed into the RIB so forwarding resumes before the first
  /// periodic update.  Throws if the process is running.
  void restore(const Checkpoint& checkpoint);

 private:
  struct Entry {
    std::uint32_t metric = kRipInfinity;
    Vif* learned_from = nullptr;  ///< nullptr = local origin
    packet::IpAddress next_hop;
    sim::Time last_heard = 0;
  };

  void runCharged(sim::Duration cost, cpu::Process::JobFn work);
  void sendUpdates();
  void expireRoutes();
  void install(const packet::Prefix& prefix, const Entry& entry);

  sim::EventQueue& queue_;
  Rib& rib_;
  RipConfig config_;
  cpu::Process* process_;
  sim::Random random_;
  std::string timeline_track_;
  std::vector<Vif*> interfaces_;
  std::vector<packet::Prefix> locals_;  ///< re-originated on every start()
  std::map<packet::Prefix, Entry> table_;
  bool running_ = false;
  std::unique_ptr<sim::PeriodicTimer> update_timer_;
  std::unique_ptr<sim::PeriodicTimer> expire_timer_;
  RipStats stats_;
  // Observability handles, registered at start() (null when no obs
  // context is installed).
  obs::Counter* m_updates_sent_ = nullptr;
  obs::Counter* m_updates_received_ = nullptr;
  obs::Counter* m_routes_timed_out_ = nullptr;
};

}  // namespace vini::xorp
