#include "xorp/ospf.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace vini::xorp {

OspfProcess::OspfProcess(sim::EventQueue& queue, Rib& rib, OspfConfig config,
                         cpu::Process* process, std::uint64_t seed)
    : queue_(queue),
      rib_(rib),
      config_(config),
      process_(process),
      random_(seed ^ (std::uint64_t{config.router_id} << 16)),
      protocol_name_("ospf") {
  timeline_track_ = "ospf/" + packet::IpAddress(config_.router_id).str();
}

OspfProcess::~OspfProcess() { stop(); }

void OspfProcess::addInterface(Vif& vif, std::uint32_t cost) {
  auto iface = std::make_unique<Interface>();
  iface->vif = &vif;
  iface->cost = cost;
  Interface* raw = iface.get();
  iface->dead_timer = std::make_unique<sim::OneShotTimer>(
      queue_, [this, raw] { onNeighborDead(*raw); });
  interfaces_.push_back(std::move(iface));
}

void OspfProcess::addStubPrefix(const packet::Prefix& prefix, std::uint32_t cost) {
  stubs_.emplace_back(prefix, cost);
  // A stub attached to a live router (e.g. an OpenVPN pool brought up
  // mid-experiment) is announced right away.
  if (running_) originateOwnLsa();
}

void OspfProcess::start() {
  if (running_) return;
  running_ = true;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    const std::string node = packet::IpAddress(config_.router_id).str();
    m_hellos_sent_ = &ctx->metrics.counter("xorp.ospf", node, "hellos_sent");
    m_updates_sent_ = &ctx->metrics.counter("xorp.ospf", node, "updates_sent");
    m_updates_received_ =
        &ctx->metrics.counter("xorp.ospf", node, "updates_received");
    m_spf_runs_ = &ctx->metrics.counter("xorp.ospf", node, "spf_runs");
    m_retransmissions_ =
        &ctx->metrics.counter("xorp.ospf", node, "retransmissions");
    m_neighbors_lost_ =
        &ctx->metrics.counter("xorp.ospf", node, "neighbors_lost");
  }
  originateOwnLsa();
  hello_timer_ = std::make_unique<sim::PeriodicTimer>(
      queue_, config_.hello_interval, [this] {
        runCharged(config_.hello_cost, [this] { sendHellos(); });
      });
  rxmt_timer_ = std::make_unique<sim::PeriodicTimer>(
      queue_, config_.rxmt_interval, [this] { retransmitUnacked(); });
  // Stagger the first hello so co-started routers do not fire in lockstep.
  queue_.scheduleAfter(random_.uniformDuration(0, config_.hello_interval),
                       "xorp.ospf", [this] {
                         if (!running_) return;
                         runCharged(config_.hello_cost, [this] { sendHellos(); });
                         hello_timer_->start();
                         rxmt_timer_->start();
                       });
}

void OspfProcess::stop() {
  if (!running_) return;
  running_ = false;
  if (hello_timer_) hello_timer_->stop();
  if (rxmt_timer_) rxmt_timer_->stop();
  for (auto& iface : interfaces_) {
    iface->dead_timer->cancel();
    iface->state = NeighborState::kDown;
    iface->neighbor_id = 0;
    iface->unacked.clear();
  }
  for (const auto& prefix : installed_) rib_.removeRoute(protocol_name_, prefix);
  installed_.clear();
  // Full state loss: a killed daemon forgets its LSDB and its own
  // sequence number.  On restart it re-floods from seq 1; neighbors
  // still holding the stale higher-seq copy hand it back during database
  // exchange and handleUpdate() outbids it (the restart path RFC 2328
  // §13.4 describes).
  lsdb_.clear();
  own_seq_ = 0;
}

OspfProcess::Checkpoint OspfProcess::checkpoint() const {
  Checkpoint cp;
  cp.own_seq = own_seq_;
  cp.lsdb.reserve(lsdb_.size());
  for (const auto& [origin, lsa] : lsdb_) cp.lsdb.push_back(lsa);
  return cp;
}

void OspfProcess::restore(const Checkpoint& checkpoint) {
  if (running_) {
    throw std::runtime_error("ospf restore requires a stopped process");
  }
  lsdb_.clear();
  for (const auto& lsa : checkpoint.lsdb) lsdb_[lsa.origin] = lsa;
  // start() originates at ++own_seq_, so the first post-restore own-LSA
  // is strictly newer than anything neighbors hold.
  own_seq_ = checkpoint.own_seq;
}

bool OspfProcess::timersQuiet() const {
  if (hello_timer_ && hello_timer_->running()) return false;
  if (rxmt_timer_ && rxmt_timer_->running()) return false;
  for (const auto& iface : interfaces_) {
    if (iface->dead_timer && iface->dead_timer->pending()) return false;
  }
  return true;
}

void OspfProcess::runCharged(sim::Duration cost, cpu::Process::JobFn work) {
  if (process_) {
    process_->execute(cost, std::move(work));
  } else {
    work();
  }
}

void OspfProcess::sendOn(Interface& iface,
                         std::shared_ptr<const packet::AppPayload> payload) {
  if (!iface.vif->isUp()) return;
  packet::Packet p;
  p.ip.src = iface.vif->address();
  p.ip.dst = iface.vif->peerAddress();
  p.ip.proto = packet::IpProto::kOspf;
  p.ip.ttl = 1;  // OSPF speaks only to the adjacent router
  p.app = std::move(payload);
  iface.vif->send(std::move(p));
}

void OspfProcess::sendHellos() {
  if (!running_) return;
  for (auto& iface : interfaces_) {
    auto hello = std::make_shared<OspfHello>();
    hello->router_id = config_.router_id;
    hello->hello_interval_s =
        static_cast<std::uint32_t>(config_.hello_interval / sim::kSecond);
    hello->dead_interval_s =
        static_cast<std::uint32_t>(config_.dead_interval / sim::kSecond);
    if (iface->state != NeighborState::kDown && iface->neighbor_id != 0) {
      hello->seen_neighbors.push_back(iface->neighbor_id);
    }
    ++stats_.hellos_sent;
    VINI_OBS_INC(m_hellos_sent_);
    sendOn(*iface, std::move(hello));
  }
}

void OspfProcess::receive(Vif& vif, const packet::Packet& p) {
  if (!running_ || !p.app) return;
  Interface* iface = nullptr;
  for (auto& candidate : interfaces_) {
    if (candidate->vif == &vif) {
      iface = candidate.get();
      break;
    }
  }
  if (!iface) return;

  // Copy the payload pointer so the charged job outlives the packet.
  auto payload = p.app;
  runCharged(config_.message_cost, [this, iface, payload] {
    if (!running_) return;
    if (auto hello = std::dynamic_pointer_cast<const OspfHello>(payload)) {
      handleHello(*iface, *hello);
    } else if (auto update =
                   std::dynamic_pointer_cast<const OspfLsUpdate>(payload)) {
      handleUpdate(*iface, *update);
    } else if (auto ack = std::dynamic_pointer_cast<const OspfLsAck>(payload)) {
      handleAck(*iface, *ack);
    }
  });
}

void OspfProcess::handleHello(Interface& iface, const OspfHello& hello) {
  ++stats_.hellos_received;
  if (iface.neighbor_id != 0 && iface.neighbor_id != hello.router_id) {
    // Neighbor identity changed: restart the adjacency.
    iface.state = NeighborState::kDown;
    iface.unacked.clear();
  }
  iface.neighbor_id = hello.router_id;
  iface.dead_timer->armAfter(config_.dead_interval);

  const bool sees_us =
      std::find(hello.seen_neighbors.begin(), hello.seen_neighbors.end(),
                config_.router_id) != hello.seen_neighbors.end();
  switch (iface.state) {
    case NeighborState::kDown:
      iface.state = sees_us ? NeighborState::kFull : NeighborState::kInit;
      if (iface.state == NeighborState::kFull) onNeighborUp(iface);
      break;
    case NeighborState::kInit:
      if (sees_us) {
        iface.state = NeighborState::kFull;
        onNeighborUp(iface);
      }
      break;
    case NeighborState::kFull:
      break;  // steady state: dead timer re-armed above
  }
}

void OspfProcess::onNeighborUp(Interface& iface) {
  // Database exchange (condensed): give the new adjacency our entire
  // LSDB, reliably.
  std::vector<RouterLsa> all;
  all.reserve(lsdb_.size());
  for (const auto& [origin, lsa] : lsdb_) all.push_back(lsa);
  if (!all.empty()) sendUpdateTo(iface, std::move(all), /*track_ack=*/true);
  originateOwnLsa();
}

void OspfProcess::notifyInterfaceDown(const Vif& vif) {
  if (!running_) return;
  for (auto& iface : interfaces_) {
    if (iface->vif == &vif && iface->state != NeighborState::kDown) {
      iface->dead_timer->cancel();
      onNeighborDead(*iface);
    }
  }
}

void OspfProcess::onNeighborDead(Interface& iface) {
  if (iface.state == NeighborState::kDown) return;
  ++stats_.neighbors_lost;
  VINI_OBS_INC(m_neighbors_lost_);
  VINI_OBS_TIMELINE_INSTANT(timeline_track_, "neighbor_dead", queue_.now());
  iface.state = NeighborState::kDown;
  iface.unacked.clear();
  originateOwnLsa();
}

void OspfProcess::originateOwnLsa() {
  if (!running_) return;
  RouterLsa lsa;
  lsa.origin = config_.router_id;
  lsa.seq = ++own_seq_;
  for (const auto& iface : interfaces_) {
    if (iface->state == NeighborState::kFull) {
      LsaLink link;
      link.neighbor_id = iface->neighbor_id;
      link.subnet = iface->vif->subnet();
      link.cost = iface->cost;
      lsa.links.push_back(link);
    }
  }
  lsa.stubs = stubs_;
  ++stats_.lsas_originated;
  installLsa(lsa, nullptr);
}

void OspfProcess::installLsa(const RouterLsa& lsa, Interface* from) {
  auto it = lsdb_.find(lsa.origin);
  if (it != lsdb_.end() && !lsa.newerThan(it->second)) {
    // Old or duplicate news: acknowledge but do not reflood.
    if (from) sendAckTo(*from, {lsa});
    return;
  }
  lsdb_[lsa.origin] = lsa;
  if (from) sendAckTo(*from, {lsa});
  floodLsa(lsa, from);
  scheduleSpf();
}

void OspfProcess::floodLsa(const RouterLsa& lsa, Interface* except) {
  VINI_OBS_TIMELINE_INSTANT(timeline_track_, "lsa_flood", queue_.now());
  for (auto& iface : interfaces_) {
    if (iface.get() == except) continue;
    if (iface->state != NeighborState::kFull) continue;
    sendUpdateTo(*iface, {lsa}, /*track_ack=*/true);
  }
}

void OspfProcess::sendUpdateTo(Interface& iface, std::vector<RouterLsa> lsas,
                               bool track_ack) {
  auto update = std::make_shared<OspfLsUpdate>();
  update->lsas = lsas;
  if (track_ack) {
    for (auto& lsa : lsas) {
      iface.unacked[lsa.origin] = Pending{std::move(lsa), queue_.now()};
    }
  }
  ++stats_.updates_sent;
  VINI_OBS_INC(m_updates_sent_);
  sendOn(iface, std::move(update));
}

void OspfProcess::sendAckTo(Interface& iface, const std::vector<RouterLsa>& lsas) {
  auto ack = std::make_shared<OspfLsAck>();
  for (const auto& lsa : lsas) ack->acks.emplace_back(lsa.origin, lsa.seq);
  ++stats_.acks_sent;
  sendOn(iface, std::move(ack));
}

void OspfProcess::handleUpdate(Interface& iface, const OspfLsUpdate& update) {
  ++stats_.updates_received;
  VINI_OBS_INC(m_updates_received_);
  for (const auto& lsa : update.lsas) {
    if (lsa.origin == config_.router_id) {
      // A stale copy of our own LSA is circulating (e.g. we restarted):
      // outbid it.
      if (lsa.seq >= own_seq_) {
        own_seq_ = lsa.seq;
        originateOwnLsa();
      } else {
        sendAckTo(iface, {lsa});
      }
      continue;
    }
    installLsa(lsa, &iface);
  }
}

void OspfProcess::handleAck(Interface& iface, const OspfLsAck& ack) {
  for (const auto& [origin, seq] : ack.acks) {
    auto it = iface.unacked.find(origin);
    if (it != iface.unacked.end() && it->second.lsa.seq <= seq) {
      iface.unacked.erase(it);
    }
  }
}

void OspfProcess::retransmitUnacked() {
  if (!running_) return;
  const sim::Time now = queue_.now();
  for (auto& iface : interfaces_) {
    if (iface->state != NeighborState::kFull) continue;
    std::vector<RouterLsa> due;
    for (auto& [origin, pending] : iface->unacked) {
      if (now - pending.last_sent >= config_.rxmt_interval) {
        due.push_back(pending.lsa);
        pending.last_sent = now;
      }
    }
    if (!due.empty()) {
      stats_.retransmissions += due.size();
      VINI_OBS_ADD(m_retransmissions_, due.size());
      auto update = std::make_shared<OspfLsUpdate>();
      update->lsas = std::move(due);
      ++stats_.updates_sent;
      VINI_OBS_INC(m_updates_sent_);
      sendOn(*iface, std::move(update));
    }
  }
}

void OspfProcess::scheduleSpf() {
  if (spf_scheduled_ || !running_) return;
  spf_scheduled_ = true;
  queue_.scheduleAfter(config_.spf_delay, "xorp.ospf", [this] {
    spf_scheduled_ = false;
    if (!running_) return;
    const sim::Duration cost =
        config_.spf_base_cost +
        config_.spf_per_lsa_cost * static_cast<sim::Duration>(lsdb_.size());
    runCharged(cost, [this] { runSpf(); });
  });
}

void OspfProcess::runSpf() {
  if (!running_) return;
  ++stats_.spf_runs;
  VINI_OBS_INC(m_spf_runs_);
  VINI_OBS_TIMELINE_INSTANT(timeline_track_, "spf_run", queue_.now());

  // Dijkstra over the LSDB with the two-way connectivity check.
  const RouterId self = config_.router_id;
  std::map<RouterId, std::uint32_t> dist;
  std::map<RouterId, Interface*> first_hop;
  using Item = std::pair<std::uint32_t, RouterId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[self] = 0;
  pq.push({0, self});

  auto hasReverseLink = [this](RouterId from, RouterId to) {
    auto it = lsdb_.find(from);
    if (it == lsdb_.end()) return false;
    for (const auto& link : it->second.links) {
      if (link.neighbor_id == to) return true;
    }
    return false;
  };

  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    auto du = dist.find(u);
    if (du != dist.end() && d > du->second) continue;
    auto lsa_it = lsdb_.find(u);
    if (lsa_it == lsdb_.end()) continue;
    for (const auto& link : lsa_it->second.links) {
      const RouterId v = link.neighbor_id;
      if (!hasReverseLink(v, u)) continue;  // two-way check
      const std::uint32_t nd = d + link.cost;
      auto dv = dist.find(v);
      if (dv != dist.end() && dv->second <= nd) continue;
      dist[v] = nd;
      if (u == self) {
        // First hop: the interface whose Full neighbor is v.
        Interface* hop = nullptr;
        for (auto& iface : interfaces_) {
          if (iface->state == NeighborState::kFull && iface->neighbor_id == v &&
              (!hop || iface->cost <= hop->cost)) {
            hop = iface.get();
          }
        }
        first_hop[v] = hop;
      } else {
        first_hop[v] = first_hop[u];
      }
      pq.push({nd, v});
    }
  }

  // Collect the best route per prefix.
  struct Candidate {
    std::uint32_t cost;
    Interface* hop;
  };
  std::map<packet::Prefix, Candidate> best;
  auto offer = [&best](const packet::Prefix& prefix, std::uint32_t cost,
                       Interface* hop) {
    if (!hop) return;
    auto it = best.find(prefix);
    if (it == best.end() || cost < it->second.cost) best[prefix] = {cost, hop};
  };

  for (const auto& [rid, d] : dist) {
    if (rid == self) continue;
    auto hop_it = first_hop.find(rid);
    if (hop_it == first_hop.end() || !hop_it->second) continue;
    auto lsa_it = lsdb_.find(rid);
    if (lsa_it == lsdb_.end()) continue;
    for (const auto& link : lsa_it->second.links) {
      offer(link.subnet, d + link.cost, hop_it->second);
    }
    for (const auto& [prefix, stub_cost] : lsa_it->second.stubs) {
      offer(prefix, d + stub_cost, hop_it->second);
    }
  }

  // Install the diff into the RIB.
  std::set<packet::Prefix> next_installed;
  for (const auto& [prefix, cand] : best) {
    RibRoute route;
    route.prefix = prefix;
    route.next_hop = cand.hop->vif->peerAddress();
    route.origin = RouteOrigin::kOspf;
    route.metric = cand.cost;
    route.protocol = protocol_name_;
    rib_.addRoute(route);
    next_installed.insert(prefix);
  }
  for (const auto& prefix : installed_) {
    if (next_installed.count(prefix) == 0) {
      rib_.removeRoute(protocol_name_, prefix);
    }
  }
  installed_ = std::move(next_installed);
}

NeighborState OspfProcess::neighborState(const Vif& vif) const {
  for (const auto& iface : interfaces_) {
    if (iface->vif == &vif) return iface->state;
  }
  return NeighborState::kDown;
}

std::optional<RouterId> OspfProcess::neighborId(const Vif& vif) const {
  for (const auto& iface : interfaces_) {
    if (iface->vif == &vif && iface->neighbor_id != 0) return iface->neighbor_id;
  }
  return std::nullopt;
}

std::size_t OspfProcess::fullNeighborCount() const {
  std::size_t n = 0;
  for (const auto& iface : interfaces_) {
    if (iface->state == NeighborState::kFull) ++n;
  }
  return n;
}

std::optional<RouterLsa> OspfProcess::lsdbEntry(RouterId origin) const {
  auto it = lsdb_.find(origin);
  if (it == lsdb_.end()) return std::nullopt;
  return it->second;
}

}  // namespace vini::xorp
