#include "xorp/rip.h"

#include <algorithm>
#include <stdexcept>

namespace vini::xorp {

RipProcess::RipProcess(sim::EventQueue& queue, Rib& rib, RipConfig config,
                       cpu::Process* process, std::uint64_t seed)
    : queue_(queue), rib_(rib), config_(config), process_(process), random_(seed) {}

RipProcess::~RipProcess() { stop(); }

void RipProcess::addInterface(Vif& vif) { interfaces_.push_back(&vif); }

void RipProcess::addLocalPrefix(const packet::Prefix& prefix) {
  if (std::find(locals_.begin(), locals_.end(), prefix) == locals_.end()) {
    locals_.push_back(prefix);
  }
  Entry entry;
  entry.metric = 1;
  entry.learned_from = nullptr;
  entry.last_heard = queue_.now();
  table_[prefix] = entry;
}

void RipProcess::start() {
  if (running_) return;
  running_ = true;
  // Re-originate local prefixes: after a kill/restart the table starts
  // from scratch and holds only what this router itself advertises.
  for (const auto& prefix : locals_) {
    Entry entry;
    entry.metric = 1;
    entry.learned_from = nullptr;
    entry.last_heard = queue_.now();
    table_[prefix] = entry;
  }
  // RIP speakers have no router id; key by the first interface address.
  const std::string node =
      interfaces_.empty() ? "rip" : interfaces_.front()->address().str();
  timeline_track_ = "rip/" + node;
  if (obs::Obs* ctx = VINI_OBS_CTX()) {
    m_updates_sent_ = &ctx->metrics.counter("xorp.rip", node, "updates_sent");
    m_updates_received_ =
        &ctx->metrics.counter("xorp.rip", node, "updates_received");
    m_routes_timed_out_ =
        &ctx->metrics.counter("xorp.rip", node, "routes_timed_out");
  }
  update_timer_ = std::make_unique<sim::PeriodicTimer>(
      queue_, config_.update_interval, [this] {
        runCharged(config_.message_cost, [this] { sendUpdates(); });
      });
  expire_timer_ = std::make_unique<sim::PeriodicTimer>(
      queue_, config_.update_interval, [this] { expireRoutes(); });
  queue_.scheduleAfter(random_.uniformDuration(0, config_.update_interval / 4),
                       [this] {
                         if (!running_) return;
                         runCharged(config_.message_cost, [this] { sendUpdates(); });
                         update_timer_->start();
                         expire_timer_->start();
                       });
}

void RipProcess::stop() {
  if (!running_) return;
  running_ = false;
  if (update_timer_) update_timer_->stop();
  if (expire_timer_) expire_timer_->stop();
  rib_.removeAllFrom("rip");
  // Full state loss: learned routes are gone; neighbors must re-announce
  // them after restart.  Local prefixes come back via start().
  table_.clear();
}

bool RipProcess::timersQuiet() const {
  if (update_timer_ && update_timer_->running()) return false;
  if (expire_timer_ && expire_timer_->running()) return false;
  return true;
}

RipProcess::Checkpoint RipProcess::checkpoint() const {
  Checkpoint cp;
  cp.routes.reserve(table_.size());
  for (const auto& [prefix, entry] : table_) {
    CheckpointRoute route;
    route.prefix = prefix;
    route.metric = entry.metric;
    route.next_hop = entry.next_hop;
    if (entry.learned_from != nullptr) route.vif = entry.learned_from->name();
    cp.routes.push_back(std::move(route));
  }
  return cp;
}

void RipProcess::restore(const Checkpoint& checkpoint) {
  if (running_) {
    throw std::runtime_error("rip restore requires a stopped process");
  }
  for (const auto& route : checkpoint.routes) {
    Entry entry;
    entry.metric = route.metric;
    entry.next_hop = route.next_hop;
    entry.last_heard = queue_.now();  // fresh lease: do not expire instantly
    if (!route.vif.empty()) {
      for (Vif* vif : interfaces_) {
        if (vif->name() == route.vif) {
          entry.learned_from = vif;
          break;
        }
      }
      if (entry.learned_from == nullptr) continue;  // link did not move
      install(route.prefix, entry);
    }
    table_[route.prefix] = entry;
  }
}

void RipProcess::runCharged(sim::Duration cost, cpu::Process::JobFn work) {
  if (process_) {
    process_->execute(cost, std::move(work));
  } else {
    work();
  }
}

void RipProcess::sendUpdates() {
  if (!running_) return;
  VINI_OBS_TIMELINE_INSTANT(timeline_track_, "update_send", queue_.now());
  for (Vif* vif : interfaces_) {
    if (!vif->isUp()) continue;
    auto update = std::make_shared<RipUpdate>();
    for (const auto& [prefix, entry] : table_) {
      RipRoute route;
      route.prefix = prefix;
      // Split horizon with poisoned reverse.
      route.metric =
          entry.learned_from == vif ? kRipInfinity : std::min(entry.metric, kRipInfinity);
      update->routes.push_back(route);
    }
    packet::Packet p = packet::Packet::udp(vif->address(), vif->peerAddress(),
                                           kRipPort, kRipPort, 0);
    p.app = update;
    ++stats_.updates_sent;
    VINI_OBS_INC(m_updates_sent_);
    vif->send(std::move(p));
  }
}

void RipProcess::receive(Vif& vif, const packet::Packet& p) {
  if (!running_ || !p.app) return;
  auto payload = std::dynamic_pointer_cast<const RipUpdate>(p.app);
  if (!payload) return;
  const packet::IpAddress from = p.ip.src;
  Vif* vifp = &vif;  // the Vif outlives the deferred job; the parameter does not
  runCharged(config_.message_cost, [this, payload, vifp, from] {
    if (!running_) return;
    ++stats_.updates_received;
    VINI_OBS_INC(m_updates_received_);
    for (const auto& route : payload->routes) {
      const std::uint32_t metric = std::min(route.metric + 1, kRipInfinity);
      auto it = table_.find(route.prefix);
      const bool from_same_nbr =
          it != table_.end() && it->second.learned_from == vifp;
      if (it == table_.end() || metric < it->second.metric || from_same_nbr) {
        if (metric >= kRipInfinity) {
          // Route became unreachable.
          if (from_same_nbr) {
            rib_.removeRoute("rip", route.prefix);
            table_.erase(it);
          }
          continue;
        }
        Entry entry;
        entry.metric = metric;
        entry.learned_from = vifp;
        entry.next_hop = from;
        entry.last_heard = queue_.now();
        table_[route.prefix] = entry;
        install(route.prefix, entry);
      } else if (from_same_nbr) {
        it->second.last_heard = queue_.now();
      }
    }
  });
}

void RipProcess::install(const packet::Prefix& prefix, const Entry& entry) {
  RibRoute route;
  route.prefix = prefix;
  route.next_hop = entry.next_hop;
  route.origin = RouteOrigin::kRip;
  route.metric = entry.metric;
  route.protocol = "rip";
  rib_.addRoute(route);
}

void RipProcess::expireRoutes() {
  if (!running_) return;
  const sim::Time now = queue_.now();
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second.learned_from != nullptr &&
        now - it->second.last_heard > config_.route_timeout) {
      ++stats_.routes_timed_out;
      VINI_OBS_INC(m_routes_timed_out_);
      rib_.removeRoute("rip", it->first);
      it = table_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<std::uint32_t> RipProcess::metricFor(const packet::Prefix& prefix) const {
  auto it = table_.find(prefix);
  if (it == table_.end()) return std::nullopt;
  return it->second.metric;
}

}  // namespace vini::xorp
