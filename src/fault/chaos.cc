#include "fault/chaos.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "obs/obs.h"

namespace vini::fault {

namespace {

/// Fixed-width ns-precision timestamp: integer arithmetic only, so the
/// log is byte-identical across runs and platforms.
std::string formatTime(sim::Time t) {
  const auto secs = t / sim::kSecond;
  const auto frac = t % sim::kSecond;
  std::ostringstream os;
  os << secs << ".";
  std::string f = std::to_string(frac);
  os << std::string(9 - f.size(), '0') << f;
  return os.str();
}

struct LogLine {
  sim::Time when = 0;
  std::string text;
};

void auditForwardingLoops(topo::World& world, check::Report& report) {
  // Map every overlay address to the router owning it.
  std::unordered_map<packet::IpAddress, overlay::IiasRouter*> owner;
  for (const auto& router : world.iias->routers()) {
    owner[router->vnode().tapAddress()] = router.get();
    for (const auto& iface : router->vnode().interfaces()) {
      owner[iface->address()] = router.get();
    }
  }
  for (const auto& src : world.iias->routers()) {
    for (const auto& dst : world.iias->routers()) {
      if (src.get() == dst.get()) continue;
      const packet::IpAddress target = dst->vnode().tapAddress();
      overlay::IiasRouter* cur = src.get();
      std::unordered_set<overlay::IiasRouter*> visited{cur};
      while (true) {
        const auto* entry = cur->fibElement().fib().lookup(target);
        if (!entry) break;           // blackhole: lost, but not looping
        if (entry->port != 0) break; // delivered off the tunnel mesh
        if (entry->next_hop.isZero()) break;
        auto it = owner.find(entry->next_hop);
        if (it == owner.end()) break;
        overlay::IiasRouter* next = it->second;
        if (!visited.insert(next).second) {
          report.error("V121",
                       "route " + src->vnode().name() + " -> " +
                           dst->vnode().name(),
                       "forwarding loop: " + next->vnode().name() +
                           " revisited while resolving " + target.str());
          break;
        }
        cur = next;
      }
    }
  }
}

void auditConservation(topo::World& world, check::Report& report) {
  obs::Obs* ctx = VINI_OBS_CTX();
  if (!ctx) return;  // no registry to cross-check against
  for (const auto& link : world.net.links()) {
    const struct {
      const char* suffix;
      const phys::Channel& channel;
    } dirs[] = {{"/ab", link->channelFrom(link->nodeA())},
                {"/ba", link->channelFrom(link->nodeB())}};
    for (const auto& dir : dirs) {
      const std::string label = link->name() + dir.suffix;
      const phys::ChannelStats& stats = dir.channel.stats();
      const struct {
        const char* name;
        std::uint64_t value;
      } counters[] = {{"tx_packets", stats.tx_packets},
                      {"tx_bytes", stats.tx_bytes},
                      {"queue_drops", stats.queue_drops},
                      {"loss_drops", stats.loss_drops},
                      {"down_drops", stats.down_drops}};
      for (const auto& c : counters) {
        const obs::Counter* counter =
            ctx->metrics.findCounter("phys.link", label, c.name);
        if (!counter) continue;  // channel predates the obs context
        if (counter->value() != c.value) {
          report.error("V122", "channel " + label,
                       std::string(c.name) + " mismatch: registry " +
                           std::to_string(counter->value()) +
                           " != channel stats " + std::to_string(c.value));
        }
      }
    }
  }
}

void auditDeadTimers(topo::World& world, check::Report& report) {
  for (const auto& router : world.iias->routers()) {
    xorp::XorpInstance& xorp = router->xorp();
    if (xorp.ospf() && !xorp.ospf()->running() && !xorp.ospf()->timersQuiet()) {
      report.error("V123", "node " + router->vnode().name(),
                   "dead ospf process still owns armed timers");
    }
    if (xorp.rip() && !xorp.rip()->running() && !xorp.rip()->timersQuiet()) {
      report.error("V123", "node " + router->vnode().name(),
                   "dead rip process still owns armed timers");
    }
  }
}

}  // namespace

CampaignModel denseCampaignModel(std::uint64_t seed) {
  CampaignModel model;
  model.link.mttf_seconds = 60.0;
  model.link.mttr_seconds = 15.0;
  model.link.seed = seed;
  model.degrade = FaultClassModel{true, 80.0, 20.0};
  model.node = FaultClassModel{true, 150.0, 30.0};
  model.proc = FaultClassModel{true, 70.0, 0.0};
  // Dense enough for a handful of moves per router; stays disabled
  // until a campaign opts in (ChaosOptions::include_migrations).
  model.migrate = FaultClassModel{false, 45.0, 0.0};
  model.degrade_loss = 0.15;
  model.degrade_delay_seconds = 0.03;
  model.degrade_bandwidth_bps = 20e6;
  return model;
}

ChaosReport runChaosCampaign(topo::World& world, const ChaosOptions& options) {
  if (!world.iias) {
    throw std::runtime_error("chaos campaign needs a world with an overlay");
  }
  ChaosReport report;

  // Baseline: the world must be converged before we start breaking it.
  if (!world.runUntilConverged()) {
    report.invariants.error("V120", "baseline",
                            "world failed to converge before the campaign");
    report.event_log = "";
    return report;
  }

  // What the campaign may break.
  CampaignTargets targets;
  if (options.include_link_faults || options.include_degrades) {
    for (const auto& link : world.net.links()) {
      targets.links.push_back(link->name());
    }
  }
  bool has_ospf = false, has_rip = false, has_bgp = false;
  for (const auto& router : world.iias->routers()) {
    const std::string phys_name = router->vnode().physNode().name();
    if (options.include_node_crashes) targets.nodes.push_back(phys_name);
    if (options.include_proc_faults) {
      targets.proc_nodes.push_back(router->vnode().name());
    }
    has_ospf = has_ospf || router->xorp().ospf() != nullptr;
    has_rip = has_rip || router->xorp().rip() != nullptr;
    has_bgp = has_bgp || router->xorp().bgp() != nullptr;
  }
  if (options.include_proc_faults) {
    if (has_ospf) targets.proc_classes.push_back(ProcClass::kOspf);
    if (has_rip) targets.proc_classes.push_back(ProcClass::kRip);
    if (has_bgp) targets.proc_classes.push_back(ProcClass::kBgp);
  }
  if (options.include_migrations) {
    // Spares = substrate nodes hosting no overlay router, in network
    // order; each router pairs with one spare and ping-pongs between
    // its home and that spare for the whole campaign.
    std::unordered_set<std::string> hosting;
    for (const auto& router : world.iias->routers()) {
      hosting.insert(router->vnode().physNode().name());
    }
    std::vector<std::string> spares;
    for (const auto& node : world.net.nodes()) {
      if (!hosting.count(node->name())) spares.push_back(node->name());
    }
    const auto& routers = world.iias->routers();
    for (std::size_t i = 0; i < routers.size() && i < spares.size(); ++i) {
      targets.migrations.push_back(
          MigrationTarget{routers[i]->vnode().name(),
                          routers[i]->vnode().physNode().name(), spares[i]});
    }
  }

  CampaignModel model = options.model;
  model.link.seed = options.seed;
  if (!options.include_link_faults) model.link.mttf_seconds = 0;
  model.degrade.enabled = model.degrade.enabled && options.include_degrades;
  model.node.enabled = model.node.enabled && options.include_node_crashes;
  model.proc.enabled = model.proc.enabled && options.include_proc_faults;
  model.migrate.enabled =
      options.include_migrations && !targets.migrations.empty();

  const FaultSchedule schedule =
      generateFaultCampaign(targets, options.duration_seconds, model);
  report.fault_event_count = schedule.events.size();

  SupervisorConfig sup_config = options.supervisor;
  sup_config.seed = options.supervisor.seed ^
                    (options.seed * 0x9e3779b97f4a7c15ull);
  Supervisor supervisor(world.queue, sup_config);
  FaultInjector injector(world.schedule, world.net, world.iias.get(),
                         &supervisor);
  std::unique_ptr<migrate::MigrationManager> migrations;
  if (options.include_migrations) {
    migrate::MigrationPolicy policy = options.migration;
    policy.seed =
        options.migration.seed ^ (options.seed * 0x9e3779b97f4a7c15ull);
    policy.default_budget_ms = options.model.migrate_budget_ms;
    migrations = std::make_unique<migrate::MigrationManager>(
        world.queue, world.net, *world.vini, *world.iias, policy);
    migrations->setDaemonForget(
        [&supervisor](const std::string& id) { supervisor.forget(id); });
    migrations->setNodeProbe([&injector](const std::string& node) {
      return !injector.nodeCrashed(node);
    });
    injector.setMigrationHandler(
        [&manager = *migrations](const std::string& router,
                                 const std::string& dest,
                                 std::optional<double> budget_ms) {
          manager.requestMigration(router, dest, budget_ms);
        });
    injector.setMigrationGuard([&manager = *migrations](
                                   const std::string& router) {
      return manager.frozen(router);
    });
  }
  const std::size_t log_before = world.schedule.log().size();
  injector.apply(schedule);

  // Run through the storm: past the last scheduled event (repairs may
  // cross the horizon), then a recovery window sized from the slowest
  // recovery paths — the OSPF dead interval and the supervisor's
  // capped backoff.
  double last_event = options.duration_seconds;
  for (const auto& event : schedule.events) {
    last_event = std::max(last_event, event.at_seconds);
  }
  double recovery = options.recovery_seconds;
  if (recovery <= 0) {
    double dead_s = 10.0;
    if (!world.iias->routers().empty()) {
      dead_s = sim::toSeconds(
          world.iias->routers().front()->config().ospf.dead_interval);
    }
    recovery = 3.0 * dead_s + 2.0 * sim::toSeconds(sup_config.max_backoff) + 30.0;
  }
  world.queue.runUntil(sim::fromSeconds(last_event));
  // Let every supervised restart land (backoffs can stack past the
  // recovery window under repeated kills).
  for (int round = 0; round < 64 && supervisor.pendingRestarts() > 0; ++round) {
    world.queue.runUntil(world.queue.now() +
                         std::max(sup_config.max_backoff, 10 * sim::kSecond));
  }

  report.converged =
      world.runUntilConverged(sim::fromSeconds(recovery));
  if (!report.converged) {
    report.invariants.error(
        "V120", "recovery",
        "overlay failed to re-converge within " + formatTime(sim::fromSeconds(recovery)) +
            " s of quiescence");
  }
  report.supervised_restarts = supervisor.restartsCompleted();

  // Invariant audits over the quiesced world.
  auditForwardingLoops(world, report.invariants);
  auditConservation(world, report.invariants);
  auditDeadTimers(world, report.invariants);
  if (migrations) {
    migrations->auditInvariants(report.invariants);
    report.migrations_enabled = true;
    for (const auto& record : migrations->records()) {
      ++report.migrations_requested;
      if (record.completed) ++report.migrations_completed;
      if (record.rolled_back) ++report.migrations_rolled_back;
    }
    report.migration_json = migrations->reportJson();
  }

  // Deterministic event log: injected faults (from the experiment
  // schedule) merged with supervised restarts, sorted by time.
  std::vector<LogLine> lines;
  const auto& sched_log = world.schedule.log();
  for (std::size_t i = log_before; i < sched_log.size(); ++i) {
    lines.push_back(LogLine{sched_log[i].when, sched_log[i].label});
  }
  for (const auto& record : supervisor.log()) {
    lines.push_back(
        LogLine{record.restarted_at,
                "supervisor restart " + record.id + " attempt " +
                    std::to_string(record.attempt) + " after " +
                    formatTime(record.delay) + " s"});
  }
  if (migrations) {
    for (const auto& entry : migrations->log()) {
      lines.push_back(LogLine{entry.when, entry.text});
    }
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const LogLine& x, const LogLine& y) {
                     return x.when < y.when;
                   });
  std::ostringstream log;
  for (const auto& line : lines) {
    log << "t=" << formatTime(line.when) << " " << line.text << "\n";
  }
  report.event_log = log.str();
  return report;
}

std::string ChaosReport::format() const {
  std::ostringstream os;
  os << "chaos campaign: " << fault_event_count << " fault events, "
     << supervised_restarts << " supervised restarts\n";
  if (migrations_enabled) {
    os << "migrations: " << migrations_requested << " requested, "
       << migrations_completed << " completed, " << migrations_rolled_back
       << " rolled back\n";
  }
  os << "converged: " << (converged ? "yes" : "NO") << "\n";
  os << "event log:\n" << event_log;
  if (invariants.empty()) {
    os << "invariants: clean\n";
  } else {
    os << "invariants:\n" << invariants.format();
  }
  os << (passed() ? "PASS" : "FAIL") << "\n";
  return os.str();
}

}  // namespace vini::fault
