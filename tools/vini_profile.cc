// vini_profile: the parallelism-ceiling profiler CLI.
//
// Answers "how much would sharding this workload actually buy?" before
// any worker thread exists: it replays a canned, fully seeded Abilene
// scenario under saturating iperf load with the ParallelismProfiler
// attached, then models a conservative-lookahead sharded engine
// (window = the topology's minimum link propagation delay) over the
// real per-node event stream and reports the critical path and the
// predicted speedup at 2/4/8/16 shards.
//
//   vini_profile run [--seed N] [--seconds N] [--flows N] [--out FILE]
//       writes PROFILE_report.json (schema_version 1)
//   vini_profile --self-test
//
// The report is deterministic: it carries only virtual-time and
// event-count quantities, never wall clock, so the same --seed produces
// a byte-identical file — scripts/check.sh double-runs and diffs it.
// VINI_SMOKE=1 shrinks the run for fast gating.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/iperf.h"
#include "obs/parallelism.h"
#include "topo/worlds.h"

namespace {

using namespace vini;

int usage() {
  std::cerr << "usage: vini_profile run [--seed N] [--seconds N] [--flows N]"
               " [--out FILE]\n"
               "       vini_profile --self-test\n";
  return 2;
}

// -- Canned scenario (bench_engine's saturating workload) --------------------

int cmdRun(std::uint64_t seed, int seconds, int flows,
           const std::string& out_path) {
  topo::WorldOptions options;
  options.seed = seed;
  options.contention = 0.0;
  auto world = topo::makeAbileneWorld(options);
  if (!world->runUntilConverged(180 * sim::kSecond)) {
    std::cerr << "vini_profile: world did not converge\n";
    return 1;
  }
  const sim::Time t0 = world->queue.now();

  const sim::Duration lookahead = world->net.minPropagation();
  obs::ParallelismProfiler profiler;
  profiler.setLookahead(lookahead);
  profiler.attach(world->queue);

  static const char* kPairs[][2] = {
      {"Washington", "Seattle"},   {"Seattle", "Atlanta"},
      {"Sunnyvale", "NewYork"},    {"LosAngeles", "Chicago"},
      {"Houston", "Indianapolis"}, {"Denver", "Atlanta"},
      {"NewYork", "Sunnyvale"},    {"Atlanta", "KansasCity"},
  };
  const int npairs = static_cast<int>(sizeof(kPairs) / sizeof(kPairs[0]));
  std::vector<std::unique_ptr<app::IperfUdpServer>> servers;
  std::vector<std::unique_ptr<app::IperfUdpClient>> clients;
  for (int i = 0; i < flows; ++i) {
    const char* src = kPairs[i % npairs][0];
    const char* dst = kPairs[i % npairs][1];
    const std::uint16_t port = static_cast<std::uint16_t>(5001 + i);
    servers.push_back(
        std::make_unique<app::IperfUdpServer>(world->stack(dst), port));
    clients.push_back(std::make_unique<app::IperfUdpClient>(
        world->stack(src), world->tapOf(dst), port, 120e6, 1430,
        world->tapOf(src)));
    clients.back()->start(seconds * sim::kSecond);
  }
  world->queue.runUntil(t0 + seconds * sim::kSecond);

  const obs::ParallelismProfiler::Report report =
      profiler.analyze({2, 4, 8, 16});
  profiler.detach();
  {
    std::ofstream out(out_path);
    obs::ParallelismProfiler::writeJson(out, report);
  }

  std::printf("vini_profile: seed %llu, lookahead %.3f ms, %llu events "
              "(%.1f%% cross-node), %llu barrier rounds\n",
              static_cast<unsigned long long>(seed), sim::toMillis(lookahead),
              static_cast<unsigned long long>(report.total_events),
              100.0 * report.cross_node_ratio,
              static_cast<unsigned long long>(report.windows));
  for (const auto& p : report.predictions) {
    std::printf("  %2d shards: critical path %12llu events, predicted "
                "speedup %5.2fx (efficiency %4.0f%%)\n",
                p.shards,
                static_cast<unsigned long long>(p.critical_path_events),
                p.predicted_speedup, 100.0 * p.efficiency);
  }
  if (report.lookahead_violations != 0) {
    std::fprintf(stderr,
                 "vini_profile: %llu cross-node events arrived under one "
                 "lookahead — window too large for this workload\n",
                 static_cast<unsigned long long>(report.lookahead_violations));
    return 1;
  }
  std::printf("  [report written to %s]\n", out_path.c_str());
  return 0;
}

// -- Self-test ---------------------------------------------------------------

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::cerr << "vini_profile: self-test FAILED at " << __FILE__ << ':' \
                << __LINE__ << ": " #cond "\n";                            \
      return 1;                                                            \
    }                                                                      \
  } while (0)

/// Two fully independent, perfectly balanced nodes: the model must
/// predict a speedup of exactly 2 at 2+ shards.
int selfTestBalanced() {
  sim::EventQueue queue;
  const sim::NodeTag a = queue.internNodeTag("a");
  const sim::NodeTag b = queue.internNodeTag("b");
  obs::ParallelismProfiler profiler;
  profiler.setLookahead(sim::kMillisecond);
  profiler.attach(queue);
  for (int w = 0; w < 10; ++w) {
    const sim::Time t = w * sim::kMillisecond + 10 * sim::kMicrosecond;
    for (int i = 0; i < 5; ++i) {
      queue.schedule(t + i, "test", a, [] {});
      queue.schedule(t + i, "test", b, [] {});
    }
  }
  queue.run();
  const auto report = profiler.analyze({2, 4});
  CHECK(report.total_events == 100);
  CHECK(report.attributed_events == 100);
  CHECK(report.cross_node_events == 0);
  CHECK(report.lookahead_violations == 0);
  CHECK(report.windows == 10);
  CHECK(report.nodes.size() == 2);
  CHECK(report.predictions.size() == 2);
  // Perfect balance: critical path is half the events at 2 shards, and
  // adding shards beyond the node count buys nothing.
  CHECK(report.predictions[0].critical_path_events == 50);
  CHECK(report.predictions[0].predicted_speedup == 2.0);
  CHECK(report.predictions[1].critical_path_events == 50);
  CHECK(report.predictions[1].predicted_speedup == 2.0);
  return 0;
}

/// Cross-node accounting: an event scheduled from node a's handler onto
/// node b counts as cross-node, and one arriving under a lookahead is a
/// violation.
int selfTestCrossNode() {
  sim::EventQueue queue;
  const sim::NodeTag a = queue.internNodeTag("a");
  const sim::NodeTag b = queue.internNodeTag("b");
  obs::ParallelismProfiler profiler;
  profiler.setLookahead(sim::kMillisecond);
  profiler.attach(queue);
  queue.schedule(10 * sim::kMicrosecond, "test", a, [&queue, a, b] {
    // Safe hand-off: one full lookahead ahead.
    queue.scheduleAfter(sim::kMillisecond, "test", b, [] {});
    // Violation: arrives within the window.
    queue.scheduleAfter(100 * sim::kMicrosecond, "test", b, [] {});
    // Same-node: not cross.
    queue.scheduleAfter(sim::kMillisecond, "test", a, [] {});
  });
  queue.run();
  const auto report = profiler.analyze({2});
  CHECK(report.total_events == 4);
  CHECK(report.cross_node_events == 2);
  CHECK(report.lookahead_violations == 1);
  CHECK(report.min_cross_delay_ns == 100 * sim::kMicrosecond);
  CHECK(queue.sameNodeScheduledCount() == 1);
  CHECK(queue.crossNodeScheduledCount() == 2);
  return 0;
}

/// Determinism: identical synthetic streams serialize to identical
/// bytes (the property the check.sh double-run diff enforces on the
/// full scenario).
int selfTestDeterminism() {
  std::string first;
  for (int round = 0; round < 2; ++round) {
    sim::EventQueue queue;
    std::vector<sim::NodeTag> tags;
    for (const char* name : {"n0", "n1", "n2"}) {
      tags.push_back(queue.internNodeTag(name));
    }
    obs::ParallelismProfiler profiler;
    profiler.setLookahead(2 * sim::kMillisecond);
    profiler.attach(queue);
    for (int i = 0; i < 300; ++i) {
      const sim::NodeTag tag = tags[static_cast<std::size_t>(i) % 3];
      queue.schedule(i * 37 * sim::kMicrosecond, "test", tag, [] {});
    }
    queue.schedule(1, "test", [] {});  // one unattributed event
    queue.run();
    std::ostringstream os;
    obs::ParallelismProfiler::writeJson(os, profiler.analyze({2, 4, 8, 16}));
    if (round == 0) {
      first = os.str();
      CHECK(!first.empty());
    } else {
      CHECK(os.str() == first);
    }
  }
  return 0;
}

int selfTest() {
  if (int rc = selfTestBalanced()) return rc;
  if (int rc = selfTestCrossNode()) return rc;
  if (int rc = selfTestDeterminism()) return rc;
  std::cout << "vini_profile: self-test OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  if (args[0] == "--self-test") return selfTest();
  if (args[0] != "run") return usage();

  const bool smoke = std::getenv("VINI_SMOKE") != nullptr;
  std::uint64_t seed = 4711;
  int seconds = smoke ? 2 : 10;
  int flows = smoke ? 4 : 8;
  std::string out_path = "PROFILE_report.json";
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](const char* name) -> std::string {
      if (++i >= args.size()) {
        std::cerr << "vini_profile: " << name << " needs a value\n";
        std::exit(2);
      }
      return args[i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(value("--seed").c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atoi(value("--seconds").c_str());
    } else if (arg == "--flows") {
      flows = std::atoi(value("--flows").c_str());
    } else if (arg == "--out") {
      out_path = value("--out");
    } else {
      return usage();
    }
  }

  try {
    return cmdRun(seed, seconds, flows, out_path);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
