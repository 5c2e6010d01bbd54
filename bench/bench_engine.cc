// Engine throughput benchmark: how fast does the substrate itself run?
//
// Unlike the table/figure benches (which reproduce the paper's numbers),
// this bench measures the *simulator*: it drives the Abilene-11 mirror
// under saturating iperf UDP load — every access NIC offered more
// traffic than it can carry — and reports raw discrete-event engine
// throughput:
//
//   events/sec            executed events per wall-clock second
//   sim-packets/sec       packets clocked onto physical wires per wall second
//   sim/wall ratio        simulated seconds per wall second (>1 = faster
//                         than real time)
//   peak event storage    high-water entries resident in the event queue
//                         (live + cancelled tombstones — the memory the
//                         engine pins)
//   critical path         sharded runs: events on the run's critical
//                         path (EventQueue::criticalPathEvents), and
//                         predicted_speedup = events / critical path,
//                         the ceiling the measured schedule allows
//
// Results go to BENCH_engine.json so every later PR shows a perf
// trajectory; scripts/check.sh runs the smoke mode and CI uploads the
// artifact.  The run is seeded and the *simulation* side is
// deterministic (events, packets, peak storage); only the wall-clock
// readings vary between machines.
//
//   bench_engine [--out FILE] [--seconds N] [--flows N] [--threads LIST]
//                [--baseline FILE]
//   VINI_SMOKE=1 shrinks the run for CI gating.
//
// --threads LIST is a comma-separated sweep of engine worker counts
// (default "0,1,2,4,8"; smoke "0,1,2").  0 is the classic serial engine;
// N >= 1 the sharded engine, whose simulation is byte-identical across
// every N (threads = 1 is its serial reference, so speedup_vs_1t in the
// JSON is a like-for-like parallel speedup).  When the sweep includes a
// threads = 1 run, 4+-thread runs on a >= 6-core machine must clear
// 1.5x its events/s — the parallel-engine payoff gate.
//
// --baseline FILE compares this run's events/s against a checked-in
// BENCH_engine.json from an earlier commit and fails on a >15%
// regression per thread count — the perf-trajectory gate.  Baselines
// written before the queue had a single implementation carry a
// queue_impl per row; only their "heap" rows (the surviving queue)
// count.  Skipped under VINI_SMOKE (smoke runs are too short to be
// stable).
#include <chrono>
#include <cstdio>
#include <thread>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/iperf.h"
#include "bench_common.h"
#include "topo/worlds.h"

using namespace vini;

namespace {

struct RunResult {
  int threads = 0;
  double speedup_vs_1t = 0.0;  // filled post-hoc when a 1-thread run ran
  std::uint64_t events = 0;
  std::uint64_t sim_packets = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t peak_pending = 0;
  std::uint64_t peak_storage = 0;
  std::uint64_t critical_path_events = 0;  // sharded runs only

  double eventsPerSec() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0.0;
  }
  double packetsPerSec() const {
    return wall_seconds > 0 ? static_cast<double>(sim_packets) / wall_seconds
                            : 0.0;
  }
  double simWallRatio() const {
    return wall_seconds > 0 ? sim_seconds / wall_seconds : 0.0;
  }
  double predictedSpeedup() const {
    return critical_path_events > 0 ? static_cast<double>(events) /
                                          static_cast<double>(
                                              critical_path_events)
                                    : 0.0;
  }
};

std::uint64_t totalTxPackets(const topo::World& world) {
  std::uint64_t total = 0;
  for (const auto& link : world.net.links()) {
    total += link->channelFrom(link->nodeA()).stats().tx_packets;
    total += link->channelFrom(link->nodeB()).stats().tx_packets;
  }
  return total;
}

/// One measured run: build the Abilene mirror, converge the overlay (not
/// timed — we measure the steady-state hot path, not setup), then
/// saturate and time it.
RunResult runOnce(int threads, int flows, int seconds) {
  RunResult result;
  result.threads = threads;

  topo::WorldOptions options;
  options.seed = 4711;
  options.contention = 0.0;  // quiescent nodes: the engine is the subject
  options.threads = threads;
  auto world = topo::makeAbileneWorld(options);
  if (!world->runUntilConverged(180 * sim::kSecond)) {
    std::fprintf(stderr, "bench_engine: world did not converge\n");
    std::exit(1);
  }
  const sim::Time t0 = world->queue.now();

  // Saturating load: each flow offers 120 Mb/s of 1430-byte UDP against
  // a 100 Mb/s access NIC, across the backbone in both directions.
  // Every transmit queue on the flow paths stays full, so the engine
  // processes the maximum event rate the topology can generate.
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

  const std::uint64_t events_before = world->queue.executedCount();
  const std::uint64_t critical_before = world->queue.criticalPathEvents();
  const std::uint64_t packets_before = totalTxPackets(*world);
  const auto wall_start = std::chrono::steady_clock::now();
  world->queue.runUntil(t0 + seconds * sim::kSecond);
  const auto wall_end = std::chrono::steady_clock::now();

  result.events = world->queue.executedCount() - events_before;
  if (threads >= 1) {
    result.critical_path_events =
        world->queue.criticalPathEvents() - critical_before;
  }
  result.sim_packets = totalTxPackets(*world) - packets_before;
  result.sim_seconds = sim::toSeconds(seconds * sim::kSecond);
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(wall_end -
                                                                wall_start)
          .count();
  result.peak_pending = world->queue.peakPendingCount();
  result.peak_storage = world->queue.peakStorageCount();
  return result;
}

/// One baseline entry: threads -> events/s.
struct BaselineEntry {
  int threads = 0;
  double events_per_sec = 0.0;
};

/// Extract baseline entries from a BENCH_engine.json this bench itself
/// wrote.  A full JSON parser is overkill for our own fixed format: scan
/// for the keys line by line.  Schema v1 files carry no "threads" key;
/// their entries read as threads = 0 (the classic engine), which is what
/// they measured.  Rows whose queue_impl is not "heap" measured a queue
/// that no longer exists and are skipped.
std::vector<BaselineEntry> parseBaseline(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_engine: cannot open baseline %s\n",
                 path.c_str());
    std::exit(2);
  }
  std::vector<BaselineEntry> result;
  std::string line;
  int threads = 0;
  bool other_queue = false;
  auto fieldTail = [&line](const char* key) -> const char* {
    const std::size_t pos = line.find(key);
    return pos == std::string::npos ? nullptr : line.c_str() + pos +
                                                    std::strlen(key);
  };
  while (std::getline(in, line)) {
    if (const char* v = fieldTail("\"queue_impl\": \"")) {
      other_queue = std::strncmp(v, "heap\"", 5) != 0;
    } else if (const char* v = fieldTail("\"threads\": ")) {
      threads = std::atoi(v);
    } else if (const char* v = fieldTail("\"events_per_sec\": ")) {
      if (!other_queue) result.push_back({threads, std::strtod(v, nullptr)});
      threads = 0;  // the next row starts afresh
      other_queue = false;
    }
  }
  return result;
}

/// The perf-trajectory gate: fail when any thread count's events/s fell
/// more than 15% below the checked-in baseline.
int checkBaseline(const std::string& path, const std::vector<RunResult>& runs) {
  constexpr double kMaxRegression = 0.15;
  const auto baseline = parseBaseline(path);
  int failures = 0;
  for (const RunResult& r : runs) {
    double base = 0.0;
    for (const BaselineEntry& b : baseline) {
      if (b.threads == r.threads) {
        base = b.events_per_sec;
      }
    }
    if (base <= 0.0) {
      std::printf("  perf gate: no baseline entry for threads=%d, skipping\n",
                  r.threads);
      continue;
    }
    const double ratio = r.eventsPerSec() / base;
    std::printf("  perf gate: threads=%d %12.0f events/s vs "
                "baseline %12.0f (%+.1f%%)\n",
                r.threads, r.eventsPerSec(), base, 100.0 * (ratio - 1.0));
    if (ratio < 1.0 - kMaxRegression) {
      std::fprintf(stderr,
                   "bench_engine: PERF REGRESSION: threads=%d "
                   "dropped %.1f%% below baseline (limit %.0f%%)\n",
                   r.threads, 100.0 * (1.0 - ratio),
                   100.0 * kMaxRegression);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

void writeRunJson(std::ofstream& out, const RunResult& r, bool last) {
  // Sharded rows add the measured critical path.
  char critical[160] = "";
  if (r.threads >= 1) {
    std::snprintf(critical, sizeof(critical),
                  ",\n"
                  "      \"critical_path_events\": %llu,\n"
                  "      \"predicted_speedup\": %.3f",
                  static_cast<unsigned long long>(r.critical_path_events),
                  r.predictedSpeedup());
  }
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "    {\n"
      "      \"threads\": %d,\n"
      "      \"events\": %llu,\n"
      "      \"events_per_sec\": %.0f,\n"
      "      \"speedup_vs_1t\": %.3f,\n"
      "      \"sim_packets\": %llu,\n"
      "      \"sim_packets_per_sec\": %.0f,\n"
      "      \"sim_seconds\": %.3f,\n"
      "      \"wall_seconds\": %.6f,\n"
      "      \"sim_wall_ratio\": %.3f,\n"
      "      \"peak_pending_events\": %llu,\n"
      "      \"peak_event_storage\": %llu%s\n"
      "    }%s\n",
      r.threads, static_cast<unsigned long long>(r.events), r.eventsPerSec(),
      r.speedup_vs_1t, static_cast<unsigned long long>(r.sim_packets),
      r.packetsPerSec(), r.sim_seconds, r.wall_seconds, r.simWallRatio(),
      static_cast<unsigned long long>(r.peak_pending),
      static_cast<unsigned long long>(r.peak_storage), critical,
      last ? "" : ",");
  out << buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = std::getenv("VINI_SMOKE") != nullptr;
  std::string out_path = "BENCH_engine.json";
  std::string threads_arg = smoke ? "0,1,2" : "0,1,2,4,8";
  std::string baseline_path;
  int seconds = smoke ? 2 : 10;
  int flows = smoke ? 4 : 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (arg != flag) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_engine: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = value("--out")) {
      out_path = v;
    } else if (const char* v = value("--seconds")) {
      seconds = std::atoi(v);
    } else if (const char* v = value("--flows")) {
      flows = std::atoi(v);
    } else if (const char* v = value("--threads")) {
      threads_arg = v;
    } else if (const char* v = value("--baseline")) {
      baseline_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: bench_engine [--out FILE] [--seconds N] "
                   "[--flows N] [--threads LIST] [--baseline FILE]\n");
      return 2;
    }
  }

  std::vector<int> thread_counts;
  {
    std::stringstream ss(threads_arg);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (tok.empty()) continue;
      const int n = std::atoi(tok.c_str());
      if (n < 0) {
        std::fprintf(stderr, "bench_engine: bad --threads entry '%s'\n",
                     tok.c_str());
        return 2;
      }
      thread_counts.push_back(n);
    }
    if (thread_counts.empty()) {
      std::fprintf(stderr, "bench_engine: empty --threads list\n");
      return 2;
    }
  }

  bench::header("Engine throughput: Abilene-11 under saturating iperf",
                "the substrate itself (ROADMAP item 1)");
  std::vector<RunResult> runs;
  for (const int threads : thread_counts) {
    RunResult r = runOnce(threads, flows, seconds);
    std::printf(
        "\n  threads=%d %9.2f s sim in %6.2f s wall (ratio %6.2f)\n"
        "    events        %12llu   (%.0f events/s)\n"
        "    sim packets   %12llu   (%.0f packets/s)\n"
        "    peak pending  %12llu   peak storage %llu\n",
        r.threads, r.sim_seconds, r.wall_seconds, r.simWallRatio(),
        static_cast<unsigned long long>(r.events), r.eventsPerSec(),
        static_cast<unsigned long long>(r.sim_packets), r.packetsPerSec(),
        static_cast<unsigned long long>(r.peak_pending),
        static_cast<unsigned long long>(r.peak_storage));
    if (r.threads >= 1) {
      std::printf("    critical path %12llu   (predicted speedup %.2fx)\n",
                  static_cast<unsigned long long>(r.critical_path_events),
                  r.predictedSpeedup());
    }
    runs.push_back(std::move(r));
  }

  // Parallel speedup, measured against the 1-thread run — the sharded
  // engine's own serial schedule, so the ratio isolates the parallelism
  // (threads = 0 is a different event order and not a fair
  // denominator).
  for (RunResult& r : runs) {
    if (r.threads < 1) continue;
    for (const RunResult& ref : runs) {
      if (ref.threads == 1 && ref.eventsPerSec() > 0) {
        r.speedup_vs_1t = r.eventsPerSec() / ref.eventsPerSec();
      }
    }
  }

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"engine\",\n"
      << "  \"schema_version\": 2,\n"
      << "  \"topology\": \"abilene-11\",\n"
      << "  \"workload\": \"saturating-udp-iperf\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"flows\": " << flows << ",\n"
      << "  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    writeRunJson(out, runs[i], i + 1 == runs.size());
  }
  out << "  ]\n}\n";
  std::printf("\n  [results written to %s]\n", out_path.c_str());

  // Consistency gate, not a perf gate: the *simulation* must not depend
  // on the thread count.  Sharded runs (threads >= 1) must agree with
  // each other.  (Classic and sharded are different — but each
  // individually deterministic — event orders; see DESIGN.md.)  Wall
  // time and the critical path are the only columns allowed to differ,
  // and one thread runs every event on the critical path.
  const RunResult* ref = nullptr;
  for (const RunResult& r : runs) {
    if (r.threads == 0) continue;
    if (r.threads == 1 && r.critical_path_events != r.events) {
      std::fprintf(stderr,
                   "bench_engine: t1 critical path %llu != %llu events\n",
                   static_cast<unsigned long long>(r.critical_path_events),
                   static_cast<unsigned long long>(r.events));
      return 1;
    }
    if (!ref) {
      ref = &r;
      continue;
    }
    if (r.events != ref->events || r.sim_packets != ref->sim_packets) {
      std::fprintf(stderr,
                   "bench_engine: runs diverged "
                   "(t%d: %llu events / %llu packets, "
                   "t%d: %llu / %llu)\n",
                   ref->threads,
                   static_cast<unsigned long long>(ref->events),
                   static_cast<unsigned long long>(ref->sim_packets),
                   r.threads,
                   static_cast<unsigned long long>(r.events),
                   static_cast<unsigned long long>(r.sim_packets));
      return 1;
    }
  }

  // Measured-vs-predicted: the critical path gives each run's ceiling
  // on its own schedule; landing below half of it flags a scaling
  // problem (barrier overhead, load imbalance, too few cores) without
  // failing the bench — machines differ.
  for (const RunResult& r : runs) {
    if (r.threads < 2 || r.speedup_vs_1t <= 0 || r.predictedSpeedup() <= 0) {
      continue;
    }
    const double frac = r.speedup_vs_1t / r.predictedSpeedup();
    std::printf("  scaling: threads=%d measured %.2fx vs predicted %.2fx "
                "(%.0f%%)\n",
                r.threads, r.speedup_vs_1t, r.predictedSpeedup(),
                100.0 * frac);
    if (frac < 0.5) {
      std::fprintf(stderr,
                   "bench_engine: WARNING: threads=%d reached only %.0f%% "
                   "of the predicted %.2fx speedup\n",
                   r.threads, 100.0 * frac, r.predictedSpeedup());
    }
  }

  // The parallel-engine payoff gate: with 4+ workers on a machine that
  // actually has the cores, the sharded engine must clear 1.5x its own
  // serial (1-thread) schedule, or the parallelism is not paying for its
  // barriers.  Needs both a 1-thread and a 4+-thread run in the sweep.
  if (!smoke && std::thread::hardware_concurrency() >= 6) {
    for (const RunResult& r : runs) {
      if (r.threads >= 4 && r.speedup_vs_1t > 0 && r.speedup_vs_1t < 1.5) {
        std::fprintf(stderr,
                     "bench_engine: SCALING REGRESSION: threads=%d "
                     "speedup %.2fx < 1.5x over the 1-thread run\n",
                     r.threads, r.speedup_vs_1t);
        return 1;
      }
    }
  }

  if (!baseline_path.empty()) {
    if (smoke) {
      std::printf("  perf gate: skipped under VINI_SMOKE "
                  "(smoke runs are not timing-stable)\n");
    } else if (int rc = checkBaseline(baseline_path, runs)) {
      return rc;
    }
  }
  return 0;
}
