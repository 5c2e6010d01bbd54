// vini_chaos: seeded chaos campaigns with invariant audits.
//
// Builds one of the ready-made worlds, converges it, then drives it
// through a generated fault storm — links flapping and degrading, nodes
// crashing, routing daemons killed and supervised back to life — and
// audits the chaos invariants (V120-V123, see fault/chaos.h) once the
// storm passes.  Exits nonzero if the world failed to re-converge or
// any invariant was violated, so it can gate CI.
//
// The whole run is seeded: two invocations with the same options print
// byte-identical reports (the CI stage diffs two runs to enforce this).
//
//   vini_chaos [options]
//
// Options:
//   --seed <n>         campaign seed (default 1)
//   --duration <s>     fault-storm length in seconds (default 120)
//   --world <name>     deter | abilene (default abilene)
//   --rip              run RIP alongside OSPF on the overlay
//   --migrate          attach a spare substrate node and let the storm
//                      live-migrate routers onto it (V130-V133 audits)
//   --json <path>      write the migration report JSON (CI artifact)
//   --quiet            print only the PASS/FAIL summary line
//
// VINI_SMOKE=1 in the environment shrinks the run (DETER world, 40 s
// storm) so the CI gate stays fast.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "fault/chaos.h"
#include "obs/obs.h"
#include "topo/worlds.h"

namespace {

void usage(std::ostream& os) {
  os << "usage: vini_chaos [--seed <n>] [--duration <s>]\n"
        "                  [--world deter|abilene] [--rip] [--migrate]\n"
        "                  [--json <path>] [--quiet]\n"
        "\n"
        "Runs a seeded fault campaign against a ready-made world and\n"
        "audits the chaos invariants; exits 1 on any violation.\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  double duration_seconds = 120.0;
  std::string world_name = "abilene";
  bool enable_rip = false;
  bool migrate = false;
  std::string json_path;
  bool quiet = false;

  const bool smoke = std::getenv("VINI_SMOKE") != nullptr;
  if (smoke) {
    world_name = "deter";
    duration_seconds = 40.0;
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--duration" && i + 1 < argc) {
      try {
        duration_seconds = std::stod(argv[++i]);
      } catch (const std::exception&) {
        std::cerr << "vini_chaos: bad --duration value '" << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--world" && i + 1 < argc) {
      world_name = argv[++i];
    } else if (arg == "--rip") {
      enable_rip = true;
    } else if (arg == "--migrate") {
      migrate = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "vini_chaos: unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
  }

  // Install instrumentation before the world exists so every channel
  // registers its counters — the V122 conservation audit needs them.
  vini::obs::ScopedObs obs;

  vini::topo::WorldOptions options;
  options.enable_rip = enable_rip;
  options.seed = seed;
  if (migrate) options.spare_nodes = 1;
  std::unique_ptr<vini::topo::World> world;
  if (world_name == "deter") {
    world = vini::topo::makeDeterWorld(options);
  } else if (world_name == "abilene") {
    world = vini::topo::makeAbileneWorld(options);
  } else {
    std::cerr << "vini_chaos: unknown world '" << world_name
              << "' (expected deter or abilene)\n";
    return 2;
  }

  vini::fault::ChaosOptions chaos;
  chaos.seed = seed;
  chaos.duration_seconds = duration_seconds;
  chaos.model = vini::fault::denseCampaignModel(seed);
  chaos.include_migrations = migrate;

  const vini::fault::ChaosReport report =
      vini::fault::runChaosCampaign(*world, chaos);
  if (!quiet) {
    std::cout << report.format();
  } else {
    std::cout << "vini_chaos: seed " << seed << " "
              << (report.passed() ? "PASS" : "FAIL") << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "vini_chaos: cannot write '" << json_path << "'\n";
      return 2;
    }
    out << (report.migration_json.empty() ? std::string("{\"migrations\":[]}\n")
                                          : report.migration_json);
  }
  return report.passed() ? 0 : 1;
}
