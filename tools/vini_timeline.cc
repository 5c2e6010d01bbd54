// vini_timeline: export and inspect the unified observability timeline.
//
// Runs a canned, fully seeded fig8-style scenario (Abilene mirror, ping
// Washington -> Seattle, Denver-KansasCity failed and restored while
// OSPF reconverges) with span tracing, the control-plane timeline, and
// the metric sampler armed, then exports what they captured:
//
//   vini_timeline export    [--seed N] [--out BASE] [--threads N]
//       BASE.json        Chrome trace-event JSON (Perfetto-loadable)
//       BASE.spans.csv   completed spans in close order
//       BASE.timeline.csv control-plane instants/durations
//       BASE.series.csv  sampled metric series
//   vini_timeline decompose [--seed N] [--trace N]
//       per-hop latency breakdown of one delivered trace (default: the
//       first trace whose root span closed delivered)
//   vini_timeline validate <file.json>
//       parse the JSON and check per-track timestamp monotonicity
//   vini_timeline --self-test
//
// The scenario is deterministic: the same --seed produces byte-identical
// exports, which the CI timeline stage enforces with a double-run diff.
// With --threads N >= 1 the run uses the sharded engine, whose exports are
// byte-identical across every N (the CI shard-determinism stage diffs
// 1 vs multi-thread exports); --threads 0 is the classic serial engine.
// VINI_SMOKE=1 shrinks the run for fast gating.
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/ping.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "packet/ip_address.h"
#include "topo/worlds.h"

namespace {

using namespace vini;

int usage() {
  std::cerr << "usage: vini_timeline export    [--seed N] [--out BASE]"
               " [--threads N]\n"
               "       vini_timeline decompose [--seed N] [--trace N]\n"
               "       vini_timeline validate <file.json>\n"
               "       vini_timeline --self-test\n";
  return 2;
}

// -- Canned scenario ----------------------------------------------------------

struct ScenarioResult {
  std::unique_ptr<topo::World> world;
  std::vector<sim::Duration> rtts;  // app-recorded RTTs, probe order
};

/// Fig8 in miniature: converge, ping across the overlay, fail the
/// Denver-KansasCity virtual link mid-run, restore it, keep pinging.
/// Everything the obs layer captures flows from this one run.
ScenarioResult runScenario(std::uint64_t seed, obs::ScopedObs& scope,
                           int threads = 0) {
  const bool smoke = std::getenv("VINI_SMOKE") != nullptr;
  topo::WorldOptions options;
  options.resources.cpu_reservation = 0.25;
  options.resources.realtime = true;
  options.contention = topo::kPlanetLabContention;
  options.seed = seed;
  options.threads = threads;
  ScenarioResult result;
  result.world = topo::makeAbileneWorld(options);
  topo::World& world = *result.world;
  if (!world.runUntilConverged(180 * sim::kSecond)) {
    throw std::runtime_error("vini_timeline: world did not converge");
  }
  const sim::Time t0 = world.queue.now();

  scope.sampler().setPeriod(sim::kSecond / 2);
  scope.sampler().setOrigin(t0);
  scope.sampler().watch("app.ping", "Washington", "last_rtt_ms",
                        obs::MetricSampler::Mode::kOnChange);
  scope.sampler().watch("app.ping", "Washington", "tx_probes",
                        obs::MetricSampler::Mode::kEveryTick);
  scope.sampler().attach(world.queue);

  app::Pinger::Options popt;
  popt.count = smoke ? 16 : 44;
  popt.flood = false;
  popt.interval = sim::kSecond / 2;
  popt.source = world.tapOf("Washington");
  app::Pinger pinger(world.stack("Washington"), world.tapOf("Seattle"), popt);
  pinger.on_reply = [&result](std::uint64_t, sim::Duration rtt) {
    result.rtts.push_back(rtt);
  };

  const sim::Duration fail_at = (smoke ? 3 : 5) * sim::kSecond;
  const sim::Duration restore_at = (smoke ? 6 : 16) * sim::kSecond;
  const sim::Duration run_for = (smoke ? 9 : 23) * sim::kSecond;
  world.schedule.at(t0 + fail_at, "fail Denver-KansasCity", [&world] {
    world.iias->failLink("Denver", "KansasCity");
  });
  world.schedule.at(t0 + restore_at, "restore Denver-KansasCity", [&world] {
    world.iias->restoreLink("Denver", "KansasCity");
  });
  pinger.start();
  world.queue.runUntil(t0 + run_for);
  scope.sampler().detach();
  return result;
}

int cmdExport(std::uint64_t seed, const std::string& base, int threads) {
  obs::ScopedObs scope;
  ScenarioResult result = runScenario(seed, scope, threads);
  // Sharded runs buffer ordered-stream records per worker lane; fold
  // them back (deterministic merge) before anything reads or exports.
  scope.obs().foldShardLanes();
  {
    std::ofstream out(base + ".json");
    obs::writeChromeTrace(out, scope.spans(), scope.timeline(),
                          scope.sampler());
  }
  {
    std::ofstream out(base + ".spans.csv");
    scope.spans().writeCsv(out);
  }
  {
    std::ofstream out(base + ".timeline.csv");
    scope.timeline().writeCsv(out);
  }
  {
    std::ofstream out(base + ".series.csv");
    scope.sampler().writeCsv(out);
  }
  std::printf("vini_timeline: seed %llu: %llu spans (%llu delivered, "
              "%llu dropped), %zu timeline events, %zu series\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(scope.spans().closed()),
              static_cast<unsigned long long>(scope.spans().closedDelivered()),
              static_cast<unsigned long long>(scope.spans().closedDropped()),
              scope.timeline().events().size(),
              scope.sampler().series().size());
  std::printf("  wrote %s.json, %s.spans.csv, %s.timeline.csv, "
              "%s.series.csv\n",
              base.c_str(), base.c_str(), base.c_str(), base.c_str());
  return 0;
}

int cmdDecompose(std::uint64_t seed, std::uint64_t trace_id) {
  obs::ScopedObs scope;
  ScenarioResult result = runScenario(seed, scope);
  scope.obs().foldShardLanes();
  const obs::SpanTracker& spans = scope.spans();

  if (trace_id == 0) {
    // Default to the first trace whose root closed delivered.
    for (const auto& rec : spans.records()) {
      if (rec.root && rec.outcome == obs::SpanOutcome::kDelivered) {
        trace_id = rec.trace_id;
        break;
      }
    }
    if (trace_id == 0) {
      std::cerr << "vini_timeline: no delivered trace to decompose\n";
      return 1;
    }
  }

  const auto segments = obs::decomposeTrace(spans, trace_id);
  if (segments.empty()) {
    std::cerr << "vini_timeline: trace " << trace_id
              << " has no completed root span\n";
    return 1;
  }
  obs::SpanRecord root;  // copy: traceSpans() returns a temporary
  for (const auto& rec : spans.traceSpans(trace_id)) {
    if (rec.root) {
      root = rec;
      break;
    }
  }

  std::printf("trace %llu: per-hop latency decomposition\n",
              static_cast<unsigned long long>(trace_id));
  std::printf("  %-22s %-14s %-26s %12s %12s\n", "layer", "node", "link",
              "t_start(us)", "dur(us)");
  sim::Duration sum = 0;
  for (const auto& seg : segments) {
    std::printf("  %-22s %-14s %-26s %12.3f %12.3f\n", seg.layer.c_str(),
                seg.node.c_str(), seg.link.c_str(),
                static_cast<double>(seg.t_start) / 1000.0,
                static_cast<double>(seg.dur) / 1000.0);
    sum += seg.dur;
  }
  const sim::Duration e2e = root.duration();
  std::printf("  sum of segments: %.3f us; end-to-end (root span): %.3f us\n",
              static_cast<double>(sum) / 1000.0,
              static_cast<double>(e2e) / 1000.0);
  if (sum != e2e) {
    std::cerr << "vini_timeline: decomposition does not sum to the root\n";
    return 1;
  }
  // The root span must agree with an app-layer latency measurement: for
  // a ping trace, the root covers send -> reply, i.e. one recorded RTT.
  bool matches_app = false;
  for (const sim::Duration rtt : result.rtts) {
    if (rtt == e2e) {
      matches_app = true;
      break;
    }
  }
  if (matches_app) {
    std::printf("  root span matches an app-layer RTT measurement: yes\n");
  } else if (!result.rtts.empty()) {
    std::cerr << "vini_timeline: root span matches no app-layer RTT\n";
    return 1;
  }
  return 0;
}

// -- validate: minimal JSON parser + per-track monotonicity -------------------

/// Parses one JSON document (objects, arrays, strings, numbers, bools,
/// null) and records (tid, ts) for every object directly inside the
/// top-level "traceEvents" array.  Throws std::runtime_error with a
/// byte offset on malformed input.
class JsonValidator {
 public:
  struct Event {
    long long tid = -1;
    double ts = -1.0;
    bool has_tid = false;
    bool has_ts = false;
  };

  explicit JsonValidator(const std::string& text) : s_(text) {}

  std::vector<Event> run() {
    ws();
    value(/*events_depth=*/0);
    ws();
    if (i_ != s_.size()) fail("trailing data");
    return events_;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("invalid JSON at byte " + std::to_string(i_) +
                             ": " + what);
  }

  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                              s_[i_] == '\n' || s_[i_] == '\r')) {
      ++i_;
    }
  }

  char peek() {
    if (i_ >= s_.size()) fail("unexpected end of input");
    return s_[i_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }

  void literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(i_, n, word) != 0) fail("bad literal");
    i_ += n;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      const char c = s_[i_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) fail("unterminated escape");
      const char e = s_[i_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) fail("short \\u escape");
          for (int k = 0; k < 4; ++k) {
            if (!std::isxdigit(static_cast<unsigned char>(s_[i_ + k]))) {
              fail("bad \\u escape");
            }
          }
          i_ += 4;
          out += '?';  // only validity matters here, not the code point
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  double number() {
    const std::size_t start = i_;
    if (peek() == '-') ++i_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_])))
      ++i_;
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (i_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[i_])))
        fail("bad fraction");
      while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_])))
        ++i_;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      if (i_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[i_])))
        fail("bad exponent");
      while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_])))
        ++i_;
    }
    return std::strtod(s_.c_str() + start, nullptr);
  }

  /// events_depth: 0 = outside, 1 = the traceEvents array itself,
  /// 2 = one event object (capture tid/ts), >2 = nested inside one.
  void value(int events_depth) {
    switch (peek()) {
      case '{': object(events_depth); break;
      case '[': array(events_depth); break;
      case '"': string(); break;
      case 't': literal("true"); break;
      case 'f': literal("false"); break;
      case 'n': literal("null"); break;
      default: number(); break;
    }
  }

  void object(int events_depth) {
    expect('{');
    ws();
    Event ev;
    const bool capture = events_depth == 2;
    if (peek() == '}') {
      ++i_;
    } else {
      while (true) {
        ws();
        const std::string key = string();
        ws();
        expect(':');
        ws();
        if (events_depth == 0 && key == "traceEvents" && peek() == '[') {
          array(1);
        } else if (capture && (key == "tid" || key == "ts")) {
          const double v = number();
          if (key == "tid") {
            ev.tid = static_cast<long long>(v);
            ev.has_tid = true;
          } else {
            ev.ts = v;
            ev.has_ts = true;
          }
        } else {
          value(events_depth > 0 ? events_depth + 1 : 0);
        }
        ws();
        if (peek() == ',') {
          ++i_;
          continue;
        }
        expect('}');
        break;
      }
    }
    if (capture) events_.push_back(ev);
  }

  void array(int events_depth) {
    expect('[');
    ws();
    if (peek() == ']') {
      ++i_;
      return;
    }
    while (true) {
      ws();
      value(events_depth > 0 ? events_depth + 1 : 0);
      ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      expect(']');
      return;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
  std::vector<Event> events_;
};

/// Parse and check per-tid timestamp monotonicity; returns a diagnostic
/// count string via stdout, nonzero on any violation.
int validateText(const std::string& text, const std::string& what) {
  std::vector<JsonValidator::Event> events;
  try {
    events = JsonValidator(text).run();
  } catch (const std::exception& e) {
    std::cerr << "vini_timeline: " << what << ": " << e.what() << "\n";
    return 1;
  }
  std::size_t timed = 0;
  std::map<long long, double> last_ts;
  for (const auto& ev : events) {
    if (!ev.has_ts) continue;  // metadata records carry no timestamp
    if (!ev.has_tid) {
      std::cerr << "vini_timeline: " << what << ": timed event without tid\n";
      return 1;
    }
    ++timed;
    auto [it, inserted] = last_ts.emplace(ev.tid, ev.ts);
    if (!inserted) {
      if (ev.ts < it->second) {
        std::cerr << "vini_timeline: " << what << ": timestamps on tid "
                  << ev.tid << " go backwards (" << it->second << " -> "
                  << ev.ts << ")\n";
        return 1;
      }
      it->second = ev.ts;
    }
  }
  std::printf("vini_timeline: %s: valid JSON, %zu events (%zu timed) on "
              "%zu tracks, per-track timestamps monotonic\n",
              what.c_str(), events.size(), timed, last_ts.size());
  return 0;
}

int cmdValidate(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "vini_timeline: cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return validateText(buf.str(), path);
}

// -- Self-test ---------------------------------------------------------------

#define CHECK(cond)                                                         \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::cerr << "vini_timeline: self-test FAILED at " << __FILE__ << ':' \
                << __LINE__ << ": " #cond "\n";                             \
      return 1;                                                             \
    }                                                                       \
  } while (0)

int selfTest() {
  // Span conservation and decomposition on a hand-built trace:
  // root [100, 1100], hops [150,400] and [380,900] (overlapping), so the
  // decomposition must clip the overlap and fill the gaps.
  obs::SpanTracker spans;
  const std::int16_t app = spans.intern("app.ping");
  const std::int16_t link = spans.intern("phys.link");
  const std::int16_t fwd = spans.intern("tcpip.kernel_fwd");
  const std::uint64_t trace = spans.newTraceId();
  CHECK(trace == 1);  // ids are dense from 1

  spans.openRoot(trace, app, 100);
  const std::uint32_t h1 = spans.open(trace, link, 150);
  const std::uint32_t h2 = spans.open(trace, fwd, 380);
  spans.close(h1, 400);
  spans.close(h2, 900);
  spans.closeRoot(trace, 1100, obs::SpanOutcome::kDelivered);
  // The root counts in opened/closed alongside the two hop spans.
  CHECK(spans.opened() == 3 && spans.closed() == 3 && spans.stillOpen() == 0);
  CHECK(spans.rootsOpened() == 1 && spans.rootsClosed() == 1);
  CHECK(spans.rootsStillOpen() == 0);

  const auto segs = obs::decomposeTrace(spans, trace);
  // unattributed [100,150) + link [150,400) + fwd [400,900) +
  // unattributed [900,1100).
  CHECK(segs.size() == 4);
  CHECK(segs[0].layer == "unattributed" && segs[0].dur == 50);
  CHECK(segs[1].layer == "phys.link" && segs[1].dur == 250);
  CHECK(segs[2].layer == "tcpip.kernel_fwd" && segs[2].t_start == 400 &&
        segs[2].dur == 500);
  CHECK(segs[3].layer == "unattributed" && segs[3].dur == 200);
  sim::Duration sum = 0;
  for (const auto& seg : segs) sum += seg.dur;
  CHECK(sum == 1000);  // equals the root duration by construction

  // A second closeRoot is a counted no-op.
  spans.closeRoot(trace, 1200, obs::SpanOutcome::kDropped, spans.intern("x"));
  CHECK(spans.rootsClosed() == 1 && spans.lateRootCloses() == 1);

  // Decomposing an unknown trace returns empty, not garbage.
  CHECK(obs::decomposeTrace(spans, 999).empty());

  // Timeline events intern their names and survive export.
  obs::Timeline timeline;
  timeline.instant("ospf/1.0.0.1", "spf_run", 500);
  timeline.duration("supervisor/Denver/ospf", "down", 600, 300);
  CHECK(timeline.events().size() == 2);
  CHECK(timeline.trackNames().size() == 2 && timeline.labelNames().size() == 2);

  // Sampler: counter series via the advance hook, kOnChange suppression.
  obs::MetricsRegistry registry;
  obs::Counter& tx = registry.counter("app.ping", "W", "tx");
  obs::MetricSampler sampler;
  sampler.bindRegistry(&registry);
  sampler.setPeriod(100);
  sampler.watch("app.ping", "W", "tx", obs::MetricSampler::Mode::kOnChange);
  tx.inc();
  sampler.onAdvance(0, 250);    // boundaries 100, 200: change then no change
  tx.inc();
  sampler.onAdvance(250, 400);  // boundaries 300, 400: change then no change
  const obs::MetricSampler::Series* series =
      sampler.find("app.ping", "W", "tx");
  CHECK(series != nullptr);
  CHECK(series->points.size() == 2);
  CHECK(series->points[0].t == 100 && series->points[0].value == 1.0);
  CHECK(series->points[1].t == 300 && series->points[1].value == 2.0);

  // Export is valid JSON, per-track monotonic, and deterministic.
  std::ostringstream a;
  obs::writeChromeTrace(a, spans, timeline, sampler);
  std::ostringstream b;
  obs::writeChromeTrace(b, spans, timeline, sampler);
  CHECK(a.str() == b.str());
  CHECK(validateText(a.str(), "self-test export") == 0);

  // The validator actually rejects malformed input.
  const char* bad[] = {"{", "{\"a\":}", "[1,]", "{\"a\":1}x", "\"\\q\""};
  for (const char* text : bad) {
    bool failed = false;
    try {
      JsonValidator(std::string(text)).run();
    } catch (const std::runtime_error&) {
      failed = true;
    }
    CHECK(failed);
  }
  // ...and catches timestamp regressions.
  const std::string backwards =
      "{\"traceEvents\":[{\"tid\":1,\"ts\":5.0},{\"tid\":1,\"ts\":4.0}]}";
  CHECK(validateText(backwards, "regression-check") != 0);

  std::cout << "vini_timeline: self-test OK\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  if (args[0] == "--self-test") return selfTest();

  const std::string& cmd = args[0];
  std::uint64_t seed = 811;
  std::uint64_t trace = 0;
  std::string base = "vini_timeline";
  std::string path;
  int threads = 0;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](const char* name) -> std::string {
      if (++i >= args.size()) {
        std::cerr << "vini_timeline: " << name << " needs a value\n";
        std::exit(2);
      }
      return args[i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(value("--seed").c_str(), nullptr, 10);
    } else if (arg == "--out") {
      base = value("--out");
    } else if (arg == "--trace") {
      trace = std::strtoull(value("--trace").c_str(), nullptr, 10);
    } else if (arg == "--threads") {
      threads = static_cast<int>(
          std::strtol(value("--threads").c_str(), nullptr, 10));
      if (threads < 0) {
        std::cerr << "vini_timeline: --threads must be >= 0\n";
        return 2;
      }
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return usage();
    }
  }

  try {
    if (cmd == "export") return cmdExport(seed, base, threads);
    if (cmd == "decompose") return cmdDecompose(seed, trace);
    if (cmd == "validate") {
      if (path.empty()) return usage();
      return cmdValidate(path);
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return usage();
}
