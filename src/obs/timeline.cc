#include "obs/timeline.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>

#include "sim/event_queue.h"

namespace vini::obs {

// -- Timeline ---------------------------------------------------------------

Timeline::Timeline(std::size_t capacity) : capacity_(capacity) {}

std::int16_t Timeline::intern(
    std::vector<std::string>& names,
    std::unordered_map<std::string, std::int16_t>& index,
    const std::string& name) {
  shard_.assertHeld();
  if (auto it = index.find(name); it != index.end()) return it->second;
  if (names.size() >= 0x7fff) throw std::length_error("timeline name table full");
  const auto id = static_cast<std::int16_t>(names.size());
  names.push_back(name);
  index.emplace(name, id);
  return id;
}

void Timeline::instant(const std::string& track, const std::string& label,
                       sim::Time t) {
  duration(track, label, t, 0);
}

void Timeline::duration(const std::string& track, const std::string& label,
                        sim::Time t, sim::Duration dur) {
  if (!lane_ops_.empty()) {
    const int lane = sim::EventQueue::currentShardLane();
    if (lane >= 0 && static_cast<std::size_t>(lane) < lane_ops_.size()) {
      lane_ops_[static_cast<std::size_t>(lane)].push_back(
          LaneOp{track, label, t, dur > 0 ? dur : 0});
      return;
    }
  }
  shard_.assertHeld();
  if (events_.size() >= capacity_) {
    ++events_lost_;
    return;
  }
  TimelineEvent ev;
  ev.track = intern(tracks_, track_index_, track);
  ev.label = intern(labels_, label_index_, label);
  ev.t = t;
  ev.dur = dur > 0 ? dur : 0;
  events_.push_back(ev);
}

void Timeline::enableShardLanes(std::size_t lanes) {
  shard_.assertHeld();
  if (!lane_ops_.empty()) {
    throw std::logic_error("obs: timeline shard lanes already enabled");
  }
  if (lanes == 0) {
    throw std::logic_error("obs: timeline enableShardLanes() with no lanes");
  }
  lane_ops_.resize(lanes);
}

void Timeline::foldShardLanes() {
  shard_.assertHeld();
  // Deterministic (t, lane, issue-order) merge; per-lane streams are
  // already time-sorted (lane clocks are monotonic).
  struct Cursor {
    std::size_t lane = 0;
    std::size_t i = 0;
  };
  std::vector<Cursor> cursors;
  for (std::size_t l = 0; l < lane_ops_.size(); ++l) {
    if (!lane_ops_[l].empty()) cursors.push_back(Cursor{l, 0});
  }
  for (;;) {
    Cursor* best = nullptr;
    for (Cursor& c : cursors) {
      if (c.i == lane_ops_[c.lane].size()) continue;
      if (best == nullptr ||
          lane_ops_[c.lane][c.i].t < lane_ops_[best->lane][best->i].t) {
        best = &c;
      }
    }
    if (best == nullptr) break;
    const LaneOp& op = lane_ops_[best->lane][best->i];
    duration(op.track, op.label, op.t, op.dur);
    ++best->i;
  }
  for (auto& buf : lane_ops_) buf.clear();
}

const std::string& Timeline::trackName(std::int16_t id) const {
  shard_.assertHeld();
  static const std::string kNone = "-";
  if (id < 0 || static_cast<std::size_t>(id) >= tracks_.size()) return kNone;
  return tracks_[static_cast<std::size_t>(id)];
}

const std::string& Timeline::labelName(std::int16_t id) const {
  shard_.assertHeld();
  static const std::string kNone = "-";
  if (id < 0 || static_cast<std::size_t>(id) >= labels_.size()) return kNone;
  return labels_[static_cast<std::size_t>(id)];
}

void Timeline::writeCsv(std::ostream& os) const {
  shard_.assertHeld();
  os << "track,label,t_ns,dur_ns\n";
  for (const auto& ev : events_) {
    os << trackName(ev.track) << ',' << labelName(ev.label) << ',' << ev.t
       << ',' << ev.dur << '\n';
  }
}

void Timeline::clear() {
  shard_.assertHeld();
  events_lost_ = 0;
  tracks_.clear();
  labels_.clear();
  track_index_.clear();
  label_index_.clear();
  events_.clear();
}

// -- MetricSampler ----------------------------------------------------------

void MetricSampler::watch(const std::string& component,
                          const std::string& node, const std::string& name,
                          Mode mode) {
  shard_.assertHeld();
  Series s;
  s.key = MetricKey{component, node, name};
  s.mode = mode;
  series_.push_back(std::move(s));
  watch_state_.emplace_back();
}

void MetricSampler::attach(sim::EventQueue& queue) {
  shard_.assertHeld();
  attached_queue_ = &queue;
  queue.setAdvanceObserver(
      [this](sim::Time from, sim::Time to) { onAdvance(from, to); });
}

void MetricSampler::detach() {
  shard_.assertHeld();
  if (attached_queue_ == nullptr) return;
  attached_queue_->setAdvanceObserver(nullptr);
  attached_queue_ = nullptr;
}

void MetricSampler::onAdvance(sim::Time from, sim::Time to) {
  shard_.assertHeld();
  if (period_ <= 0 || registry_ == nullptr || series_.empty()) return;
  // First boundary origin + k*period strictly after `from`, then every
  // boundary up to and including `to`.
  sim::Time t;
  if (from < origin_) {
    t = origin_;
  } else {
    const sim::Time k = (from - origin_) / period_ + 1;
    t = origin_ + k * period_;
  }
  for (; t <= to; t += period_) sampleAt(t);
}

void MetricSampler::sampleAt(sim::Time t) {
  shard_.assertHeld();
  for (std::size_t i = 0; i < series_.size(); ++i) {
    Series& s = series_[i];
    Watch& w = watch_state_[i];
    if (const Counter* c = registry_->findCounter(s.key.component, s.key.node,
                                                  s.key.name)) {
      const std::uint64_t v = c->value();
      // A counter is "written" iff its value moved (it is monotonic).
      if (s.mode == Mode::kEveryTick || v != w.last_counter) {
        s.points.push_back(Point{t, static_cast<double>(v)});
      }
      w.last_counter = v;
    } else if (const Gauge* g = registry_->findGauge(s.key.component,
                                                     s.key.node, s.key.name)) {
      // The version counter distinguishes "re-set to the same value"
      // (emit) from "untouched since last sample" (suppress); a gauge
      // never written at all (version 0) emits nothing in kOnChange.
      if (s.mode == Mode::kEveryTick || g->version() != w.last_gauge_version) {
        s.points.push_back(Point{t, g->value()});
      }
      w.last_gauge_version = g->version();
    }
    // Unresolved key: the metric may be registered later; no point yet.
  }
}

const MetricSampler::Series* MetricSampler::find(
    const std::string& component, const std::string& node,
    const std::string& name) const {
  shard_.assertHeld();
  for (const auto& s : series_) {
    if (s.key.component == component && s.key.node == node &&
        s.key.name == name) {
      return &s;
    }
  }
  return nullptr;
}

void MetricSampler::writeCsv(std::ostream& os) const {
  shard_.assertHeld();
  os << "component,node,name,t_ns,value\n";
  char buf[32];
  for (const auto& s : series_) {
    for (const auto& p : s.points) {
      std::snprintf(buf, sizeof(buf), "%.6g", p.value);
      os << s.key.component << ',' << s.key.node << ',' << s.key.name << ','
         << p.t << ',' << buf << '\n';
    }
  }
}

void MetricSampler::clear() {
  shard_.assertHeld();
  for (auto& s : series_) s.points.clear();
  for (auto& w : watch_state_) w = Watch{};
}

// -- Chrome trace-event export ----------------------------------------------

namespace {

void jsonEscape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

/// Virtual-time nanoseconds as fixed-format microseconds ("12.345").
void putMicros(std::ostream& os, sim::Time ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  os << buf;
}

struct JsonEvent {
  int tid = 0;
  sim::Time ts = 0;
  sim::Duration dur = -1;  // >= 0 => "X" complete event
  char ph = 'i';
  std::string name;
  std::string args;  // pre-rendered JSON object, or empty
};

void writeEvent(std::ostream& os, const JsonEvent& ev, bool* first) {
  if (!*first) os << ",\n";
  *first = false;
  os << "{\"name\":\"";
  jsonEscape(os, ev.name);
  os << "\",\"ph\":\"" << (ev.dur >= 0 ? 'X' : ev.ph)
     << "\",\"pid\":1,\"tid\":" << ev.tid << ",\"ts\":";
  putMicros(os, ev.ts);
  if (ev.dur >= 0) {
    os << ",\"dur\":";
    putMicros(os, ev.dur);
  }
  if (ev.ph == 'i' && ev.dur < 0) os << ",\"s\":\"t\"";
  if (!ev.args.empty()) os << ",\"args\":" << ev.args;
  os << "}";
}

void writeThreadName(std::ostream& os, int tid, const std::string& name,
                     bool* first) {
  if (!*first) os << ",\n";
  *first = false;
  os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
     << ",\"args\":{\"name\":\"";
  jsonEscape(os, name);
  os << "\"}}";
}

}  // namespace

void writeChromeTrace(std::ostream& os, const SpanTracker& spans,
                      const Timeline& timeline, const MetricSampler& sampler) {
  // Assign tids: span layers first (sorted by layer name), then timeline
  // tracks, then one per sampled series.  Sorted assignment keeps the
  // numbering independent of interning order.
  std::map<std::string, int> span_tids;
  for (const auto& rec : spans.records()) {
    span_tids.emplace("span/" + spans.name(rec.layer), 0);
  }
  int next_tid = 1;
  for (auto& [name, tid] : span_tids) tid = next_tid++;

  std::map<std::string, int> track_tids;
  for (const auto& name : timeline.trackNames()) track_tids.emplace(name, 0);
  for (auto& [name, tid] : track_tids) tid = next_tid++;

  std::map<std::string, int> series_tids;
  for (const auto& s : sampler.series()) series_tids.emplace(s.key.str(), 0);
  for (auto& [name, tid] : series_tids) tid = next_tid++;

  std::vector<JsonEvent> events;
  events.reserve(spans.records().size() + timeline.events().size());

  for (const auto& rec : spans.records()) {
    JsonEvent ev;
    ev.tid = span_tids.at("span/" + spans.name(rec.layer));
    ev.ts = rec.t_open;
    ev.dur = rec.duration();
    ev.name = spans.name(rec.layer);
    std::string args = "{\"trace_id\":" + std::to_string(rec.trace_id);
    if (rec.node >= 0) args += ",\"node\":\"" + spans.name(rec.node) + "\"";
    if (rec.link >= 0) args += ",\"link\":\"" + spans.name(rec.link) + "\"";
    args += std::string(",\"outcome\":\"") + spanOutcomeName(rec.outcome) +
            "\"";
    if (rec.reason >= 0) args += ",\"reason\":\"" + spans.name(rec.reason) + "\"";
    if (rec.root) args += ",\"root\":1";
    args += "}";
    ev.args = std::move(args);
    events.push_back(std::move(ev));
  }

  for (const auto& tev : timeline.events()) {
    JsonEvent ev;
    ev.tid = track_tids.at(timeline.trackName(tev.track));
    ev.ts = tev.t;
    ev.dur = tev.dur > 0 ? tev.dur : -1;
    ev.name = timeline.labelName(tev.label);
    events.push_back(std::move(ev));
  }

  for (const auto& s : sampler.series()) {
    const int tid = series_tids.at(s.key.str());
    for (const auto& p : s.points) {
      JsonEvent ev;
      ev.tid = tid;
      ev.ts = p.t;
      ev.ph = 'C';
      ev.name = s.key.str();
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", p.value);
      ev.args = std::string("{\"value\":") + buf + "}";
      events.push_back(std::move(ev));
    }
  }

  // Per-track monotonic timestamps; stable so equal (tid, ts) keep
  // record order.
  std::stable_sort(events.begin(), events.end(),
                   [](const JsonEvent& a, const JsonEvent& b) {
                     if (a.tid != b.tid) return a.tid < b.tid;
                     return a.ts < b.ts;
                   });

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [name, tid] : span_tids) writeThreadName(os, tid, name, &first);
  for (const auto& [name, tid] : track_tids) writeThreadName(os, tid, name, &first);
  for (const auto& [name, tid] : series_tids) writeThreadName(os, tid, name, &first);
  for (const auto& ev : events) writeEvent(os, ev, &first);
  os << "\n]}\n";
}

// -- Per-hop decomposition --------------------------------------------------

std::vector<HopSegment> decomposeTrace(const SpanTracker& spans,
                                       std::uint64_t trace_id) {
  const std::vector<SpanRecord> all = spans.traceSpans(trace_id);
  const SpanRecord* root = nullptr;
  for (const auto& rec : all) {
    if (rec.root) {
      root = &rec;
      break;
    }
  }
  std::vector<HopSegment> out;
  if (root == nullptr) return out;

  const sim::Time t_end = root->t_close;
  sim::Time cursor = root->t_open;
  auto gapUntil = [&](sim::Time t) {
    if (t > cursor) {
      out.push_back(HopSegment{"unattributed", "", "", cursor, t - cursor});
      cursor = t;
    }
  };

  // Hop spans in t_open order, clipped to [root.t_open, root.t_close]
  // and to the part not already attributed — overlapping spans (a layer
  // span enclosing a link span) attribute the overlap to the
  // earlier-starting span.
  for (const auto& rec : all) {
    if (rec.root) continue;
    const sim::Time start = std::max(rec.t_open, cursor);
    const sim::Time end = std::min(rec.t_close, t_end);
    if (end <= start) continue;
    gapUntil(start);
    out.push_back(HopSegment{spans.name(rec.layer), spans.name(rec.node),
                             spans.name(rec.link), start, end - start});
    cursor = end;
  }
  gapUntil(t_end);
  return out;
}

}  // namespace vini::obs
