#include "obs/trace.h"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "sim/event_queue.h"

namespace vini::obs {

const char* traceEventName(TraceEvent ev) {
  switch (ev) {
    case TraceEvent::kIngress:
      return "ingress";
    case TraceEvent::kEnqueue:
      return "enqueue";
    case TraceEvent::kQueueDrop:
      return "queue_drop";
    case TraceEvent::kSerializeStart:
      return "serialize_start";
    case TraceEvent::kDeliver:
      return "deliver";
    case TraceEvent::kForwardDecision:
      return "forward_decision";
    case TraceEvent::kLossDrop:
      return "loss_drop";
    case TraceEvent::kDownDrop:
      return "down_drop";
    case TraceEvent::kSocketDrop:
      return "socket_drop";
  }
  return "?";
}

PacketTracer::PacketTracer(std::size_t capacity)
    : capacity_(capacity ? capacity : 1) {}

namespace {

std::int16_t intern(std::vector<std::string>& table, const std::string& name) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i] == name) return static_cast<std::int16_t>(i);
  }
  table.push_back(name);
  return static_cast<std::int16_t>(table.size() - 1);
}

const std::string& lookup(const std::vector<std::string>& table,
                          std::int16_t id) {
  static const std::string kUnknown = "-";
  if (id < 0 || static_cast<std::size_t>(id) >= table.size()) return kUnknown;
  return table[static_cast<std::size_t>(id)];
}

}  // namespace

std::int16_t PacketTracer::internNode(const std::string& name) {
  shard_.assertHeld();
  return intern(node_names_, name);
}

std::int16_t PacketTracer::internLink(const std::string& name) {
  shard_.assertHeld();
  return intern(link_names_, name);
}

const std::string& PacketTracer::nodeName(std::int16_t id) const {
  shard_.assertHeld();
  return lookup(node_names_, id);
}

const std::string& PacketTracer::linkName(std::int16_t id) const {
  shard_.assertHeld();
  return lookup(link_names_, id);
}

void PacketTracer::record(const TraceRecord& rec) {
  if (!lane_records_.empty()) {
    const int lane = sim::EventQueue::currentShardLane();
    if (lane >= 0 && static_cast<std::size_t>(lane) < lane_records_.size()) {
      lane_records_[static_cast<std::size_t>(lane)].push_back(rec);
      return;
    }
  }
  shard_.assertHeld();
  if (records_.size() < capacity_) {
    records_.push_back(rec);
  } else {
    records_[static_cast<std::size_t>(total_ % capacity_)] = rec;
  }
  ++total_;
  ++kind_totals_[static_cast<std::size_t>(rec.event)];
}

void PacketTracer::enableShardLanes(std::size_t lanes) {
  shard_.assertHeld();
  if (!lane_records_.empty()) {
    throw std::logic_error("obs: tracer shard lanes already enabled");
  }
  if (lanes == 0) {
    throw std::logic_error("obs: tracer enableShardLanes() with no lanes");
  }
  lane_records_.resize(lanes);
}

void PacketTracer::foldShardLanes() {
  shard_.assertHeld();
  // Deterministic merge order: (t, lane, within-lane emit order).  Each
  // lane's buffer is already time-sorted (a lane's local clock is
  // monotonic and windows only move forward), so a stable sort on t
  // with the lane index as tie-break reproduces the same byte stream at
  // every thread count.
  struct Cursor {
    std::size_t lane = 0;
    std::size_t i = 0;
  };
  std::vector<Cursor> cursors;
  for (std::size_t l = 0; l < lane_records_.size(); ++l) {
    if (!lane_records_[l].empty()) cursors.push_back(Cursor{l, 0});
  }
  for (;;) {
    Cursor* best = nullptr;
    for (Cursor& c : cursors) {
      if (c.i == lane_records_[c.lane].size()) continue;
      if (best == nullptr ||
          lane_records_[c.lane][c.i].t < lane_records_[best->lane][best->i].t) {
        best = &c;
      }
    }
    if (best == nullptr) break;
    record(lane_records_[best->lane][best->i]);
    ++best->i;
  }
  for (auto& buf : lane_records_) buf.clear();
}

std::vector<TraceRecord> PacketTracer::snapshot() const {
  shard_.assertHeld();
  // Oldest surviving record first: once the ring has wrapped it sits
  // at the next write position.
  const std::size_t n = records_.size();
  const std::size_t start =
      total_ > n ? static_cast<std::size_t>(total_ % capacity_) : 0;
  std::vector<TraceRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(records_[(start + i) % n]);
  return out;
}

void PacketTracer::clear() {
  shard_.assertHeld();
  records_.clear();
  total_ = 0;
  kind_totals_.fill(0);
}

void PacketTracer::writeCsv(std::ostream& os) const {
  shard_.assertHeld();
  os << "t_ns,event,node,link,src,dst,flow,seq,bytes\n";
  for (const TraceRecord& r : snapshot()) {
    os << r.t << "," << traceEventName(r.event) << "," << nodeName(r.node)
       << "," << linkName(r.link) << "," << r.src << "," << r.dst << ","
       << r.flow << "," << r.seq << "," << r.bytes << "\n";
  }
}

namespace {

template <typename T>
void putLe(std::ostream& os, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    os.put(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) &
                             0xff));
  }
}

template <typename T>
T getLe(std::istream& is) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const int c = is.get();
    if (c < 0) throw std::runtime_error("vini_trace: truncated stream");
    v |= static_cast<std::uint64_t>(c & 0xff) << (8 * i);
  }
  return static_cast<T>(v);
}

void putString(std::ostream& os, const std::string& s) {
  putLe<std::uint16_t>(os, static_cast<std::uint16_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string getString(std::istream& is) {
  const auto len = getLe<std::uint16_t>(is);
  std::string s(len, '\0');
  is.read(s.data(), len);
  if (!is) throw std::runtime_error("vini_trace: truncated string table");
  return s;
}

void putNameTable(std::ostream& os, const std::vector<std::string>& table) {
  putLe<std::uint16_t>(os, static_cast<std::uint16_t>(table.size()));
  for (const std::string& s : table) putString(os, s);
}

std::vector<std::string> getNameTable(std::istream& is) {
  const auto n = getLe<std::uint16_t>(is);
  std::vector<std::string> table;
  table.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) table.push_back(getString(is));
  return table;
}

}  // namespace

void PacketTracer::writeBinary(std::ostream& os) const {
  shard_.assertHeld();
  os.write("VTRC", 4);
  putLe<std::uint16_t>(os, kBinaryVersion);
  putLe<std::uint16_t>(os, static_cast<std::uint16_t>(kBinaryRecordSize));
  const auto records = snapshot();
  putLe<std::uint64_t>(os, records.size());
  for (const TraceRecord& r : records) {
    putLe<std::int64_t>(os, r.t);
    os.put(static_cast<char>(r.event));
    putLe<std::int16_t>(os, r.node);
    putLe<std::int16_t>(os, r.link);
    putLe<std::uint32_t>(os, r.src);
    putLe<std::uint32_t>(os, r.dst);
    putLe<std::uint64_t>(os, r.flow);
    putLe<std::uint64_t>(os, r.seq);
    putLe<std::uint32_t>(os, r.bytes);
  }
  putNameTable(os, node_names_);
  putNameTable(os, link_names_);
}

PacketTracer::BinaryDump PacketTracer::readBinary(std::istream& is) {
  char magic[4];
  is.read(magic, 4);
  if (!is || std::string(magic, 4) != "VTRC") {
    throw std::runtime_error("vini_trace: bad magic (not a VTRC file)");
  }
  const auto version = getLe<std::uint16_t>(is);
  if (version != kBinaryVersion) {
    throw std::runtime_error("vini_trace: unsupported version " +
                             std::to_string(version));
  }
  const auto record_size = getLe<std::uint16_t>(is);
  if (record_size != kBinaryRecordSize) {
    throw std::runtime_error("vini_trace: unexpected record size " +
                             std::to_string(record_size));
  }
  const auto count = getLe<std::uint64_t>(is);
  BinaryDump dump;
  dump.records.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.t = getLe<std::int64_t>(is);
    const int ev = is.get();
    if (ev < 0 || static_cast<std::size_t>(ev) >= kTraceEventKinds) {
      throw std::runtime_error("vini_trace: bad event kind");
    }
    r.event = static_cast<TraceEvent>(ev);
    r.node = getLe<std::int16_t>(is);
    r.link = getLe<std::int16_t>(is);
    r.src = getLe<std::uint32_t>(is);
    r.dst = getLe<std::uint32_t>(is);
    r.flow = getLe<std::uint64_t>(is);
    r.seq = getLe<std::uint64_t>(is);
    r.bytes = getLe<std::uint32_t>(is);
    dump.records.push_back(r);
  }
  dump.node_names = getNameTable(is);
  dump.link_names = getNameTable(is);
  return dump;
}

}  // namespace vini::obs
