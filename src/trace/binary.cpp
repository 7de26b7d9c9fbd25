#include "trace/binary.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace rtec {
namespace trace {

// ---------------------------------------------------------------------------
// Wire primitives. LEB128 varints, zigzag for signed values, and raw
// little-endian f64 — byte shifts only, so the encoding is identical on
// big-endian hosts (pinned by the golden-bytes test in test_rteb.cpp).
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint8_t kKindShift = 5;
constexpr std::uint8_t kFlagMask = 0x1F;

// kFrame flags.
constexpr std::uint8_t kFrameSuccess = 1u << 0;
constexpr std::uint8_t kFrameCollision = 1u << 1;
constexpr std::uint8_t kFrameNewId = 1u << 2;
constexpr std::uint8_t kFrameMeta = 1u << 3;
constexpr std::uint8_t kFramePayload = 1u << 4;

// kAlarm flags.
constexpr std::uint8_t kAlarmUnknownId = 1u << 0;

// kHandoff flags.
constexpr std::uint8_t kHandoffLatency = 1u << 0;
constexpr std::uint8_t kHandoffSeqResidual = 1u << 1;

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(0x80u | (v & 0x7Fu)));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void put_svarint(std::string& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFFu));
}

/// Cursor over one record's payload; all get_* return false on overrun.
struct Cursor {
  const std::uint8_t* p;
  const std::uint8_t* end;

  bool get_u8(std::uint8_t& out) {
    if (p == end) return false;
    out = *p++;
    return true;
  }
  bool get_varint(std::uint64_t& out) {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p == end) return false;
      const std::uint8_t b = *p++;
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) {
        out = v;
        return true;
      }
    }
    return false;  // varint longer than 64 bits
  }
  bool get_svarint(std::int64_t& out) {
    std::uint64_t v = 0;
    if (!get_varint(v)) return false;
    out = unzigzag(v);
    return true;
  }
  bool get_f64(double& out) {
    if (end - p < 8) return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    std::memcpy(&out, &bits, sizeof out);
    return true;
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// RtebWriter
// ---------------------------------------------------------------------------

RtebWriter::RtebWriter(std::uint16_t network) { write_header(network); }

RtebWriter::RtebWriter(const std::string& path, std::uint16_t network) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) io_ok_ = false;
  write_header(network);
}

RtebWriter::~RtebWriter() { finish(); }

void RtebWriter::write_header(std::uint16_t network) {
  for (std::uint8_t b : kRtebMagic) buf_.push_back(static_cast<char>(b));
  buf_.push_back(static_cast<char>(kRtebVersion & 0xFFu));
  buf_.push_back(static_cast<char>(kRtebVersion >> 8));
  buf_.push_back(static_cast<char>(network & 0xFFu));
  buf_.push_back(static_cast<char>(network >> 8));
  buf_.append(4, '\0');
  assert(buf_.size() == kRtebHeaderSize);
}

std::size_t RtebWriter::open_record(RtebKind kind, std::uint8_t flags) {
  const std::size_t at = buf_.size();
  buf_.push_back('\0');  // length, patched by close_record
  buf_.push_back(static_cast<char>(
      (static_cast<std::uint8_t>(kind) << kKindShift) | flags));
  return at;
}

void RtebWriter::close_record(std::size_t at) {
  const std::size_t len = buf_.size() - at - 1;
  assert(len <= 255 && "record overflows u8 length");
  buf_[at] = static_cast<char>(len);
  ++records_;
  if (file_ != nullptr && buf_.size() > 64 * 1024) write_out();
}

void RtebWriter::write_out() {
  if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size())
    io_ok_ = false;
  flushed_ += buf_.size();
  buf_.clear();
}

bool RtebWriter::finish() {
  if (file_ != nullptr) {
    if (!buf_.empty()) write_out();
    if (std::fclose(file_) != 0) io_ok_ = false;
    file_ = nullptr;
  }
  return io_ok_;
}

const std::string& RtebWriter::bytes() const {
  assert(file_ == nullptr && "bytes() is for memory-backed writers");
  return buf_;
}

RtebWriter::IdState* RtebWriter::find_id(std::uint32_t id) {
  const auto it = std::lower_bound(
      ids_.begin(), ids_.end(), id,
      [](const IdState& s, std::uint32_t v) { return s.id < v; });
  if (it != ids_.end() && it->id == id) return &*it;
  return nullptr;
}

RtebWriter::ChannelState& RtebWriter::find_channel(std::uint32_t channel) {
  const auto it = std::lower_bound(
      channels_.begin(), channels_.end(), channel,
      [](const ChannelState& s, std::uint32_t v) { return s.channel < v; });
  if (it != channels_.end() && it->channel == channel) return *it;
  ChannelState st;
  st.channel = channel;
  return *channels_.insert(it, st);
}

/// kFrame payload: id (varint: full identifier when kFrameNewId, else the
/// first-seen-order reference) | time (zigzag varint: residual vs the
/// per-id prediction, or vs the previous record's time for a new id) |
/// [meta: sender u8, format u8 (bit0 extended, bit1 rtr), dlc u8,
/// wire_bits varint, attempt varint] | [payload: dlc bytes]. Meta and
/// payload blocks appear only when they differ from the per-id cache
/// (zero-initialized on first sight, mirrored by the reader).
void RtebWriter::add_frame(const CanBus::FrameEvent& ev) {
  IdState* st = find_id(ev.frame.id);
  const bool new_id = st == nullptr;
  if (new_id) {
    IdState fresh;
    fresh.id = ev.frame.id;
    fresh.order = static_cast<std::uint32_t>(ids_.size());
    const auto it = std::lower_bound(
        ids_.begin(), ids_.end(), ev.frame.id,
        [](const IdState& s, std::uint32_t v) { return s.id < v; });
    st = &*ids_.insert(it, fresh);
  }

  const std::int64_t t = ev.end.ns();
  const std::uint8_t format =
      static_cast<std::uint8_t>((ev.frame.extended ? 1u : 0u) |
                                (ev.frame.rtr ? 2u : 0u));
  const bool meta_changed =
      ev.sender != st->sender || format != st->meta_flags ||
      ev.frame.dlc != st->dlc || ev.wire_bits != st->wire_bits ||
      ev.attempt != st->attempt;
  const bool payload_changed =
      !ev.frame.rtr &&
      !std::equal(ev.frame.data.begin(), ev.frame.data.begin() + ev.frame.dlc,
                  st->payload.begin());

  std::uint8_t flags = 0;
  if (ev.success) flags |= kFrameSuccess;
  if (ev.collision) flags |= kFrameCollision;
  if (new_id) flags |= kFrameNewId;
  if (meta_changed) flags |= kFrameMeta;
  if (payload_changed) flags |= kFramePayload;

  const std::size_t rec = open_record(RtebKind::kFrame, flags);
  if (new_id) {
    put_varint(buf_, ev.frame.id);
    put_svarint(buf_, t - prev_record_t_ns_);
  } else {
    put_varint(buf_, st->order);
    put_svarint(buf_, t - (st->last_t_ns + st->last_delta_ns));
    st->last_delta_ns = t - st->last_t_ns;
  }
  st->last_t_ns = t;
  if (meta_changed) {
    buf_.push_back(static_cast<char>(ev.sender));
    buf_.push_back(static_cast<char>(format));
    buf_.push_back(static_cast<char>(ev.frame.dlc));
    put_varint(buf_, static_cast<std::uint64_t>(ev.wire_bits));
    put_varint(buf_, static_cast<std::uint64_t>(ev.attempt));
    st->sender = ev.sender;
    st->meta_flags = format;
    st->dlc = ev.frame.dlc;
    st->wire_bits = ev.wire_bits;
    st->attempt = ev.attempt;
  }
  if (payload_changed) {
    buf_.append(reinterpret_cast<const char*>(ev.frame.data.data()),
                ev.frame.dlc);
    std::copy(ev.frame.data.begin(), ev.frame.data.begin() + ev.frame.dlc,
              st->payload.begin());
  }
  close_record(rec);
  prev_record_t_ns_ = t;
}

/// kAlarm payload: detector index (varint, into the kDetectorDef table) |
/// time (zigzag varint, delta vs previous record) | id (varint) |
/// score (f64 LE). Flag bit 0 = unknown_id. A kDetectorDef record
/// (payload: the name bytes) interns each detector name before its first
/// alarm.
void RtebWriter::add_alarm(const char* detector, TimePoint at,
                           std::uint32_t id, double score, bool unknown_id) {
  const std::string_view name = detector != nullptr ? detector : "";
  std::size_t index = detectors_.size();
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    if (detectors_[i] == name) {
      index = i;
      break;
    }
  }
  if (index == detectors_.size()) {
    detectors_.emplace_back(name);
    const std::size_t def = open_record(RtebKind::kDetectorDef, 0);
    buf_.append(name.substr(0, 253));  // u8 record length bounds the name
    close_record(def);
  }

  const std::size_t rec =
      open_record(RtebKind::kAlarm, unknown_id ? kAlarmUnknownId : 0u);
  put_varint(buf_, index);
  put_svarint(buf_, at.ns() - prev_record_t_ns_);
  put_varint(buf_, id);
  put_f64(buf_, score);
  close_record(rec);
  prev_record_t_ns_ = at.ns();
}

/// kHandoff payload: channel (varint) | send time (zigzag varint, delta vs
/// previous record) | [latency ns varint, when it differs from the
/// channel's cached latency] | [seq residual (zigzag varint vs the
/// channel's expected next seq), when irregular]. release = send + latency;
/// seq defaults to one past the previous handoff on the channel.
void RtebWriter::add_handoff(TimePoint send, TimePoint release,
                             std::uint32_t channel, std::uint64_t seq) {
  ChannelState& st = find_channel(channel);
  const std::int64_t latency = (release - send).ns();
  const bool latency_changed = latency != st.latency_ns;
  const bool seq_irregular = seq != st.next_seq;

  std::uint8_t flags = 0;
  if (latency_changed) flags |= kHandoffLatency;
  if (seq_irregular) flags |= kHandoffSeqResidual;

  const std::size_t rec = open_record(RtebKind::kHandoff, flags);
  put_varint(buf_, channel);
  put_svarint(buf_, send.ns() - prev_record_t_ns_);
  if (latency_changed) {
    put_svarint(buf_, latency);
    st.latency_ns = latency;
  }
  if (seq_irregular)
    put_svarint(buf_, static_cast<std::int64_t>(seq - st.next_seq));
  st.next_seq = seq + 1;
  close_record(rec);
  prev_record_t_ns_ = send.ns();
}

// ---------------------------------------------------------------------------
// RtebReader
// ---------------------------------------------------------------------------

bool same_record(const RtebRecord& a, const RtebRecord& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case RtebKind::kFrame: {
      const RtebFrame& x = a.frame;
      const RtebFrame& y = b.frame;
      return x.at == y.at && x.frame.id == y.frame.id &&
             x.frame.extended == y.frame.extended &&
             x.frame.rtr == y.frame.rtr && x.frame.dlc == y.frame.dlc &&
             x.frame.data == y.frame.data && x.sender == y.sender &&
             x.success == y.success && x.collision == y.collision &&
             x.wire_bits == y.wire_bits && x.attempt == y.attempt;
    }
    case RtebKind::kAlarm: {
      const RtebAlarm& x = a.alarm;
      const RtebAlarm& y = b.alarm;
      return x.at == y.at && x.detector == y.detector &&
             std::bit_cast<std::uint64_t>(x.score) ==
                 std::bit_cast<std::uint64_t>(y.score) &&
             x.id == y.id && x.unknown_id == y.unknown_id;
    }
    case RtebKind::kHandoff: {
      const RtebHandoff& x = a.handoff;
      const RtebHandoff& y = b.handoff;
      return x.send == y.send && x.release == y.release &&
             x.channel == y.channel && x.seq == y.seq;
    }
    default:
      return false;
  }
}

Expected<RtebReader, std::string> RtebReader::open(std::string_view data) {
  if (data.size() < kRtebHeaderSize)
    return Unexpected{std::string{"truncated header: file smaller than 12 bytes"}};
  for (std::size_t i = 0; i < kRtebMagic.size(); ++i) {
    if (static_cast<std::uint8_t>(data[i]) != kRtebMagic[i])
      return Unexpected{std::string{"bad magic: not an RTEB trace"}};
  }
  const auto u16 = [&data](std::size_t off) {
    return static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(data[off]) |
        (static_cast<std::uint8_t>(data[off + 1]) << 8));
  };
  const std::uint16_t version = u16(4);
  if (version != kRtebVersion)
    return Unexpected{"unsupported RTEB version " + std::to_string(version)};
  return RtebReader{data, version, u16(6)};
}

std::string RtebReader::at_offset(const char* what) const {
  return std::string{what} + " at byte offset " + std::to_string(pos_);
}

const char* RtebReader::decode(RtebRecord& out, bool& end) {
  for (;;) {
    if (pos_ == data_.size()) {
      end = true;
      return nullptr;
    }
    const std::size_t len = static_cast<std::uint8_t>(data_[pos_]);
    if (len == 0) return "zero-length record";
    if (data_.size() - pos_ < 1 + len) return "truncated record";
    Cursor c{reinterpret_cast<const std::uint8_t*>(data_.data()) + pos_ + 1,
             reinterpret_cast<const std::uint8_t*>(data_.data()) + pos_ + 1 +
                 len};
    const std::uint8_t kindflags = *c.p++;
    const std::uint8_t kind = kindflags >> kKindShift;
    const std::uint8_t flags = kindflags & kFlagMask;

    switch (static_cast<RtebKind>(kind)) {
      case RtebKind::kFrame: {
        std::uint64_t idv = 0;
        std::int64_t dt = 0;
        if (!c.get_varint(idv) || !c.get_svarint(dt))
          return "truncated frame record";
        IdState* st = nullptr;
        std::int64_t t = 0;
        if ((flags & kFrameNewId) != 0) {
          if (idv > kMaxExtendedId) return "frame identifier out of range";
          IdState fresh;
          fresh.id = static_cast<std::uint32_t>(idv);
          fresh.last.frame.id = fresh.id;
          fresh.last.frame.extended = false;
          ids_.push_back(fresh);
          st = &ids_.back();
          t = prev_record_t_ns_ + dt;
        } else {
          if (idv >= ids_.size()) return "dangling frame identifier reference";
          st = &ids_[idv];
          t = st->last_t_ns + st->last_delta_ns + dt;
          st->last_delta_ns = t - st->last_t_ns;
        }
        st->last_t_ns = t;
        RtebFrame& f = st->last;
        f.at = TimePoint::from_ns(t);
        f.success = (flags & kFrameSuccess) != 0;
        f.collision = (flags & kFrameCollision) != 0;
        if ((flags & kFrameMeta) != 0) {
          std::uint8_t sender = 0;
          std::uint8_t format = 0;
          std::uint8_t dlc = 0;
          std::uint64_t wire = 0;
          std::uint64_t attempt = 0;
          if (!c.get_u8(sender) || !c.get_u8(format) || !c.get_u8(dlc) ||
              !c.get_varint(wire) || !c.get_varint(attempt))
            return "truncated frame meta block";
          if (dlc > 8) return "frame dlc out of range";
          f.sender = static_cast<NodeId>(sender);
          f.frame.extended = (format & 1u) != 0;
          f.frame.rtr = (format & 2u) != 0;
          f.frame.dlc = dlc;
          f.wire_bits = static_cast<int>(wire);
          f.attempt = static_cast<int>(attempt);
        }
        if ((flags & kFramePayload) != 0) {
          if (c.end - c.p < f.frame.dlc) return "truncated frame payload";
          std::copy(c.p, c.p + f.frame.dlc, f.frame.data.begin());
          c.p += f.frame.dlc;
        }
        out = RtebRecord{f};
        prev_record_t_ns_ = t;
        break;
      }
      case RtebKind::kAlarm: {
        RtebAlarm a;
        std::uint64_t det = 0;
        std::int64_t dt = 0;
        std::uint64_t id = 0;
        if (!c.get_varint(det) || !c.get_svarint(dt) || !c.get_varint(id) ||
            !c.get_f64(a.score))
          return "truncated alarm record";
        if (det >= detectors_.size()) return "dangling detector reference";
        a.detector = detectors_[det];
        a.id = static_cast<std::uint32_t>(id);
        a.unknown_id = (flags & kAlarmUnknownId) != 0;
        prev_record_t_ns_ += dt;
        a.at = TimePoint::from_ns(prev_record_t_ns_);
        out = RtebRecord{a};
        break;
      }
      case RtebKind::kHandoff: {
        RtebHandoff h;
        std::uint64_t channel = 0;
        std::int64_t dt = 0;
        if (!c.get_varint(channel) || !c.get_svarint(dt))
          return "truncated handoff record";
        const auto it = std::lower_bound(
            channels_.begin(), channels_.end(), channel,
            [](const ChannelState& s, std::uint64_t v) { return s.channel < v; });
        ChannelState* st = nullptr;
        if (it != channels_.end() && it->channel == channel) {
          st = &*it;
        } else {
          ChannelState fresh;
          fresh.channel = static_cast<std::uint32_t>(channel);
          st = &*channels_.insert(it, fresh);
        }
        if ((flags & kHandoffLatency) != 0) {
          if (!c.get_svarint(st->latency_ns))
            return "truncated handoff latency";
        } else if (st->latency_ns < 0) {
          return "handoff before its channel latency";
        }
        std::uint64_t seq = st->next_seq;
        if ((flags & kHandoffSeqResidual) != 0) {
          std::int64_t residual = 0;
          if (!c.get_svarint(residual)) return "truncated handoff seq residual";
          seq = st->next_seq + static_cast<std::uint64_t>(residual);
        }
        st->next_seq = seq + 1;
        prev_record_t_ns_ += dt;
        h.channel = static_cast<std::uint32_t>(channel);
        h.seq = seq;
        h.send = TimePoint::from_ns(prev_record_t_ns_);
        h.release = h.send + Duration::nanoseconds(st->latency_ns);
        out = RtebRecord{h};
        break;
      }
      case RtebKind::kDetectorDef: {
        detectors_.emplace_back(reinterpret_cast<const char*>(c.p),
                                static_cast<std::size_t>(c.end - c.p));
        pos_ += 1 + len;
        continue;  // bookkeeping record, not surfaced
      }
      default:
        return "unknown record kind";
    }
    if (c.p > c.end) return "record overran its length";
    pos_ += 1 + len;
    return nullptr;
  }
}

Expected<std::optional<RtebRecord>, std::string> RtebReader::next() {
  RtebRecord rec;
  bool end = false;
  if (const char* defect = decode(rec, end))
    return Unexpected{at_offset(defect)};
  if (end) return std::optional<RtebRecord>{};
  return std::optional<RtebRecord>{rec};
}

std::size_t RtebReader::count_records() const {
  std::size_t n = 0;
  for (std::size_t pos = pos_; pos + 1 < data_.size();) {
    const std::size_t len = static_cast<std::uint8_t>(data_[pos]);
    if (len == 0) break;  // decode() stops here
    const auto kind = static_cast<RtebKind>(
        static_cast<std::uint8_t>(data_[pos + 1]) >> kKindShift);
    if (kind != RtebKind::kDetectorDef) ++n;
    pos += 1 + len;
  }
  return n;
}

Expected<std::vector<RtebRecord>, std::string> RtebReader::read_all() {
  std::vector<RtebRecord> out;
  out.reserve(count_records());
  RtebRecord rec;
  for (bool end = false;;) {
    if (const char* defect = decode(rec, end))
      return Unexpected{at_offset(defect)};
    if (end) return out;
    out.push_back(rec);
  }
}

// ---------------------------------------------------------------------------
// candump interop
// ---------------------------------------------------------------------------

namespace {

/// Calls `fn` on every successful frame record of `rteb`, in stream order.
template <typename Fn>
Expected<void, std::string> for_each_delivery(std::string_view rteb, Fn&& fn) {
  auto reader = RtebReader::open(rteb);
  if (!reader) return Unexpected{reader.error()};
  for (;;) {
    auto r = reader->next();
    if (!r) return Unexpected{r.error()};
    if (!r.value()) return {};
    const RtebRecord& rec = *r.value();
    if (rec.kind == RtebKind::kFrame && rec.frame.success) fn(rec.frame);
  }
}

}  // namespace

Expected<std::string, std::string> rteb_to_candump(
    std::string_view rteb, const std::string& interface_name) {
  // The first pass decodes the stream and sums the exact line lengths, so
  // the second writes every line in place into one buffer allocated once.
  std::size_t size = 0;
  const auto sized = for_each_delivery(rteb, [&](const RtebFrame& f) {
    size += print_candump_line(nullptr, 0, f.frame, f.at, interface_name) + 1;
  });
  if (!sized) return Unexpected{sized.error()};
  std::string out(size, '\0');
  char* at = out.data();
  char* const end = at + size;
  (void)for_each_delivery(rteb, [&](const RtebFrame& f) {
    // The room includes the string's terminator slot, where the last
    // line's NUL lands; every other NUL is overwritten by its newline.
    at += print_candump_line(at, static_cast<std::size_t>(end - at) + 1,
                             f.frame, f.at, interface_name);
    *at++ = '\n';
  });
  assert(at == end);
  return out;
}

std::string rteb_from_candump(const std::string& text, std::uint16_t network,
                              std::size_t* skipped_lines) {
  RtebWriter w{network};
  for (const CandumpEntry& e : parse_candump(text, skipped_lines)) {
    CanBus::FrameEvent ev;
    ev.frame = e.frame;
    ev.end = e.at;
    ev.start = e.at;  // the text format has no SOF time
    ev.success = true;
    ev.attempt = 1;
    w.add_frame(ev);
  }
  return w.bytes();
}

}  // namespace trace
}  // namespace rtec
