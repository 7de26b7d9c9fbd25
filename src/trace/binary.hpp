#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "canbus/bus.hpp"
#include "trace/candump.hpp"
#include "util/expected.hpp"
#include "util/time_types.hpp"

/// \file binary.hpp
/// RTEB — the Real-Time Event channel Binary trace format.
///
/// RTEB is the one way to capture a bus: a city-scale run emits millions
/// of frame events and the trace must be written *while* the simulation
/// runs. It is a versioned, little-endian, length-prefixed record stream
/// covering everything the observability layer sees — frame deliveries
/// (including corrupted attempts and attack collisions, which candump
/// cannot represent), detector alarms, and gateway handoffs — written
/// through a bounded buffer that flushes to the sink incrementally
/// instead of accumulating the run. Candump text is derived from a trace
/// (rteb_to_candump, `rtec_trace to-candump`), never captured beside it.
///
/// Compactness comes from stateful delta coding (all state is replayed
/// deterministically by the reader, nothing is sampled or dropped):
///  * identifiers are interned into a first-seen-order table and encoded
///    as a varint table reference after first sight;
///  * per-identifier frame metadata (sender, format flags, dlc, wire
///    bits, attempt) and payload are cached and re-emitted only when they
///    change — periodic CAN streams repeat them almost always;
///  * record times are coded as a zigzag varint residual against the
///    per-identifier prediction `last time + last period`, which is a
///    1-byte `0` for jitter-free periodic traffic.
/// A steady periodic delivery costs 4 bytes (length, kind/flags, id ref,
/// time residual) against ~43 bytes for its candump text line — the
/// >= 10x size reduction tests/test_rteb.cpp pins on periodic traffic.
///
/// Determinism: the byte stream is a pure function of the record sequence
/// fed to the writer. Scenario::record_rteb gives each recorded network
/// segment one writer, fed by that segment's bus observer in its
/// deterministic execution order, so RTEB files are byte-identical across
/// shard and thread counts (gated at 64 segments x shards {1,2} x threads
/// {1,2,4} in tests/test_multiseg.cpp).
///
/// Wire layout (all integers little-endian; varint = LEB128, zigzag for
/// signed values):
///
///   header   : magic "RTEB" | u16 version (=1) | u16 network | u32 zero
///   record   : u8 length (bytes after this one) | u8 kindflags | payload
///   kindflags: bits 5..7 = kind, bits 0..4 = kind-specific flags
///
/// Record kinds and payloads are documented per encoder below and in
/// docs/observability.md (the normative spec). Truncated files, bad
/// magic/version and unknown kinds are hard reader errors — never a
/// silently shortened trace.
///
/// Decoding is sized by what a trace carries: a decoded record is one
/// tagged union of at most 48 bytes, alarm names are views into the
/// trace's own bytes (decoded records borrow the input, like the reader),
/// read_all allocates its vector once at the exact record count, and
/// rteb_to_candump writes every line in place into one buffer sized to
/// the exact text length before the first line is written.

namespace rtec {
namespace trace {

inline constexpr std::array<std::uint8_t, 4> kRtebMagic{0x52, 0x54, 0x45,
                                                        0x42};  // "RTEB"
inline constexpr std::uint16_t kRtebVersion = 1;
inline constexpr std::size_t kRtebHeaderSize = 12;

/// Record kinds (kindflags bits 5..7).
enum class RtebKind : std::uint8_t {
  kFrame = 1,        ///< one bus occupancy (delivery, error, or collision)
  kAlarm = 2,        ///< one detector alarm
  kHandoff = 3,      ///< one gateway handoff commit
  kDetectorDef = 4,  ///< interns a detector name for kAlarm references
};

/// One decoded frame record — the FrameEvent fields RTEB preserves
/// (`start` is not stored; the bus occupancy is `wire_bits` bit times
/// ending at `at`).
struct RtebFrame {
  TimePoint at;  ///< end-of-frame / error-delimiter time
  CanFrame frame;
  NodeId sender = 0;
  bool success = false;
  bool collision = false;
  int wire_bits = 0;
  int attempt = 0;
};

/// One decoded detector alarm.
struct RtebAlarm {
  TimePoint at;
  /// The detector's name: a view into its kDetectorDef record in the
  /// decoded bytes, valid as long as those bytes are.
  std::string_view detector;
  double score = 0.0;
  std::uint32_t id = 0;
  bool unknown_id = false;
};

/// One decoded gateway handoff commit.
struct RtebHandoff {
  TimePoint send;     ///< source-segment commit time
  TimePoint release;  ///< destination-segment injection stamp
  std::uint32_t channel = 0;
  std::uint64_t seq = 0;
};

/// One decoded record: `kind` names the one member of the union that is
/// live, and reading another is undefined behaviour. kDetectorDef records
/// are consumed internally by the reader and never surfaced.
struct RtebRecord {
  RtebRecord() : frame{} {}
  explicit RtebRecord(const RtebFrame& f) : kind{RtebKind::kFrame}, frame{f} {}
  explicit RtebRecord(const RtebAlarm& a) : kind{RtebKind::kAlarm}, alarm{a} {}
  explicit RtebRecord(const RtebHandoff& h)
      : kind{RtebKind::kHandoff}, handoff{h} {}

  RtebKind kind = RtebKind::kFrame;
  union {
    RtebFrame frame;
    RtebAlarm alarm;
    RtebHandoff handoff;
  };
};
static_assert(sizeof(RtebRecord) <= 48,
              "a decoded record must stay within 48 bytes");

/// Equality of two decoded records, field by field, reading only the
/// member `kind` names (the score bitwise, so a NaN equals itself).
[[nodiscard]] bool same_record(const RtebRecord& a, const RtebRecord& b);

/// Serializes records into the RTEB byte stream, encoding each record in
/// place at the end of its buffer. Memory-backed by default (bytes() holds
/// the whole stream — tests, byte-identity diffs); with a path the writer
/// streams through a bounded buffer flushed to the file, between records,
/// whenever it exceeds ~64 KiB, so capture memory stays O(1) in the run
/// length. To capture a bus, register add_frame as one of its observers.
class RtebWriter {
 public:
  /// Memory-backed writer.
  explicit RtebWriter(std::uint16_t network = 0);
  /// File-backed writer with bounded buffering; io_ok() reports failures.
  RtebWriter(const std::string& path, std::uint16_t network);
  ~RtebWriter();

  RtebWriter(const RtebWriter&) = delete;
  RtebWriter& operator=(const RtebWriter&) = delete;

  void add_frame(const CanBus::FrameEvent& ev);
  void add_alarm(const char* detector, TimePoint at, std::uint32_t id,
                 double score, bool unknown_id);
  void add_handoff(TimePoint send, TimePoint release, std::uint32_t channel,
                   std::uint64_t seq);

  /// Flushes buffered bytes to the file sink (no-op when memory-backed).
  /// Returns io_ok(). Idempotent; the destructor calls it too.
  bool finish();

  /// False after any file write failure (memory-backed: always true).
  [[nodiscard]] bool io_ok() const { return io_ok_; }
  /// The full stream (memory-backed writers only; asserted).
  [[nodiscard]] const std::string& bytes() const;
  /// Bytes emitted so far, header included.
  [[nodiscard]] std::uint64_t bytes_written() const {
    return flushed_ + buf_.size();
  }
  /// Records emitted so far (kDetectorDef bookkeeping records included).
  [[nodiscard]] std::uint64_t records() const { return records_; }

 private:
  struct IdState {
    std::uint32_t id = 0;
    std::uint32_t order = 0;  ///< first-seen index, the on-wire reference
    std::int64_t last_t_ns = 0;
    std::int64_t last_delta_ns = 0;
    NodeId sender = 0;
    std::uint8_t meta_flags = 0;  ///< bit0 extended, bit1 rtr
    std::uint8_t dlc = 0;
    int wire_bits = 0;
    int attempt = 0;
    std::array<std::uint8_t, 8> payload{};
  };
  struct ChannelState {
    std::uint32_t channel = 0;
    std::int64_t latency_ns = -1;
    std::uint64_t next_seq = 0;
  };

  void write_header(std::uint16_t network);
  /// Appends the record's length byte (patched by close_record) and its
  /// kindflags byte; returns the length byte's offset.
  std::size_t open_record(RtebKind kind, std::uint8_t flags);
  /// Patches the length of the record opened at `at` and counts it; a
  /// file-backed writer then flushes a full buffer.
  void close_record(std::size_t at);
  /// Writes the buffer to the file and empties it.
  void write_out();
  IdState* find_id(std::uint32_t id);
  ChannelState& find_channel(std::uint32_t channel);

  std::string buf_;          ///< memory stream, or the bounded file buffer
  std::FILE* file_ = nullptr;
  bool io_ok_ = true;
  std::uint64_t flushed_ = 0;  ///< bytes already written to the file
  std::uint64_t records_ = 0;
  std::int64_t prev_record_t_ns_ = 0;
  std::vector<IdState> ids_;            ///< sorted by id
  std::vector<ChannelState> channels_;  ///< sorted by channel
  std::vector<std::string> detectors_;  ///< interned names, index order
};

/// Decodes an RTEB byte stream. The reader replays the writer's state
/// machine, so decoding is sequential; every structural defect (bad
/// magic, unsupported version, truncated record, unknown kind, dangling
/// reference) is a hard error naming the byte offset.
///
/// The reader and every record it returns borrow the decoded bytes: an
/// alarm's `detector` is a view into them, so it stays valid after the
/// reader is gone, for as long as the bytes are.
class RtebReader {
 public:
  /// Validates the header. The data must outlive the reader and the
  /// records it decodes.
  [[nodiscard]] static Expected<RtebReader, std::string> open(
      std::string_view data);

  [[nodiscard]] std::uint16_t version() const { return version_; }
  [[nodiscard]] std::uint16_t network() const { return network_; }

  /// Next record; std::nullopt at clean end-of-stream, error on damage.
  [[nodiscard]] Expected<std::optional<RtebRecord>, std::string> next();

  /// Decodes the remaining records in one pass. A walk over the length
  /// bytes counts them first, so the vector is allocated once at its
  /// exact size; a damaged stream fails as next() would.
  [[nodiscard]] Expected<std::vector<RtebRecord>, std::string> read_all();

 private:
  struct IdState {
    std::uint32_t id = 0;
    std::int64_t last_t_ns = 0;
    std::int64_t last_delta_ns = 0;
    RtebFrame last;  ///< cached meta + payload
  };
  struct ChannelState {
    std::uint32_t channel = 0;
    std::int64_t latency_ns = -1;
    std::uint64_t next_seq = 0;
  };

  RtebReader(std::string_view data, std::uint16_t version,
             std::uint16_t network)
      : data_{data}, pos_{kRtebHeaderSize}, version_{version},
        network_{network} {}

  /// Decodes the next surfaced record into `out`, or sets `end` at a
  /// clean end of stream. Returns the defect at pos_ on damage, else null.
  [[nodiscard]] const char* decode(RtebRecord& out, bool& end);
  /// Records from pos_ on that decode() would surface, counted from the
  /// length and kind bytes alone; an upper bound on a damaged stream.
  [[nodiscard]] std::size_t count_records() const;
  [[nodiscard]] std::string at_offset(const char* what) const;

  std::string_view data_;
  std::size_t pos_ = 0;
  std::uint16_t version_ = 0;
  std::uint16_t network_ = 0;
  std::int64_t prev_record_t_ns_ = 0;
  std::vector<IdState> ids_;  ///< first-seen order, indexed by reference
  std::vector<ChannelState> channels_;  ///< sorted by channel
  std::vector<std::string_view> detectors_;  ///< names in data_, index order
};

/// Renders the successful frame records of an RTEB stream as candump
/// text (one log line per delivery — corrupted attempts, alarms and
/// handoffs have no candump representation and are omitted, exactly as a
/// real candump never sees them). One decode pass sizes the text exactly,
/// a second writes each line in place; on damage it fails as the reader
/// does.
[[nodiscard]] Expected<std::string, std::string> rteb_to_candump(
    std::string_view rteb, const std::string& interface_name);

/// Encodes a candump log as an RTEB stream of successful deliveries
/// (sender/wire_bits/attempt are not in the text format and encode as 0;
/// attempt as 1). The conversion is lossless in the candump->RTEB->candump
/// direction: every field the text format carries round-trips exactly.
/// `skipped_lines` (optional) receives the malformed-line count from
/// parse_candump.
[[nodiscard]] std::string rteb_from_candump(
    const std::string& text, std::uint16_t network,
    std::size_t* skipped_lines = nullptr);

}  // namespace trace
}  // namespace rtec
