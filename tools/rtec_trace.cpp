#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "tool_io.hpp"
#include "trace/binary.hpp"

/// \file rtec_trace.cpp
/// rtec_trace — inspect, convert and compare RTEB binary traces
/// (trace/binary.hpp; format spec in docs/observability.md).
///
///   rtec_trace inspect <trace.rteb>            one line per record
///   rtec_trace stats <trace.rteb>              aggregate summary
///   rtec_trace to-candump <trace.rteb> [iface] candump text on stdout
///   rtec_trace from-candump <log> [network]    RTEB stream on stdout
///   rtec_trace diff <a.rteb> <b.rteb>          first divergent record
///
/// diff compares decoded records field by field (trace::same_record) and
/// prints the first pair that differs.
///
/// Exit codes follow the repo's CLI convention: 0 success, 1 a
/// content-level failure (corrupt trace, traces differ), 2 usage / I/O.
/// Every record a trace contains is decoded — a structural defect aborts
/// with the reader's byte-offset diagnostic instead of a shortened
/// listing.

namespace {

using rtec::trace::RtebReader;
using rtec::trace::RtebRecord;

int usage() {
  std::fprintf(stderr,
               "usage: rtec_trace inspect <trace.rteb>\n"
               "       rtec_trace stats <trace.rteb>\n"
               "       rtec_trace to-candump <trace.rteb> [iface]\n"
               "       rtec_trace from-candump <candump.log> [network]\n"
               "       rtec_trace diff <a.rteb> <b.rteb>\n");
  return 2;
}

/// printf onto the end of `out`, at whatever length the text has.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt,
                                           ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
}

/// Renders one decoded record as a stable single line (inspect and diff
/// share it, so diff messages look like inspect output).
std::string format_record(const RtebRecord& r) {
  std::string line;
  switch (r.kind) {
    case rtec::trace::RtebKind::kFrame: {
      const auto& f = r.frame;
      appendf(line, "frame t=%" PRId64 "ns id=0x%X%s sender=%u dlc=%u data=",
              f.at.ns(), f.frame.id, f.frame.extended ? "x" : "",
              static_cast<unsigned>(f.sender),
              static_cast<unsigned>(f.frame.dlc));
      if (f.frame.rtr) {
        line += 'R';
      } else {
        for (std::uint8_t i = 0; i < f.frame.dlc; ++i)
          appendf(line, "%02X", f.frame.data[i]);
      }
      appendf(line, " %s%s wire_bits=%d attempt=%d",
              f.success ? "ok" : "error", f.collision ? " collision" : "",
              f.wire_bits, f.attempt);
      return line;
    }
    case rtec::trace::RtebKind::kAlarm: {
      const auto& a = r.alarm;
      appendf(line, "alarm t=%" PRId64 "ns detector=%.*s id=0x%X score=%.17g%s",
              a.at.ns(), static_cast<int>(a.detector.size()),
              a.detector.data(), a.id, a.score,
              a.unknown_id ? " unknown-id" : "");
      return line;
    }
    case rtec::trace::RtebKind::kHandoff: {
      const auto& h = r.handoff;
      appendf(line,
              "handoff send=%" PRId64 "ns release=%" PRId64
              "ns channel=%u seq=%" PRIu64,
              h.send.ns(), h.release.ns(), h.channel, h.seq);
      return line;
    }
    default: return "unknown";
  }
}

int fail_reader(const std::string& path, const std::string& error) {
  std::fprintf(stderr, "rtec_trace: %s: %s\n", path.c_str(), error.c_str());
  return 1;
}

int cmd_inspect(const std::string& path, const std::string& data) {
  auto reader = RtebReader::open(data);
  if (!reader) return fail_reader(path, reader.error());
  std::printf("RTEB v%u network=%u %zu bytes\n", reader->version(),
              reader->network(), data.size());
  std::uint64_t i = 0;
  for (;;) {
    auto rec = reader->next();
    if (!rec) return fail_reader(path, rec.error());
    if (!rec->has_value()) break;
    std::printf("[%" PRIu64 "] %s\n", i++, format_record(**rec).c_str());
  }
  std::printf("%" PRIu64 " record(s)\n", i);
  return 0;
}

int cmd_stats(const std::string& path, const std::string& data) {
  auto reader = RtebReader::open(data);
  if (!reader) return fail_reader(path, reader.error());
  std::uint64_t records = 0, frames = 0, ok = 0, errors = 0, collisions = 0;
  std::uint64_t alarms = 0, unknown_id = 0, handoffs = 0;
  std::set<std::uint32_t> ids, channels;
  std::set<std::string_view> detectors;  // views into `data`
  std::int64_t t_min = 0, t_max = 0;
  bool any_time = false;
  for (;;) {
    auto rec = reader->next();
    if (!rec) return fail_reader(path, rec.error());
    if (!rec->has_value()) break;
    const RtebRecord& r = **rec;
    ++records;
    std::int64_t t = 0;
    switch (r.kind) {
      case rtec::trace::RtebKind::kFrame:
        ++frames;
        if (r.frame.success) ++ok; else ++errors;
        if (r.frame.collision) ++collisions;
        ids.insert(r.frame.frame.id);
        t = r.frame.at.ns();
        break;
      case rtec::trace::RtebKind::kAlarm:
        ++alarms;
        if (r.alarm.unknown_id) ++unknown_id;
        detectors.insert(r.alarm.detector);
        t = r.alarm.at.ns();
        break;
      default:
        ++handoffs;
        channels.insert(r.handoff.channel);
        t = r.handoff.send.ns();
        break;
    }
    if (!any_time || t < t_min) t_min = t;
    if (!any_time || t > t_max) t_max = t;
    any_time = true;
  }
  std::printf("RTEB v%u network=%u\n", reader->version(), reader->network());
  std::printf("bytes: %zu, records: %" PRIu64 ", bytes/record: %.2f\n",
              data.size(), records,
              records > 0 ? static_cast<double>(data.size()) /
                                static_cast<double>(records)
                          : 0.0);
  std::printf("frames: %" PRIu64 " (ok %" PRIu64 ", error %" PRIu64
              ", collision %" PRIu64 "), unique ids: %zu\n",
              frames, ok, errors, collisions, ids.size());
  std::printf("alarms: %" PRIu64 " (unknown-id %" PRIu64
              ", detectors: %zu)\n",
              alarms, unknown_id, detectors.size());
  std::printf("handoffs: %" PRIu64 " (channels: %zu)\n", handoffs,
              channels.size());
  if (any_time)
    std::printf("span: %" PRId64 "ns .. %" PRId64 "ns\n", t_min, t_max);
  return 0;
}

int cmd_to_candump(const std::string& path, const std::string& data,
                   const std::string& iface) {
  const auto text = rtec::trace::rteb_to_candump(data, iface);
  if (!text) return fail_reader(path, text.error());
  std::fwrite(text->data(), 1, text->size(), stdout);
  return 0;
}

int cmd_from_candump(const std::string& text, std::uint16_t network) {
  std::size_t skipped = 0;
  const std::string rteb = rtec::trace::rteb_from_candump(text, network,
                                                          &skipped);
  if (skipped > 0)
    std::fprintf(stderr, "rtec_trace: skipped %zu malformed line(s)\n",
                 skipped);
  std::fwrite(rteb.data(), 1, rteb.size(), stdout);
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& data_a,
             const std::string& path_b, const std::string& data_b) {
  auto a = RtebReader::open(data_a);
  if (!a) return fail_reader(path_a, a.error());
  auto b = RtebReader::open(data_b);
  if (!b) return fail_reader(path_b, b.error());
  std::uint64_t i = 0;
  for (;; ++i) {
    auto ra = a->next();
    if (!ra) return fail_reader(path_a, ra.error());
    auto rb = b->next();
    if (!rb) return fail_reader(path_b, rb.error());
    const bool ea = !ra->has_value();
    const bool eb = !rb->has_value();
    if (ea && eb) break;
    if (ea != eb) {
      std::printf("traces diverge at record %" PRIu64 ": %s ends, %s has %s\n",
                  i, (ea ? path_a : path_b).c_str(),
                  (ea ? path_b : path_a).c_str(),
                  format_record(ea ? **rb : **ra).c_str());
      return 1;
    }
    if (!rtec::trace::same_record(**ra, **rb)) {
      std::printf("traces diverge at record %" PRIu64 ":\n  a: %s\n  b: %s\n",
                  i, format_record(**ra).c_str(), format_record(**rb).c_str());
      return 1;
    }
  }
  std::printf("identical: %" PRIu64 " record(s)\n", i);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string cmd = argv[1];
  std::string error;
  const auto input = rtec::tools::slurp_file(argv[2], error);
  if (!input) {
    std::fprintf(stderr, "rtec_trace: %s\n", error.c_str());
    return 2;
  }
  if (cmd == "inspect" && argc == 3) return cmd_inspect(argv[2], *input);
  if (cmd == "stats" && argc == 3) return cmd_stats(argv[2], *input);
  if (cmd == "to-candump" && (argc == 3 || argc == 4))
    return cmd_to_candump(argv[2], *input, argc == 4 ? argv[3] : "can0");
  if (cmd == "from-candump" && (argc == 3 || argc == 4)) {
    long network = 0;
    if (argc == 4) {
      char* end = nullptr;
      network = std::strtol(argv[3], &end, 10);
      if (end == argv[3] || *end != '\0' || network < 0 || network > 0xFFFF)
        return usage();
    }
    return cmd_from_candump(*input, static_cast<std::uint16_t>(network));
  }
  if (cmd == "diff" && argc == 4) {
    const auto other = rtec::tools::slurp_file(argv[3], error);
    if (!other) {
      std::fprintf(stderr, "rtec_trace: %s\n", error.c_str());
      return 2;
    }
    return cmd_diff(argv[2], *input, argv[3], *other);
  }
  return usage();
}
