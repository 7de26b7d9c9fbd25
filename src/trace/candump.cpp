#include "trace/candump.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "sim/simulator.hpp"

namespace rtec {

std::size_t print_candump_line(char* out, std::size_t room,
                               const CanFrame& frame, TimePoint at,
                               std::string_view interface_name) {
  constexpr char kHex[] = "0123456789ABCDEF";
  char data[17] = "R";
  if (!frame.rtr) {
    for (std::size_t i = 0; i < frame.dlc; ++i) {
      data[2 * i] = kHex[frame.data[i] >> 4];
      data[2 * i + 1] = kHex[frame.data[i] & 0xFu];
    }
    data[2 * frame.dlc] = '\0';
  }
  const int n = std::snprintf(
      out, room, "(%lld.%06lld) %.*s %0*X#%s",
      static_cast<long long>(at.ns() / 1'000'000'000),
      static_cast<long long>(at.ns() % 1'000'000'000 / 1000),
      static_cast<int>(interface_name.size()), interface_name.data(),
      frame.extended ? 8 : 3, frame.id, data);
  return static_cast<std::size_t>(n);
}

std::string format_candump_line(const CanFrame& frame, TimePoint at,
                                const std::string& interface_name) {
  std::string line(print_candump_line(nullptr, 0, frame, at, interface_name),
                   '\0');
  print_candump_line(line.data(), line.size() + 1, frame, at, interface_name);
  return line;
}

namespace {

/// Largest candump seconds field whose stamp, with any micros field up to
/// 999'999, still fits a signed 64-bit nanosecond count.
constexpr long long kMaxCandumpSecs = 9'223'372'035;

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool parse_hex(const std::string& s, std::uint32_t& out) {
  if (s.empty() || s.size() > 8) return false;
  std::uint32_t v = 0;
  for (char c : s) {
    const int d = hex_value(c);
    if (d < 0) return false;
    v = (v << 4) | static_cast<std::uint32_t>(d);
  }
  out = v;
  return true;
}

}  // namespace

std::vector<CandumpEntry> parse_candump(const std::string& text,
                                        std::size_t* skipped_lines) {
  std::vector<CandumpEntry> out;
  std::size_t skipped = 0;
  std::istringstream in{text};
  std::string line;
  // `skip` marks the current line malformed; blank lines fall through
  // without being counted.
  const auto skip = [&skipped] {
    ++skipped;
    return false;
  };
  const auto parse_line = [&](const std::string& l) {
    // "(secs.micros) iface ID#DATA"
    std::istringstream ls{l};
    std::string ts;
    std::string iface;
    std::string frame_str;
    if (!(ls >> ts)) return true;  // blank line
    if (!(ls >> iface >> frame_str)) return skip();
    if (ts.size() < 3 || ts.front() != '(' || ts.back() != ')') return skip();

    long long secs = 0;
    long long micros = 0;
    if (std::sscanf(ts.c_str(), "(%lld.%lld)", &secs, &micros) != 2)
      return skip();
    // Range-check before scaling to ns: an outside capture may hold any
    // value, and the product must fit the signed 64-bit TimePoint.
    if (secs < 0 || secs > kMaxCandumpSecs || micros < 0 || micros > 999'999)
      return skip();

    const std::size_t hash = frame_str.find('#');
    if (hash == std::string::npos) return skip();
    const std::string id_str = frame_str.substr(0, hash);
    const std::string data_str = frame_str.substr(hash + 1);

    CandumpEntry entry;
    entry.at = TimePoint::from_ns(secs * 1'000'000'000 + micros * 1000);
    if (!parse_hex(id_str, entry.frame.id)) return skip();
    entry.frame.extended = id_str.size() > 3;
    if (entry.frame.extended && entry.frame.id > kMaxExtendedId) return skip();
    if (!entry.frame.extended && entry.frame.id > kMaxBaseId) return skip();

    if (!data_str.empty() && (data_str[0] == 'R' || data_str[0] == 'r')) {
      entry.frame.rtr = true;
      entry.frame.dlc = 0;
    } else {
      if (data_str.size() % 2 != 0 || data_str.size() > 16) return skip();
      entry.frame.dlc = static_cast<std::uint8_t>(data_str.size() / 2);
      for (int i = 0; i < entry.frame.dlc; ++i) {
        const int hi = hex_value(data_str[static_cast<std::size_t>(2 * i)]);
        const int lo = hex_value(data_str[static_cast<std::size_t>(2 * i + 1)]);
        if (hi < 0 || lo < 0) return skip();
        entry.frame.data[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>((hi << 4) | lo);
      }
    }
    out.push_back(entry);
    return true;
  };
  while (std::getline(in, line)) parse_line(line);
  if (skipped_lines != nullptr) *skipped_lines = skipped;
  return out;
}

std::size_t replay_candump(Simulator& sim, CanController& controller,
                           const std::vector<CandumpEntry>& entries,
                           TimePoint start) {
  if (entries.empty()) return 0;
  const TimePoint base = entries.front().at;
  std::size_t scheduled = 0;
  for (const CandumpEntry& entry : entries) {
    const TimePoint at = start + (entry.at - base);
    if (at < sim.now()) continue;
    const CanFrame frame = entry.frame;
    CanController* ctl = &controller;
    sim.schedule_at(at, [ctl, frame] {
      (void)ctl->submit(frame, TxMode::kAutoRetransmit);
    });
    ++scheduled;
  }
  return scheduled;
}

}  // namespace rtec
