// Bus analyzer — decode a candump log through the rtec identifier layout.
//
// Works on logs rendered from this simulator's RTEB traces
// (`rtec_trace to-candump`, trace::rteb_to_candump) or captured from a real
// interface running the protocol (`candump -l can0`). Prints
// per-class and per-channel statistics: frame counts, payload bytes, bus
// time at the configured bit rate, inter-arrival statistics per etag, and
// the observed priority bands.
//
// Usage:
//   bus_analyzer <logfile> [bitrate]
//   bus_analyzer --demo            # record a demo scenario, then analyze it
//
// Example:
//   ./build/examples/bus_analyzer --demo

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "core/hrtec.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "lint_check.hpp"
#include "sched/id_codec.hpp"
#include "time/periodic.hpp"
#include "trace/binary.hpp"
#include "trace/candump.hpp"
#include "util/stats.hpp"

using namespace rtec;
using namespace rtec::literals;

namespace {

std::string record_demo() {
  Scenario::Config cfg;
  cfg.calendar.round_length = 10_ms;
  Scenario scn{cfg};
  Node& a = scn.add_node(1);
  Node& b = scn.add_node(2);
  Node& master = scn.add_node(3);
  (void)scn.enable_clock_sync(master.id(), 500_us);
  const Subject subject = subject_of("demo/sensor");
  SlotSpec slot;
  slot.lst_offset = 2_ms;
  slot.dlc = 4;
  slot.fault.omission_degree = 1;
  slot.etag = *scn.binding().bind(subject);
  slot.publisher = a.id();
  (void)scn.calendar().reserve(slot);
  (void)examples::lint_calendar_or_report(scn.calendar(), "bus_analyzer demo");
  const trace::RtebWriter& recorder = scn.record_rteb();

  scn.run_for(20_ms);
  Hrtec pub{a.middleware()};
  (void)pub.announce(subject, AttributeList{attr::Periodic{10_ms}}, nullptr);
  Hrtec sub{b.middleware()};
  (void)sub.subscribe(subject, {}, nullptr, nullptr);
  PeriodicLocalTask task{a.clock(), 10_ms, [&] {
                           Event e;
                           e.content = {1, 2, 3, 4};
                           (void)pub.publish(std::move(e));
                         }};
  task.start();

  Srtec chat_pub{b.middleware()};
  (void)chat_pub.announce(subject_of("demo/chat"),
                          AttributeList{attr::Deadline{8_ms}}, nullptr);
  PeriodicLocalTask chat{b.clock(), 3_ms, [&] {
                           Event e;
                           e.content = {9, 9};
                           (void)chat_pub.publish(std::move(e));
                         }};
  chat.start();

  scn.run_for(500_ms);
  return trace::rteb_to_candump(recorder.bytes(), "rtec0").value();
}

const char* class_name(TrafficClass c) {
  switch (c) {
    case TrafficClass::kHrt: return "HRT";
    case TrafficClass::kSrt: return "SRT";
    case TrafficClass::kNrt: return "NRT";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  std::string text;
  BusConfig bus;
  if (argc >= 2 && std::strcmp(argv[1], "--demo") == 0) {
    std::puts("(recording a 0.5 s demo scenario first)\n");
    text = record_demo();
  } else if (argc >= 2) {
    std::ifstream in{argv[1]};
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
    if (argc >= 3) bus.bitrate_bps = std::atoll(argv[2]);
  } else {
    std::fprintf(stderr, "usage: %s <candump-log> [bitrate] | --demo\n",
                 argv[0]);
    return 2;
  }

  const auto entries = parse_candump(text);
  if (entries.empty()) {
    std::puts("no parsable frames in the log");
    return 1;
  }
  const Duration span = entries.back().at - entries.front().at;

  struct ClassStats {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::int64_t wire_ns = 0;
  };
  std::map<TrafficClass, ClassStats> by_class;
  struct ChannelStats {
    std::uint64_t frames = 0;
    Priority min_prio = 255;
    Priority max_prio = 0;
    std::map<NodeId, std::uint64_t> senders;
    OnlineStats inter_arrival_us;
    TimePoint last;
    bool has_last = false;
  };
  std::map<Etag, ChannelStats> by_etag;

  for (const auto& e : entries) {
    if (!e.frame.extended) continue;  // base frames are not protocol traffic
    const CanIdFields f = decode_can_id(e.frame.id);
    ClassStats& cs = by_class[classify_priority(f.priority)];
    ++cs.frames;
    cs.bytes += e.frame.dlc;
    cs.wire_ns += frame_duration(e.frame, bus).ns();

    ChannelStats& ch = by_etag[f.etag];
    ++ch.frames;
    ch.min_prio = std::min(ch.min_prio, f.priority);
    ch.max_prio = std::max(ch.max_prio, f.priority);
    ++ch.senders[f.tx_node];
    if (ch.has_last)
      ch.inter_arrival_us.add((e.at - ch.last).us());
    ch.last = e.at;
    ch.has_last = true;
  }

  std::printf("%zu frames over %.3f s (bitrate %lld bit/s assumed)\n\n",
              entries.size(), span.sec(),
              static_cast<long long>(bus.bitrate_bps));
  std::puts("class  frames     payload-bytes  bus-time(ms)  bus-share");
  for (const auto& [cls, cs] : by_class) {
    std::printf("%-6s %-10llu %-14llu %-13.2f %.2f%%\n", class_name(cls),
                static_cast<unsigned long long>(cs.frames),
                static_cast<unsigned long long>(cs.bytes),
                static_cast<double>(cs.wire_ns) / 1e6,
                span.ns() > 0
                    ? 100.0 * static_cast<double>(cs.wire_ns) /
                          static_cast<double>(span.ns())
                    : 0.0);
  }

  std::puts("\netag   frames    senders  prio-band   mean-gap(ms)  gap-stddev");
  for (const auto& [etag, ch] : by_etag) {
    std::string senders;
    for (const auto& [node, count] : ch.senders) {
      if (!senders.empty()) senders += ",";
      senders += std::to_string(node);
    }
    std::printf("%-6u %-9llu %-8s %3u..%-6u %-13.3f %.3f\n", etag,
                static_cast<unsigned long long>(ch.frames), senders.c_str(),
                ch.min_prio, ch.max_prio,
                ch.inter_arrival_us.mean() / 1000.0,
                ch.inter_arrival_us.stddev() / 1000.0);
  }
  std::puts("\netag 0/1 = clock sync, 2/3 = binding protocol, >=4 = bound");
  std::puts("application subjects. An SRT channel under promotion shows a");
  std::puts("prio band wider than one level.");
  return 0;
}
