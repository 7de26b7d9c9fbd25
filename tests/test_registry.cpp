#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/gateway.hpp"
#include "core/scenario.hpp"
#include "core/srtec.hpp"
#include "trace/registry.hpp"

// Unified metrics registry (trace/registry.hpp): deterministic JSON
// snapshots, component exporters, and the Scenario-level assembly.

namespace rtec {
namespace {

using namespace rtec::literals;

TEST(Registry, JsonIsSortedAndExact) {
  trace::MetricsRegistry reg;
  reg.set("zeta.count", std::uint64_t{42});
  reg.set("alpha.value", -7.0);
  reg.set("mid.signed", std::int64_t{-3});
  reg.set("alpha.ratio", 0.1);

  EXPECT_EQ(reg.to_json(),
            "{\n"
            "  \"alpha.ratio\": 0.10000000000000001,\n"  // %.17g, exact
            "  \"alpha.value\": -7,\n"
            "  \"mid.signed\": -3,\n"
            "  \"zeta.count\": 42\n"
            "}\n");

  ASSERT_TRUE(reg.get("zeta.count").has_value());
  EXPECT_EQ(std::get<std::uint64_t>(*reg.get("zeta.count")), 42u);
  EXPECT_EQ(reg.get_double("mid.signed"), -3.0);
  EXPECT_FALSE(reg.get("missing").has_value());
  EXPECT_FALSE(reg.get_double("missing").has_value());
  EXPECT_EQ(reg.size(), 4u);
}

TEST(Registry, SaveWritesTheSnapshot) {
  trace::MetricsRegistry reg;
  reg.set("a", std::uint64_t{1});
  const char* path = "test_registry_tmp.json";
  ASSERT_TRUE(reg.save(path));
  std::ifstream in{path};
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), reg.to_json());
  std::remove(path);
}

TEST(Registry, KernelStatsCountSchedulingActivity) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i)
    sim.schedule_after(Duration::microseconds(i + 1), [&fired] { ++fired; });
  auto cancel_me =
      sim.schedule_after(1_ms, [] { FAIL() << "cancelled event fired"; });
  sim.cancel(cancel_me);
  sim.run();
  EXPECT_EQ(fired, 5);

  trace::MetricsRegistry reg;
  trace::export_metrics(reg, "kernel", sim.stats());
  EXPECT_EQ(reg.get_double("kernel.events_scheduled"), 6.0);
  EXPECT_EQ(reg.get_double("kernel.events_cancelled"), 1.0);
  EXPECT_EQ(reg.get_double("kernel.events_fired"), 5.0);
}

/// Two nodes exchanging SRT events on one segment; enough activity that
/// every layer has non-zero counters.
void run_srt_chatter(Scenario& scn, std::vector<std::unique_ptr<Srtec>>& keep,
                     Duration sim_time) {
  Node& p = scn.add_node(1);
  Node& s = scn.add_node(2);
  keep.push_back(std::make_unique<Srtec>(p.middleware()));
  Srtec* pub = keep.back().get();
  const Subject subj = subject_of("reg/x");
  ASSERT_TRUE(pub->announce(subj, AttributeList{attr::Deadline{10_ms}},
                            nullptr)
                  .has_value());
  keep.push_back(std::make_unique<Srtec>(s.middleware()));
  Srtec* sub = keep.back().get();
  ASSERT_TRUE(sub->subscribe(subj, {}, [sub] { (void)sub->getEvent(); },
                             nullptr)
                  .has_value());
  for (int i = 0; i < 20; ++i) {
    scn.segment_sim(0).schedule_at(
        TimePoint::origin() + Duration::milliseconds(1 + i), [pub, i] {
          Event e;
          e.content = {static_cast<std::uint8_t>(i)};
          (void)pub->publish(std::move(e));
        });
  }
  scn.run_for(sim_time);
}

TEST(Registry, ScenarioSnapshotCoversEveryLayerAndIsDeterministic) {
  const auto run = [] {
    Scenario scn;
    (void)scn.record_rteb(0);
    std::vector<std::unique_ptr<Srtec>> keep;
    run_srt_chatter(scn, keep, 50_ms);
    return scn.metrics_json();
  };
  const std::string json = run();

  // One representative name per exporter family.
  for (const char* key :
       {"\"kernel000.events_fired\"", "\"engine.epochs\"",
        "\"net000.bus.frames_ok\"", "\"net000.rteb.bytes\"",
        "\"net000.rteb.records\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  // The unsharded fast path never runs the engine.
  EXPECT_NE(json.find("\"engine.epochs\": 0"), std::string::npos);

  trace::MetricsRegistry reg;
  {
    Scenario scn;
    (void)scn.record_rteb(0);
    std::vector<std::unique_ptr<Srtec>> keep;
    run_srt_chatter(scn, keep, 50_ms);
    scn.export_metrics(reg);
    EXPECT_GT(std::get<std::uint64_t>(*reg.get("net000.bus.frames_ok")), 0u);
    EXPECT_GT(std::get<std::uint64_t>(*reg.get("net000.rteb.records")), 0u);
  }
  // Identical scenario, identical snapshot — byte for byte.
  EXPECT_EQ(json, run());
}

TEST(Registry, ShardedScenarioExportsPerShardCounters) {
  Scenario::Config cfg;
  cfg.networks = 2;
  cfg.shards = 2;
  cfg.threads = 1;  // deterministic barrier counters stay zero / stable
  Scenario scn{cfg};
  Node& a = scn.add_node(10, {}, 0);
  scn.add_node(11, {}, 1);
  Node& gw_a = scn.add_node(20, {}, 0);
  Node& gw_b = scn.add_node(21, {}, 1);
  Gateway gw{gw_a, gw_b, scn.link_gateway(gw_a, gw_b, 250_us)};
  const Subject subj = subject_of("reg/gw");
  ASSERT_TRUE(gw.bridge_srt(subj, 10_ms, 30_ms).has_value());
  Srtec pub{a.middleware()};
  ASSERT_TRUE(pub.announce(subj, {}, nullptr).has_value());
  for (int i = 0; i < 10; ++i) {
    scn.segment_sim(0).schedule_at(
        TimePoint::origin() + Duration::milliseconds(1 + i), [&pub, i] {
          Event e;
          e.content = {static_cast<std::uint8_t>(i), 0x42};
          (void)pub.publish(std::move(e));
        });
  }
  scn.run_for(80_ms);

  trace::MetricsRegistry reg;
  scn.export_metrics(reg);
  gw.export_metrics(reg, "gw0");

  EXPECT_GT(std::get<std::uint64_t>(*reg.get("engine.epochs")), 0u);
  EXPECT_GT(std::get<std::uint64_t>(*reg.get("engine.handoffs")), 0u);
  EXPECT_GT(std::get<std::uint64_t>(*reg.get("engine.handoff_batches")), 0u);
  EXPECT_GT(std::get<std::uint64_t>(*reg.get("engine.handoff_bytes")), 0u);
  ASSERT_TRUE(reg.get("engine.shard.000.runs").has_value());
  ASSERT_TRUE(reg.get("engine.shard.001.runs").has_value());
  EXPECT_GT(std::get<std::uint64_t>(*reg.get("engine.shard.000.runs")), 0u);
  ASSERT_TRUE(reg.get("kernel001.events_fired").has_value());
  EXPECT_GT(std::get<std::uint64_t>(*reg.get("gw0.forwarded_a_to_b")), 0u);
  ASSERT_TRUE(reg.get("gw0.forward_failures").has_value());

  // At least one horizon-advance histogram bucket is populated, and the
  // engine's lifetime counters survive into the snapshot cumulatively.
  bool horizon_bucket = false;
  for (const auto& [name, value] : reg.values())
    if (name.rfind("engine.horizon_log2.", 0) == 0) horizon_bucket = true;
  EXPECT_TRUE(horizon_bucket);
}

}  // namespace
}  // namespace rtec
