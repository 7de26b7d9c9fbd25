#include <gtest/gtest.h>

#include "core/binding.hpp"
#include "core/binding_protocol.hpp"
#include "core/scenario.hpp"

namespace rtec {
namespace {

using literals::operator""_ns;
using literals::operator""_us;
using literals::operator""_ms;

// ------------------------------------------------------------ registry

TEST(BindingRegistry, AssignsStableSequentialEtags) {
  BindingRegistry reg;
  const auto a = reg.bind(subject_of("a"));
  const auto b = reg.bind(subject_of("b"));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, kFirstApplicationEtag);
  EXPECT_EQ(*b, kFirstApplicationEtag + 1);
  // Re-binding the same subject returns the same etag.
  EXPECT_EQ(*reg.bind(subject_of("a")), *a);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(BindingRegistry, LookupAndReverseLookup) {
  BindingRegistry reg;
  const Etag e = *reg.bind(subject_of("x"));
  EXPECT_EQ(reg.lookup(subject_of("x")), e);
  EXPECT_EQ(reg.lookup(subject_of("y")), std::nullopt);
  EXPECT_EQ(reg.subject_of(e), subject_of("x"));
  EXPECT_EQ(reg.subject_of(static_cast<Etag>(e + 100)), std::nullopt);
}

TEST(BindingRegistry, ExhaustsAtEtagSpace) {
  BindingRegistry reg;
  Expected<Etag, ChannelError> last = Unexpected{ChannelError::kBindingFailed};
  for (std::uint32_t i = 0;; ++i) {
    last = reg.bind(Subject{0x1000 + i});
    if (!last.has_value()) break;
    ASSERT_LE(i, static_cast<std::uint32_t>(kMaxEtag));
  }
  EXPECT_EQ(last.error(), ChannelError::kBindingFailed);
  EXPECT_EQ(reg.size(), static_cast<std::size_t>(kMaxEtag) + 1 -
                            kFirstApplicationEtag);
}

TEST(Subject, DerivedFromNamesDeterministically) {
  EXPECT_EQ(subject_of("wheel/fl"), subject_of("wheel/fl"));
  EXPECT_NE(subject_of("wheel/fl"), subject_of("wheel/fr"));
  EXPECT_NE(subject_of(""), subject_of(" "));
}

// --------------------------------------------------- runtime protocol

struct ProtocolFixture : ::testing::Test {
  Scenario scn;
  Node* agent_node = nullptr;
  Node* client_node = nullptr;
  std::unique_ptr<BindingAgent> agent;
  std::unique_ptr<BindingClient> client;

  void SetUp() override {
    agent_node = &scn.add_node(1);
    client_node = &scn.add_node(2);
    agent = std::make_unique<BindingAgent>(agent_node->middleware().context(),
                                           scn.binding());
    client = std::make_unique<BindingClient>(
        client_node->middleware().context());
  }
};

TEST_F(ProtocolFixture, ResolvesOverTheBus) {
  Expected<Etag, ChannelError> result = Unexpected{ChannelError::kBindingFailed};
  bool done = false;
  client->resolve(subject_of("plant/pressure"), [&](auto r) {
    result = r;
    done = true;
  });
  scn.run_for(5_ms);
  ASSERT_TRUE(done);
  ASSERT_TRUE(result.has_value());
  // The agent committed the same binding into the registry.
  EXPECT_EQ(scn.binding().lookup(subject_of("plant/pressure")), *result);
  EXPECT_EQ(agent->requests_served(), 1u);
}

TEST_F(ProtocolFixture, SecondResolveHitsTheCache) {
  int called = 0;
  client->resolve(subject_of("s"), [&](auto) { ++called; });
  scn.run_for(5_ms);
  ASSERT_EQ(called, 1);
  const std::uint64_t sent_before = client->requests_sent();
  client->resolve(subject_of("s"), [&](auto r) {
    ++called;
    EXPECT_TRUE(r.has_value());
  });
  // Cache hit: synchronous, no new bus traffic.
  EXPECT_EQ(called, 2);
  EXPECT_EQ(client->requests_sent(), sent_before);
}

TEST_F(ProtocolFixture, ConcurrentResolvesSerializeAndAgree) {
  std::vector<Etag> etags;
  for (int i = 0; i < 5; ++i)
    client->resolve(subject_of("multi"), [&](auto r) {
      ASSERT_TRUE(r.has_value());
      etags.push_back(*r);
    });
  scn.run_for(20_ms);
  ASSERT_EQ(etags.size(), 5u);
  for (Etag e : etags) EXPECT_EQ(e, etags[0]);
  // Only the first needed the wire; the rest were answered from cache as
  // the queue drained.
  EXPECT_EQ(client->requests_sent(), 1u);
}

TEST_F(ProtocolFixture, TwoClientsGetTheSameEtag) {
  Node& third = scn.add_node(3);
  BindingClient client2{third.middleware().context()};
  std::optional<Etag> a;
  std::optional<Etag> b;
  client->resolve(subject_of("shared"), [&](auto r) { a = *r; });
  client2.resolve(subject_of("shared"), [&](auto r) { b = *r; });
  scn.run_for(10_ms);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*a, *b);
}

TEST_F(ProtocolFixture, RetriesOnAgentSilenceThenFails) {
  // Kill the agent's node: requests go unanswered.
  agent_node->controller().set_online(false);
  Expected<Etag, ChannelError> result = Etag{0};
  bool done = false;
  client->resolve(subject_of("orphan"), [&](auto r) {
    result = r;
    done = true;
  });
  scn.run_for(Duration::seconds(1));
  ASSERT_TRUE(done);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error(), ChannelError::kBindingFailed);
  EXPECT_EQ(client->requests_sent(), 3u);  // kMaxAttempts
  EXPECT_EQ(client->timeouts(), 3u);
}

TEST_F(ProtocolFixture, SurvivesFrameCorruption) {
  auto faults = std::make_unique<ScriptedFaults>();
  faults->add_rule([](const FaultContext& ctx) { return ctx.attempt == 1; });
  scn.set_fault_model(std::move(faults));
  bool done = false;
  client->resolve(subject_of("noisy"), [&](auto r) {
    EXPECT_TRUE(r.has_value());
    done = true;
  });
  scn.run_for(10_ms);
  EXPECT_TRUE(done);  // auto-retransmission masked the corruption
}

TEST_F(ProtocolFixture, ProtocolEtagsAreReserved) {
  // Application bindings can never collide with the protocol's channels.
  for (int i = 0; i < 10; ++i) {
    const auto e = scn.binding().bind(Subject{0x9000u + static_cast<unsigned>(i)});
    ASSERT_TRUE(e.has_value());
    EXPECT_NE(*e, kBindingRequestEtag);
    EXPECT_NE(*e, kBindingReplyEtag);
    EXPECT_NE(*e, kSyncRefEtag);
    EXPECT_NE(*e, kSyncFollowEtag);
  }
}

}  // namespace
}  // namespace rtec
