#include "netsim/fault_injector.h"
#include "netsim/link_profile.h"
#include "netsim/shaper.h"
#include "test_util.h"

#include "gtest/gtest.h"

namespace davix {
namespace netsim {
namespace {

TEST(LinkProfileTest, PresetsAreOrderedByRtt) {
  EXPECT_EQ(LinkProfile::Loopback().rtt_micros, 0);
  EXPECT_LT(LinkProfile::Lan().rtt_micros, LinkProfile::PanEuropean().rtt_micros);
  EXPECT_LT(LinkProfile::PanEuropean().rtt_micros,
            LinkProfile::Wan().rtt_micros);
  EXPECT_TRUE(LinkProfile::Loopback().IsNullLink());
  EXPECT_FALSE(LinkProfile::Lan().IsNullLink());
}

TEST(LinkProfileTest, SteadyStateThroughputWindowLimited) {
  LinkProfile wan = LinkProfile::Wan();
  // 1 MiB window / 96 ms => ~11 MB/s, far below the 125 MB/s link rate.
  int64_t tput = wan.SteadyStateThroughput();
  EXPECT_LT(tput, wan.bandwidth_bytes_per_sec);
  EXPECT_GT(tput, 8'000'000);

  LinkProfile lan = LinkProfile::Lan();
  // 1 MiB / 2 ms = 512 MB/s >> link: LAN is bandwidth limited.
  EXPECT_EQ(lan.SteadyStateThroughput(), lan.bandwidth_bytes_per_sec);
}

TEST(ShaperTest, NullLinkCostsNothing) {
  ConnectionShaper shaper(LinkProfile::Loopback());
  ConnectionShaper::ExchangePlan plan = shaper.PlanExchange(1000, 1 << 20);
  EXPECT_EQ(plan.latency_micros, 0);
  EXPECT_EQ(plan.bandwidth_micros, 0);
  // Whatever the sizes.
  ConnectionShaper::ExchangePlan large = shaper.PlanExchange(1 << 20, 1 << 20);
  EXPECT_EQ(large.latency_micros + large.bandwidth_micros, 0);
}

TEST(ShaperTest, FirstRequestPaysHandshake) {
  LinkProfile lan = LinkProfile::Lan();
  ConnectionShaper shaper(lan);
  ConnectionShaper::ExchangePlan first = shaper.PlanExchange(100, 0);
  ConnectionShaper::ExchangePlan second = shaper.PlanExchange(100, 0);
  EXPECT_EQ(first.latency_micros - second.latency_micros,
            lan.connect_handshake_rtts * lan.rtt_micros);
}

TEST(ShaperTest, SlowStartGrowsWindowAcrossResponses) {
  LinkProfile profile = LinkProfile::Wan();
  ConnectionShaper shaper(profile);
  int64_t initial_cwnd = shaper.cwnd_bytes();
  EXPECT_EQ(initial_cwnd, profile.init_cwnd_bytes);
  // A 1 MiB response forces several slow-start rounds.
  shaper.PlanExchange(0, 1 << 20);
  EXPECT_GT(shaper.cwnd_bytes(), initial_cwnd);
  EXPECT_LE(shaper.cwnd_bytes(), profile.max_cwnd_bytes);
}

TEST(ShaperTest, WarmConnectionTransfersFaster) {
  LinkProfile profile = LinkProfile::Wan();
  // Cold connection: window starts at init_cwnd.
  ConnectionShaper cold(profile);
  int64_t cold_time = cold.PlanExchange(100, 4 << 20).bandwidth_micros;

  // Warm connection: window already grown by an earlier big response.
  ConnectionShaper warm(profile);
  warm.PlanExchange(100, 4 << 20);
  int64_t warm_time = warm.PlanExchange(0, 4 << 20).bandwidth_micros;

  // Slow start makes the cold transfer strictly slower — the §2.2 cost
  // of one-connection-per-request HTTP.
  EXPECT_GT(cold_time, warm_time);
}

TEST(ShaperTest, TransferTimeMonotonicInSize) {
  LinkProfile profile = LinkProfile::PanEuropean();
  int64_t cwnd_a = profile.init_cwnd_bytes;
  int64_t cwnd_b = profile.init_cwnd_bytes;
  int64_t small = ConnectionShaper::TransferMicros(profile, 10'000, &cwnd_a);
  int64_t large = ConnectionShaper::TransferMicros(profile, 1'000'000, &cwnd_b);
  EXPECT_LT(small, large);
}

TEST(ShaperTest, TransferZeroBytesFree) {
  LinkProfile profile = LinkProfile::Wan();
  int64_t cwnd = profile.init_cwnd_bytes;
  EXPECT_EQ(ConnectionShaper::TransferMicros(profile, 0, &cwnd), 0);
}

TEST(ShaperTest, PlanExchangeSplitsLatencyAndBandwidth) {
  LinkProfile profile = LinkProfile::Wan();
  ConnectionShaper shaper(profile);
  ConnectionShaper::ExchangePlan first = shaper.PlanExchange(200, 100'000);
  // First exchange: handshake + 1 RTT of latency.
  EXPECT_EQ(first.latency_micros,
            (profile.connect_handshake_rtts + 1) * profile.rtt_micros);
  EXPECT_GT(first.bandwidth_micros, 0);
  ConnectionShaper::ExchangePlan second = shaper.PlanExchange(200, 100'000);
  EXPECT_EQ(second.latency_micros, profile.rtt_micros);
  // Warmer window: same bytes move in fewer slow-start rounds.
  EXPECT_LE(second.bandwidth_micros, first.bandwidth_micros);
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjectorTest, NoRulesNoFaults) {
  FaultInjector injector(1);
  EXPECT_EQ(injector.Decide("/any").action, FaultAction::kNone);
  EXPECT_EQ(injector.faults_fired(), 0);
}

TEST(FaultInjectorTest, ServerDownRefusesEverything) {
  FaultInjector injector(1);
  injector.SetServerDown(true);
  EXPECT_EQ(injector.Decide("/a").action, FaultAction::kRefuseConnection);
  EXPECT_EQ(injector.Decide("/b").action, FaultAction::kRefuseConnection);
  injector.SetServerDown(false);
  EXPECT_EQ(injector.Decide("/a").action, FaultAction::kNone);
}

TEST(FaultInjectorTest, PrefixMatchOnly) {
  FaultInjector injector(1);
  FaultRule rule;
  rule.path_prefix = "/data/";
  rule.action = FaultAction::kServerError;
  injector.AddRule(rule);
  EXPECT_EQ(injector.Decide("/data/file").action, FaultAction::kServerError);
  EXPECT_EQ(injector.Decide("/other").action, FaultAction::kNone);
}

TEST(FaultInjectorTest, MaxHitsBounded) {
  FaultInjector injector(1);
  FaultRule rule;
  rule.path_prefix = "/f";
  rule.action = FaultAction::kServerError;
  rule.max_hits = 2;
  injector.AddRule(rule);
  EXPECT_EQ(injector.Decide("/f").action, FaultAction::kServerError);
  EXPECT_EQ(injector.Decide("/f").action, FaultAction::kServerError);
  EXPECT_EQ(injector.Decide("/f").action, FaultAction::kNone);
  EXPECT_EQ(injector.faults_fired(), 2);
}

TEST(FaultInjectorTest, ProbabilisticDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    FaultInjector injector(seed);
    FaultRule rule;
    rule.path_prefix = "/";
    rule.action = FaultAction::kServerError;
    rule.probability = 0.5;
    injector.AddRule(rule);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(injector.Decide("/x").action != FaultAction::kNone);
    }
    return fired;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultInjectorTest, FirstMatchingRuleWins) {
  FaultInjector injector(1);
  FaultRule first;
  first.path_prefix = "/a";
  first.action = FaultAction::kServerError;
  injector.AddRule(first);
  FaultRule second;
  second.path_prefix = "/a";
  second.action = FaultAction::kRefuseConnection;
  injector.AddRule(second);
  EXPECT_EQ(injector.Decide("/a/x").action, FaultAction::kServerError);
}

TEST(FaultInjectorTest, ClearRemovesRules) {
  FaultInjector injector(1);
  FaultRule rule;
  rule.path_prefix = "/";
  rule.action = FaultAction::kStall;
  rule.stall_micros = 5;
  injector.AddRule(rule);
  EXPECT_EQ(injector.Decide("/x").action, FaultAction::kStall);
  injector.Clear();
  EXPECT_EQ(injector.Decide("/x").action, FaultAction::kNone);
}

}  // namespace
}  // namespace netsim
}  // namespace davix
