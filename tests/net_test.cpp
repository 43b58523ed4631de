// Unit tests for link emulation and the Table-2 network profiles.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/emulated_network.hpp"
#include "net/link.hpp"
#include "net/profile.hpp"
#include "sim/simulator.hpp"

namespace qperc::net {
namespace {

Packet make_packet(std::uint32_t bytes, std::uint64_t flow = 1) {
  Packet packet;
  packet.flow = FlowId{flow};
  packet.dest_server = ServerId{0};
  packet.wire_bytes = bytes;
  return packet;
}

TEST(Link, SerializationPlusPropagationDelay) {
  sim::Simulator simulator;
  std::vector<SimTime> deliveries;
  Link link(simulator, DataRate::megabits_per_second(8.0), milliseconds(10), 0.0,
            1'000'000, Rng(1), [&](Packet) { deliveries.push_back(simulator.now()); });
  link.send(make_packet(1000));  // 1 ms serialization at 1 MB/s
  simulator.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], SimTime(milliseconds(11)));
}

TEST(Link, BackToBackPacketsSerializeSequentially) {
  sim::Simulator simulator;
  std::vector<SimTime> deliveries;
  Link link(simulator, DataRate::megabits_per_second(8.0), milliseconds(0), 0.0, 1'000'000,
            Rng(1), [&](Packet) { deliveries.push_back(simulator.now()); });
  link.send(make_packet(1000));
  link.send(make_packet(1000));
  link.send(make_packet(1000));
  simulator.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], SimTime(milliseconds(1)));
  EXPECT_EQ(deliveries[1], SimTime(milliseconds(2)));
  EXPECT_EQ(deliveries[2], SimTime(milliseconds(3)));
}

TEST(Link, AchievedThroughputMatchesConfiguredRate) {
  sim::Simulator simulator;
  std::uint64_t delivered_bytes = 0;
  Link link(simulator, DataRate::megabits_per_second(10.0), milliseconds(5), 0.0,
            50'000, Rng(1), [&](Packet p) { delivered_bytes += p.wire_bytes; });
  // Keep the link saturated for one second.
  std::function<void()> refill = [&] {
    while (link.queued_bytes() + 1500 <= 50'000 && simulator.now() < SimTime(seconds(1))) {
      link.send(make_packet(1500));
    }
    if (simulator.now() < SimTime(seconds(1))) {
      simulator.schedule_in(milliseconds(1), refill);
    }
  };
  refill();
  simulator.run_until(SimTime(seconds(1)) + milliseconds(10));
  const double achieved_mbps = static_cast<double>(delivered_bytes) * 8.0 / 1e6;
  EXPECT_NEAR(achieved_mbps, 10.0, 0.3);
}

TEST(Link, DroptailQueueDropsWhenFull) {
  sim::Simulator simulator;
  int delivered = 0;
  Link link(simulator, DataRate::megabits_per_second(1.0), milliseconds(0), 0.0,
            3000,  // room for two 1500-byte packets
            Rng(1), [&](Packet) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.send(make_packet(1500));
  simulator.run();
  EXPECT_EQ(link.stats().drops_queue_full, 8u);
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.stats().packets_offered, 10u);
}

TEST(Link, RandomLossRateIsRespected) {
  sim::Simulator simulator;
  int delivered = 0;
  Link link(simulator, DataRate::megabits_per_second(100.0), milliseconds(0), 0.06,
            10'000'000, Rng(7), [&](Packet) { ++delivered; });
  constexpr int kN = 10'000;
  for (int i = 0; i < kN; ++i) link.send(make_packet(100));
  simulator.run();
  const double loss = static_cast<double>(link.stats().drops_random_loss) / kN;
  EXPECT_NEAR(loss, 0.06, 0.01);
  EXPECT_EQ(delivered + static_cast<int>(link.stats().drops_random_loss), kN);
}

TEST(Link, LosslessLinkDeliversEverything) {
  sim::Simulator simulator;
  int delivered = 0;
  Link link(simulator, DataRate::megabits_per_second(100.0), milliseconds(1), 0.0,
            10'000'000, Rng(7), [&](Packet) { ++delivered; });
  for (int i = 0; i < 1000; ++i) link.send(make_packet(100));
  simulator.run();
  EXPECT_EQ(delivered, 1000);
}

TEST(Profiles, Table2Values) {
  const auto& profiles = all_profiles();
  ASSERT_EQ(profiles.size(), 4u);

  const auto& dsl = profiles[0];
  EXPECT_EQ(dsl.name, "DSL");
  EXPECT_EQ(dsl.uplink.bps(), 5'000'000u);
  EXPECT_EQ(dsl.downlink.bps(), 25'000'000u);
  EXPECT_EQ(dsl.min_rtt, milliseconds(24));
  EXPECT_DOUBLE_EQ(dsl.loss_rate, 0.0);
  EXPECT_EQ(dsl.queue_delay, milliseconds(12));

  const auto& lte = profiles[1];
  EXPECT_EQ(lte.uplink.bps(), 2'800'000u);
  EXPECT_EQ(lte.downlink.bps(), 10'500'000u);
  EXPECT_EQ(lte.min_rtt, milliseconds(74));
  EXPECT_EQ(lte.queue_delay, milliseconds(200));

  const auto& da2gc = profiles[2];
  EXPECT_EQ(da2gc.uplink.bps(), 468'000u);
  EXPECT_EQ(da2gc.downlink.bps(), 468'000u);
  EXPECT_EQ(da2gc.min_rtt, milliseconds(262));
  EXPECT_DOUBLE_EQ(da2gc.loss_rate, 0.033);

  const auto& mss = profiles[3];
  EXPECT_EQ(mss.uplink.bps(), 1'890'000u);
  EXPECT_EQ(mss.min_rtt, milliseconds(760));
  EXPECT_DOUBLE_EQ(mss.loss_rate, 0.06);
}

TEST(Profiles, QueueSizing) {
  const auto dsl = dsl_profile();
  // 25 Mbps x 12 ms = 37.5 kB.
  EXPECT_EQ(dsl.downlink_queue_bytes(), 37'500u);
  // Uplinks have a 32 kB bufferbloat floor (5 Mbps x 12 ms would be 7.5 kB).
  EXPECT_EQ(dsl.uplink_queue_bytes(), 32u * 1024);
  // MSS: 1.89 Mbps x 200 ms = 47.25 kB exceeds the floor.
  EXPECT_EQ(mss_profile().uplink_queue_bytes(), 47'250u);
  // Tiny downlinks get a 2-MTU floor.
  NetworkProfile tiny = dsl;
  tiny.downlink = DataRate::kilobits_per_second(10);
  EXPECT_EQ(tiny.downlink_queue_bytes(), 2u * kMtuBytes);
}

TEST(Profiles, BdpBytes) {
  EXPECT_EQ(dsl_profile().downlink_bdp_bytes(), 75'000u);
  EXPECT_EQ(profile_for(NetworkKind::kMss).downlink_bdp_bytes(),
            DataRate::megabits_per_second(1.89).bytes_in(milliseconds(760)));
}

TEST(EmulatedNetwork, RoutesUplinkAndDownlinkByFlow) {
  sim::Simulator simulator;
  EmulatedNetwork network(simulator, dsl_profile(), Rng(3));
  int server_received = 0;
  int client_received = 0;
  const FlowId flow = network.allocate_flow_id();
  network.register_server_flow(flow, [&](Packet) { ++server_received; });
  network.register_client_flow(flow, [&](Packet) { ++client_received; });

  Packet up = make_packet(500, static_cast<std::uint64_t>(flow));
  network.client_send(up);
  Packet down = make_packet(500, static_cast<std::uint64_t>(flow));
  network.server_send(down);
  simulator.run();
  EXPECT_EQ(server_received, 1);
  EXPECT_EQ(client_received, 1);
}

TEST(EmulatedNetwork, UnknownFlowIsDropped) {
  sim::Simulator simulator;
  EmulatedNetwork network(simulator, dsl_profile(), Rng(3));
  network.client_send(make_packet(500, 999));
  simulator.run();  // must not crash
  EXPECT_EQ(network.uplink_stats().packets_delivered, 1u);
}

TEST(EmulatedNetwork, HandlerMayRegisterFlowsWhileItRuns) {
  // A browser opens connections from inside a delivery: the flow table grows
  // under the running handler, which must stay intact.
  sim::Simulator simulator;
  EmulatedNetwork network(simulator, dsl_profile(), Rng(3));
  const FlowId flow = network.allocate_flow_id();
  int received = 0;
  network.register_client_flow(flow, [&](Packet) {
    for (int i = 0; i < 64; ++i) {
      network.register_client_flow(network.allocate_flow_id(), [](Packet) {});
    }
    ++received;
  });
  network.server_send(make_packet(500, static_cast<std::uint64_t>(flow)));
  network.server_send(make_packet(500, static_cast<std::uint64_t>(flow)));
  simulator.run();
  EXPECT_EQ(received, 2);
  network.unregister_client_flow(flow);
  network.server_send(make_packet(500, static_cast<std::uint64_t>(flow)));
  simulator.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(network.downlink_stats().packets_delivered, 3u);
}

TEST(EmulatedNetwork, RoundTripTakesMinRtt) {
  sim::Simulator simulator;
  EmulatedNetwork network(simulator, dsl_profile(), Rng(3));
  const FlowId flow = network.allocate_flow_id();
  SimTime reply_at{0};
  network.register_server_flow(flow, [&](Packet packet) { network.server_send(packet); });
  network.register_client_flow(flow, [&](Packet) { reply_at = simulator.now(); });
  network.client_send(make_packet(100, static_cast<std::uint64_t>(flow)));
  simulator.run();
  // One small packet each way: ~min RTT plus two serializations.
  EXPECT_GE(reply_at, SimTime(milliseconds(24)));
  EXPECT_LT(reply_at, SimTime(milliseconds(26)));
}

}  // namespace
}  // namespace qperc::net
