// Wire-level tests via the trace sink: what actually crosses the emulated
// links (pacing spacing, handshake packet counts, burst shapes). Link events
// carry the direction in `value` (0 = uplink, 1 = downlink).
#include <gtest/gtest.h>

#include <vector>

#include "tests/transport_test_util.hpp"
#include "trace/memory_sink.hpp"

namespace qperc::net {
namespace {

constexpr std::uint64_t kUplink = 0;
constexpr std::uint64_t kDownlink = 1;

/// The link events a sink recorded, in emission order (the sink also
/// records transport events).
std::vector<trace::Event> link_events(const trace::MemorySink& sink) {
  std::vector<trace::Event> out;
  for (const trace::Event& event : sink.events()) {
    if (event.category() == trace::Category::kNet) out.push_back(event);
  }
  return out;
}

std::size_t count(const trace::MemorySink& sink, std::uint64_t direction,
                  trace::EventType type) {
  std::size_t n = 0;
  for (const trace::Event& event : sink.events()) {
    if (event.type == type && event.value == direction) ++n;
  }
  return n;
}

TEST(WireTrace, RecordsEnqueueAndDelivery) {
  trace::MemorySink sink;
  sim::Simulator simulator;
  simulator.set_trace(&sink);
  EmulatedNetwork network(simulator, dsl_profile(), Rng(1));
  const FlowId flow = network.allocate_flow_id();
  network.register_server_flow(flow, [](Packet) {});
  Packet packet;
  packet.flow = flow;
  packet.wire_bytes = 500;
  network.client_send(packet);
  simulator.run();
  EXPECT_EQ(count(sink, kUplink, trace::EventType::kLinkEnqueued), 1u);
  EXPECT_EQ(count(sink, kUplink, trace::EventType::kLinkDelivered), 1u);
  EXPECT_EQ(count(sink, kDownlink, trace::EventType::kLinkDelivered), 0u);
  const auto events = link_events(sink);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].bytes, 500u);
}

TEST(WireTrace, QueueDropsAreVisible) {
  trace::MemorySink sink;
  sim::Simulator simulator;
  simulator.set_trace(&sink);
  NetworkProfile tiny = dsl_profile();
  tiny.downlink = DataRate::kilobits_per_second(100);
  EmulatedNetwork network(simulator, tiny, Rng(1));
  const FlowId flow = network.allocate_flow_id();
  network.register_client_flow(flow, [](Packet) {});
  for (int i = 0; i < 50; ++i) {
    Packet packet;
    packet.flow = flow;
    packet.wire_bytes = kMtuBytes;
    network.server_send(packet);
  }
  simulator.run();
  EXPECT_GT(count(sink, kDownlink, trace::EventType::kLinkDroppedQueueFull), 0u);
}

/// The paced IW32 first flight must be spread over the wire instead of
/// arriving back to back at line rate (Table 1's pacing column, verified on
/// actual packet timestamps).
TEST(WireBehaviour, PacingSpreadsTheFirstFlight) {
  const auto flight_gaps = [](bool pacing) {
    trace::MemorySink sink;
    testutil::TcpHarness harness(net::lte_profile(),
                                 [&] {
                                   tcp::TcpConfig config;
                                   config.initial_window_segments = 32;
                                   config.pacing = pacing;
                                   config.tuned_buffers = true;
                                   return config;
                                 }(),
                                 400'000, 3);
    harness.simulator.set_trace(&sink);
    harness.run(seconds(2));
    // Enqueue timestamps show the *sender's* emission pattern (delivery
    // timestamps would be line-rate spaced whenever the queue is backlogged).
    std::vector<SimTime> arrivals;
    for (const trace::Event& event : sink.events()) {
      if (event.value == kDownlink && event.type == trace::EventType::kLinkEnqueued) {
        arrivals.push_back(event.time);
      }
    }
    // Gap across the tail of the first data flight (past the TLS flight and
    // the pacer's 10-segment initial quantum, i.e. fully paced region).
    if (arrivals.size() < 29) return SimDuration::zero();
    return arrivals[28] - arrivals[15];
  };
  const SimDuration unpaced = flight_gaps(false);
  const SimDuration paced = flight_gaps(true);
  // The unpaced sender dumps the whole flight into the queue at one instant.
  EXPECT_LT(unpaced, milliseconds(1));
  // The paced sender spreads those ten packets over several milliseconds.
  EXPECT_GT(paced, milliseconds(4));
}

/// QUIC's handshake puts fewer round trips but *bigger* packets on the wire
/// (padded CHLO/REJ) than TCP's SYN exchange.
TEST(WireBehaviour, QuicHandshakeUsesPaddedPackets) {
  trace::MemorySink sink;
  sim::Simulator simulator;
  simulator.set_trace(&sink);
  EmulatedNetwork network(simulator, dsl_profile(), Rng(2));
  quic::QuicConnection connection(simulator, network, ServerId{0}, quic::QuicConfig{},
                                  {});
  connection.connect();
  simulator.run_until(SimTime(milliseconds(100)));
  const auto events = link_events(sink);
  ASSERT_FALSE(events.empty());
  // First uplink packet is the padded inchoate CHLO.
  EXPECT_EQ(events.front().value, kUplink);
  EXPECT_GE(events.front().bytes, 1300u);
}

TEST(WireBehaviour, TcpHandshakeStartsWithSmallSyn) {
  trace::MemorySink sink;
  sim::Simulator simulator;
  simulator.set_trace(&sink);
  EmulatedNetwork network(simulator, dsl_profile(), Rng(2));
  tcp::TcpConnection connection(simulator, network, ServerId{0}, tcp::TcpConfig{}, {});
  connection.connect();
  simulator.run_until(SimTime(milliseconds(100)));
  const auto events = link_events(sink);
  ASSERT_FALSE(events.empty());
  EXPECT_LT(events.front().bytes, 100u);
}

/// ACK traffic flows upstream: a pure download still generates a steady
/// uplink packet stream (roughly one ACK per two data packets).
TEST(WireBehaviour, DelayedAcksHalveTheAckRate) {
  trace::MemorySink sink;
  testutil::TcpHarness harness(net::dsl_profile(), tcp::TcpConfig{}, 500'000, 4);
  harness.simulator.set_trace(&sink);
  ASSERT_TRUE(harness.run());
  const auto down = count(sink, kDownlink, trace::EventType::kLinkDelivered);
  const auto up = count(sink, kUplink, trace::EventType::kLinkDelivered);
  ASSERT_GT(down, 300u);
  // ACKs should be notably fewer than data packets but not vanishing.
  EXPECT_LT(up, down);
  EXPECT_GT(up, down / 5);
}

}  // namespace
}  // namespace qperc::net
