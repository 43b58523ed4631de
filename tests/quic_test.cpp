// QUIC stack tests: 1-RTT handshake, stream independence, ACK ranges,
// reliability under loss, flow control.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "net/impairments.hpp"
#include "tests/transport_test_util.hpp"
#include "trace/memory_sink.hpp"
#include "util/rng.hpp"

namespace qperc::quic {
namespace {

using testutil::QuicHarness;

QuicConfig default_config() { return QuicConfig{}; }

TEST(QuicHandshake, TakesOneRttBeforeData) {
  QuicHarness harness(net::dsl_profile(), default_config(), 10'000);
  ASSERT_TRUE(harness.run(1));
  // One 24 ms round trip (plus serialization of the padded CHLO/REJ).
  EXPECT_GE(harness.established_at, SimTime(milliseconds(24)));
  EXPECT_LE(harness.established_at, SimTime(milliseconds(36)));
}

TEST(QuicHandshake, ZeroRttEstablishesImmediately) {
  QuicConfig config = default_config();
  config.zero_rtt = true;
  QuicHarness harness(net::dsl_profile(), config, 10'000);
  ASSERT_TRUE(harness.run(1));
  EXPECT_EQ(harness.established_at, SimTime{0});
}

TEST(QuicHandshake, OneRttFasterThanTcpOnCleanNetwork) {
  QuicHarness quic(net::lte_profile(), default_config(), 20'000);
  ASSERT_TRUE(quic.run(1));
  testutil::TcpHarness tcp(net::lte_profile(), tcp::TcpConfig{}, 20'000);
  ASSERT_TRUE(tcp.run());
  // LTE min RTT 74 ms: QUIC saves about one round trip.
  const SimDuration saved = tcp.established_at - quic.established_at;
  EXPECT_GT(saved, milliseconds(60));
  EXPECT_LT(saved, milliseconds(110));
}

TEST(QuicHandshake, SurvivesChloLoss) {
  int recovered = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    QuicHarness harness(net::mss_profile(), default_config(), 5'000, seed);
    ASSERT_TRUE(harness.run(1)) << seed;
    recovered += harness.connection->stats().handshake_retransmissions > 0 ? 1 : 0;
  }
  EXPECT_GT(recovered, 0);
}

TEST(QuicTransfer, DeliversExactBytesLossless) {
  QuicHarness harness(net::dsl_profile(), default_config(), 250'000);
  ASSERT_TRUE(harness.run(1));
  EXPECT_EQ(harness.bytes_delivered, 250'000u);
}

TEST(QuicTransfer, DeliversUnderHeavyLoss) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    QuicHarness harness(net::mss_profile(), default_config(), 200'000, seed);
    EXPECT_TRUE(harness.run(1)) << "seed " << seed;
    EXPECT_EQ(harness.bytes_delivered, 200'000u) << "seed " << seed;
  }
}

TEST(QuicTransfer, MultipleStreamsAllComplete) {
  QuicHarness harness(net::lte_profile(), default_config(), 30'000);
  ASSERT_TRUE(harness.run(8));
  EXPECT_EQ(harness.bytes_delivered, 8u * 30'000);
}

TEST(QuicTransfer, ThroughputApproachesLinkRate) {
  QuicHarness harness(net::dsl_profile(), default_config(), 2'000'000);
  ASSERT_TRUE(harness.run(1));
  const double goodput_mbps =
      2'000'000 * 8.0 / to_seconds(harness.simulator.now()) / 1e6;
  EXPECT_GT(goodput_mbps, 15.0);
}

TEST(QuicStreams, ProgressIndependentlyUnderLoss) {
  // With many parallel streams on a lossy link, some streams must complete
  // while others are still blocked on retransmissions — the defining
  // difference from TCP's single byte stream. We verify that stream
  // completions are spread over time rather than all arriving at the end.
  QuicHarness harness(net::da2gc_profile(), default_config(), 25'000, 3);
  harness.connection->connect();
  std::vector<SimTime> completions;
  // Re-wire the completion hook to record times.
  // (QuicHarness counts completions; we approximate spread via run loop.)
  for (std::uint32_t i = 0; i < 6; ++i) {
    harness.connection->client_write_stream(5 + 2 * i, 300, true, 1);
  }
  std::uint64_t last_count = 0;
  std::vector<SimTime> first_last;
  const SimTime end = harness.simulator.now() + seconds(300);
  while (harness.streams_completed < 6 && harness.simulator.now() < end) {
    harness.simulator.run_until(harness.simulator.now() + milliseconds(20));
    if (harness.streams_completed != last_count) {
      last_count = harness.streams_completed;
      first_last.push_back(harness.simulator.now());
    }
  }
  ASSERT_EQ(harness.streams_completed, 6u);
  // First stream completion well before the last.
  EXPECT_GT(first_last.back() - first_last.front(), milliseconds(100));
}

TEST(QuicAckRanges, CanExceedTcpSackLimit) {
  sim::Simulator simulator;
  QuicConfig config;
  int ack_requests = 0;
  QuicReceiveSide receiver(simulator, config, [&] { ++ack_requests; },
                           [](std::uint64_t, std::uint64_t, bool) {});
  // Receive every other packet number: 20 disjoint ranges.
  QuicPacket packet;
  packet.ack_eliciting = true;
  for (std::uint64_t pn = 2; pn <= 40; pn += 2) {
    packet.packet_number = pn;
    receiver.on_packet(packet);
  }
  QuicPacket ack;
  receiver.fill_ack(ack);
  EXPECT_TRUE(ack.has_ack);
  EXPECT_EQ(ack.ack_ranges.size(), 20u);
  EXPECT_GT(ack.ack_ranges.size(), tcp::kMaxSackBlocks);
  // Newest first.
  EXPECT_EQ(ack.ack_ranges.front().first, 40u);
}

TEST(QuicAckRanges, CapsAtConfiguredMaximum) {
  sim::Simulator simulator;
  QuicConfig config;
  config.max_ack_ranges = 8;
  QuicReceiveSide receiver(simulator, config, [] {},
                           [](std::uint64_t, std::uint64_t, bool) {});
  QuicPacket packet;
  packet.ack_eliciting = true;
  for (std::uint64_t pn = 2; pn <= 60; pn += 2) {
    packet.packet_number = pn;
    receiver.on_packet(packet);
  }
  QuicPacket ack;
  receiver.fill_ack(ack);
  EXPECT_EQ(ack.ack_ranges.size(), 8u);
}

// Seeded packet-number arrivals against the receiver's range bookkeeping as
// the std::set of packet numbers it summarizes: every duplicate flag and
// every ACK frame's ranges (newest first, capped at 256) must match. The
// stream runs 4000 packet numbers; one in five is held back, and two thirds
// of those arrive up to 600 positions late (reordering that extends, joins
// or splits ranges deep in the history) while the rest never arrive (more
// permanent gaps than the cap); one in nine arrivals is repeated.
TEST(QuicReceiveSide, AckRangesMatchSetReference) {
  sim::Simulator simulator;
  trace::MemorySink sink;
  simulator.set_trace(&sink);
  QuicConfig config;
  QuicReceiveSide receiver(simulator, config, [] {},
                           [](std::uint64_t, std::uint64_t, bool) {});
  Rng rng(20190101);

  std::vector<std::uint64_t> arrivals;
  std::vector<std::pair<std::size_t, std::uint64_t>> held;  // (due position, pn)
  for (std::uint64_t pn = 1; pn <= 4000; ++pn) {
    if (rng.uniform() < 1.0 / 5.0) {
      if (rng.uniform() >= 1.0 / 3.0) {
        held.emplace_back(arrivals.size() + 1 + static_cast<std::size_t>(rng.uniform() * 600), pn);
      }
    } else {
      arrivals.push_back(pn);
    }
    if (!arrivals.empty() && rng.uniform() < 1.0 / 9.0) {
      arrivals.push_back(arrivals[static_cast<std::size_t>(rng.uniform() *
                                                           static_cast<double>(arrivals.size()))]);
    }
    for (auto it = held.begin(); it != held.end();) {
      if (it->first <= arrivals.size()) {
        arrivals.push_back(it->second);
        it = held.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& [due, pn] : held) arrivals.push_back(pn);

  std::set<std::uint64_t> reference;
  std::size_t duplicates = 0;
  std::size_t max_gaps = 0;
  for (const std::uint64_t pn : arrivals) {
    QuicPacket packet;
    packet.packet_number = pn;
    packet.ack_eliciting = true;
    receiver.on_packet(packet);
    const bool expected_duplicate = !reference.insert(pn).second;
    duplicates += expected_duplicate ? 1 : 0;
    ASSERT_EQ(sink.events().back().type, trace::EventType::kPacketReceived);
    EXPECT_EQ(sink.events().back().value, expected_duplicate ? 1u : 0u) << "pn " << pn;

    std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;
    std::size_t ranges = 0;
    for (auto it = reference.rbegin(); it != reference.rend(); ++ranges) {
      const std::uint64_t last = *it;
      std::uint64_t first = last;
      for (++it; it != reference.rend() && *it == first - 1; ++it) first = *it;
      if (expected.size() < config.max_ack_ranges) expected.emplace_back(first, last);
    }
    max_gaps = std::max(max_gaps, ranges - 1);
    EXPECT_EQ(receiver.ack_range_count(), ranges) << "pn " << pn;

    QuicPacket ack;
    receiver.fill_ack(ack);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> emitted;
    for (const AckRange& range : ack.ack_ranges) emitted.emplace_back(range.first, range.second);
    ASSERT_EQ(emitted, expected) << "after pn " << pn;
  }
  EXPECT_GT(duplicates, 300u);
  EXPECT_GT(max_gaps, std::size_t{config.max_ack_ranges});
}

TEST(QuicReceiveSide, ReassemblesStreamsIndependently) {
  sim::Simulator simulator;
  QuicConfig config;
  struct Progress {
    std::uint64_t bytes = 0;
    bool fin = false;
  };
  std::map<std::uint64_t, Progress> progress;
  QuicReceiveSide receiver(simulator, config, [] {},
                           [&](std::uint64_t stream, std::uint64_t bytes, bool fin) {
                             progress[stream] = {bytes, fin};
                           });
  QuicPacket p1;
  p1.packet_number = 1;
  p1.ack_eliciting = true;
  p1.frames.push_back(simulator.arena(), StreamFrame{5, 0, 1000, false});
  p1.frames.push_back(simulator.arena(), StreamFrame{7, 500, 500, true});  // stream 7 has a hole
  receiver.on_packet(p1);
  EXPECT_EQ(progress[5].bytes, 1000u);
  EXPECT_EQ(progress.count(7), 0u);  // no contiguous progress yet

  QuicPacket p2;
  p2.packet_number = 2;
  p2.ack_eliciting = true;
  p2.frames.push_back(simulator.arena(), StreamFrame{7, 0, 500, false});  // fill stream 7's hole
  receiver.on_packet(p2);
  EXPECT_EQ(progress[7].bytes, 1000u);
  EXPECT_TRUE(progress[7].fin);
  EXPECT_FALSE(progress[5].fin);
}

TEST(QuicReceiveSide, DuplicatePacketsIgnored) {
  sim::Simulator simulator;
  QuicConfig config;
  std::uint64_t delivered = 0;
  QuicReceiveSide receiver(simulator, config, [] {},
                           [&](std::uint64_t, std::uint64_t bytes, bool) {
                             delivered = bytes;
                           });
  QuicPacket packet;
  packet.packet_number = 1;
  packet.ack_eliciting = true;
  packet.frames.push_back(simulator.arena(), StreamFrame{5, 0, 1000, false});
  receiver.on_packet(packet);
  receiver.on_packet(packet);  // duplicate
  EXPECT_EQ(delivered, 1000u);
  EXPECT_EQ(receiver.stream_delivered(5), 1000u);
}

TEST(QuicFlowControl, WindowUpdatesFlowBack) {
  // Transfer larger than the stream flow-control window: completion proves
  // MAX_STREAM_DATA credit kept flowing.
  QuicConfig config = default_config();
  config.stream_flow_window_bytes = 64 * 1024;
  config.connection_flow_window_bytes = 96 * 1024;
  QuicHarness harness(net::dsl_profile(), config, 500'000);
  ASSERT_TRUE(harness.run(1));
  EXPECT_EQ(harness.bytes_delivered, 500'000u);
}

TEST(QuicStats, RetransmissionsUnderLoss) {
  QuicHarness harness(net::da2gc_profile(), default_config(), 150'000, 5);
  ASSERT_TRUE(harness.run(1, seconds(300)));
  EXPECT_GT(harness.connection->stats().retransmissions, 0u);
}

// --- Impairment-layer regressions (bugs flushed out by `qperc torture`) ---

TEST(QuicImpairment, DuplicateStormDeliversStreamBytesExactlyOnce) {
  net::NetworkProfile profile = net::dsl_profile();
  profile.impairments.duplicate_rate = 0.4;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    QuicHarness harness(profile, default_config(), 120'000, seed);
    ASSERT_TRUE(harness.run(2)) << "seed " << seed;
    // Byte-exact on both streams: the receive side's duplicate tracking
    // (receive_side.cpp) must discard every link-level copy.
    EXPECT_EQ(harness.bytes_delivered, 240'000u) << "seed " << seed;
    EXPECT_GT(harness.network->downlink_stats().duplicates, 0u) << "seed " << seed;
  }
}

// The paper's ACK-range-capacity mechanism (§4.3): with max_ack_ranges
// pinned far below the holes heavy reordering opens, ACK frames can never
// describe the full receive state. The send side must still retire every
// in-flight packet — the capped ACK must not strand packets in flight.
TEST(QuicImpairment, ReorderingBeyondAckRangeCapRetiresAllPackets) {
  QuicConfig config = default_config();
  config.max_ack_ranges = 2;
  net::NetworkProfile profile = net::dsl_profile();
  profile.impairments.reorder_rate = 0.4;
  profile.impairments.reorder_delay_min = milliseconds(2);
  profile.impairments.reorder_delay_max = milliseconds(60);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    QuicHarness harness(profile, config, 400'000, seed);
    ASSERT_TRUE(harness.run(1, seconds(240))) << "seed " << seed;
    EXPECT_EQ(harness.bytes_delivered, 400'000u) << "seed " << seed;
    EXPECT_GT(harness.network->downlink_stats().reordered, 0u) << "seed " << seed;
  }
}

TEST(QuicImpairment, SurvivesGilbertElliottBurstsAndFlaps) {
  net::NetworkProfile profile = net::lte_profile();
  profile.impairments.gilbert_elliott = net::GilbertElliott{
      .enter_bad = 0.02, .exit_bad = 0.3, .loss_good = 0.0, .loss_bad = 0.5};
  profile.impairments.outage_start = SimTime{milliseconds(500)};
  profile.impairments.outage_duration = milliseconds(200);
  profile.impairments.outage_interval = seconds(2);
  QuicHarness harness(profile, default_config(), 120'000, 3);
  ASSERT_TRUE(harness.run(1, seconds(240)));
  EXPECT_EQ(harness.bytes_delivered, 120'000u);
  EXPECT_GT(harness.connection->stats().retransmissions, 0u);
}

}  // namespace
}  // namespace qperc::quic
