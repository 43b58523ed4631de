// White-box tests of the QUIC sender's loss detection and probe timers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "quic/send_side.hpp"
#include "sim/simulator.hpp"
#include "trace/memory_sink.hpp"

namespace qperc::quic {
namespace {

/// Harness around a bare QuicSendSide capturing emitted packets.
struct SenderHarness {
  sim::Simulator simulator;
  std::vector<QuicPacket> sent;
  QuicSendSide sender;

  explicit SenderHarness(QuicConfig config = QuicConfig{})
      : sender(simulator, config, [this](QuicPacket packet) {
          sent.push_back(std::move(packet));
        }) {}

  /// Delivers an ACK covering the given packet-number ranges.
  void ack(std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> ranges) {
    QuicPacket ack_packet;
    ack_packet.has_ack = true;
    for (const auto& range : ranges) {
      ack_packet.ack_ranges.emplace_back(simulator.arena(), range.first, range.second);
    }
    sender.on_ack_frame(ack_packet);
  }

  /// Counts total stream bytes across sent packets [from, to).
  std::size_t packets_sent() const { return sent.size(); }
};

/// What the long-history scenario below observed.
struct HistoryRun {
  std::vector<std::uint64_t> spurious_losses;           // kSpuriousLoss ids, in order
  std::vector<std::uint64_t> reference_spurious_losses;  // the same, per the reference
  std::uint64_t spurious_timeouts = 0;
  std::uint64_t reference_spurious_timeouts = 0;
  std::vector<std::uint64_t> cwnd_after_ack;
  std::size_t max_ranges = 0;
  // Declared-lost packet numbers never acked, below the lowest live one.
  std::size_t lost_below_live = 0;
  std::size_t pto_lost_below_live = 0;
};

/// Drives one traced connection through a long history: every round loses
/// two ACK-only packets (a gap in the peer's record, never a data loss), so
/// the peer's ACK frames fill all 256 ranges and keep re-sending ranges
/// from the start of the connection. Some data packets are truly lost
/// (threshold-declared and never acked), some arrive late (threshold-
/// declared, then acked: spurious), and an ACK blackout makes the probe
/// timeout declare both packets that did arrive (spurious undo) and packets
/// that never will. The lost packet numbers of the last two kinds sit below
/// the lowest live packet number for the rest of the connection.
///
/// Alongside the sender runs the reference algorithm the sender used before
/// its ACK walk stopped early: for each range, newest first, erase every
/// PTO-declared packet number inside it (any hit makes this ACK's undo),
/// then report every declared-lost packet number inside it, ascending.
///
/// `dense_losses` adds a hashed one-in-eleven data loss and one-in-seventeen
/// late arrival on top, so lost packet numbers sit in most gaps between the
/// ranges rather than a few.
HistoryRun run_long_history(cc::CcKind controller, bool dense_losses = false) {
  QuicConfig config;
  config.congestion_control = controller;
  config.bbr_lt_bw = false;
  config.stream_flow_window_bytes = std::uint64_t{1} << 40;
  config.connection_flow_window_bytes = std::uint64_t{1} << 40;
  SenderHarness harness(config);
  trace::MemorySink sink;
  harness.simulator.set_trace(&sink);
  harness.sender.on_established(milliseconds(20));
  harness.sender.write_stream(5, std::uint64_t{1} << 30, true, 1);

  constexpr int kRounds = 280;
  constexpr int kBlackoutStart = 200;  // no ACK reaches the sender ...
  constexpr int kBlackoutEnd = 230;    // ... until this round,
  constexpr int kOutageEnd = 210;      // and even data pns sent before this round are lost
  constexpr int kLateRounds = 5;

  HistoryRun run;
  std::set<std::uint64_t> received;            // the peer's record of arrivals
  std::vector<std::pair<int, std::uint64_t>> late;  // (arrival round, pn)
  std::set<std::uint64_t> ref_pto_lost;
  std::set<std::uint64_t> ref_lost;
  std::set<std::uint64_t> declared_lost;
  std::size_t delivered = 0;  // harness.sent entries already handed to the peer
  std::size_t seen_events = 0;
  std::size_t seen_spurious = 0;

  for (int round = 0; round < kRounds; ++round) {
    // Two lost ACK-only packets, each after some data: two more gaps per round.
    for (int half = 0; half < 2; ++half) {
      harness.simulator.run_until(harness.simulator.now() + milliseconds(5));
      (void)harness.sender.make_control_packet();
    }

    // Hand this round's data packets to the peer, losing the first one of
    // every 20th round for good and delaying the first one of the rounds in
    // between past the reorder threshold.
    for (std::size_t i = delivered; i < harness.sent.size(); ++i) {
      const std::uint64_t pn = harness.sent[i].packet_number;
      const bool first_of_round = i == delivered;
      if (round >= kBlackoutStart && round < kOutageEnd && pn % 2 == 0) continue;
      if (first_of_round && round % 20 == 0) continue;
      if (first_of_round && round % 20 == 10) {
        late.emplace_back(round + kLateRounds, pn);
        continue;
      }
      const std::uint64_t hash = pn * 0x9e3779b97f4a7c15ULL >> 32;
      if (dense_losses && hash % 11 == 0) continue;
      if (dense_losses && hash % 17 == 0) {
        late.emplace_back(round + kLateRounds, pn);
        continue;
      }
      received.insert(pn);
    }
    delivered = harness.sent.size();
    for (const auto& [arrival, pn] : late) {
      if (arrival == round) received.insert(pn);
    }
    if (round >= kBlackoutStart && round < kBlackoutEnd) continue;

    // The peer's ACK: newest ranges first, capped like QuicReceiveSide.
    QuicPacket ack_packet;
    ack_packet.has_ack = true;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    for (auto it = received.rbegin(); it != received.rend();) {
      const std::uint64_t last = *it;
      std::uint64_t first = last;
      for (++it; it != received.rend() && *it == first - 1; ++it) first = *it;
      if (ranges.size() == config.max_ack_ranges) break;
      ranges.emplace_back(first, last);
    }
    run.max_ranges = std::max(run.max_ranges, ranges.size());
    for (const auto& [first, last] : ranges) {
      ack_packet.ack_ranges.emplace_back(harness.simulator.arena(), first, last);
    }

    // Fold the losses declared since the last ACK into the reference sets,
    // then predict this ACK's spurious losses and undo.
    for (; seen_events < sink.events().size(); ++seen_events) {
      const trace::Event& event = sink.events()[seen_events];
      if (event.type != trace::EventType::kPacketLost) continue;
      ref_lost.insert(event.id);
      declared_lost.insert(event.id);
      if (event.value == 1) ref_pto_lost.insert(event.id);
    }
    bool ref_undo = false;
    for (const auto& [first, last] : ranges) {
      for (auto it = ref_pto_lost.lower_bound(first); it != ref_pto_lost.end() && *it <= last;) {
        ref_undo = true;
        it = ref_pto_lost.erase(it);
      }
      for (auto it = ref_lost.lower_bound(first); it != ref_lost.end() && *it <= last;) {
        run.reference_spurious_losses.push_back(*it);
        it = ref_lost.erase(it);
      }
    }
    if (ref_undo) ++run.reference_spurious_timeouts;

    harness.sender.on_ack_frame(ack_packet);
    run.cwnd_after_ack.push_back(harness.sender.controller().congestion_window());
    for (; seen_spurious < sink.events().size(); ++seen_spurious) {
      const trace::Event& event = sink.events()[seen_spurious];
      if (event.type == trace::EventType::kSpuriousLoss) run.spurious_losses.push_back(event.id);
    }
  }
  run.spurious_timeouts = harness.sender.stats().spurious_timeouts;
  // Every arrival was covered by a later ACK, so the sender's live packets
  // are the data packets that neither arrived nor were declared lost.
  for (const trace::Event& event : sink.of_type(trace::EventType::kPacketLost)) {
    declared_lost.insert(event.id);
  }
  std::uint64_t lowest_live = harness.sent.back().packet_number + 1;
  for (const QuicPacket& packet : harness.sent) {
    const std::uint64_t pn = packet.packet_number;
    if (!received.contains(pn) && !declared_lost.contains(pn)) {
      lowest_live = std::min(lowest_live, pn);
    }
  }
  for (const std::uint64_t pn : ref_lost) run.lost_below_live += pn < lowest_live ? 1 : 0;
  for (const std::uint64_t pn : ref_pto_lost) run.pto_lost_below_live += pn < lowest_live ? 1 : 0;
  return run;
}

TEST(QuicSendSide, SendsAfterEstablishment) {
  SenderHarness harness;
  harness.sender.write_stream(5, 10'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(10)));
  EXPECT_EQ(harness.packets_sent(), 0u);  // not established yet
  harness.sender.on_established(milliseconds(50));
  harness.simulator.run_until(SimTime(milliseconds(20)));
  EXPECT_GT(harness.packets_sent(), 0u);
}

TEST(QuicSendSide, PacketThresholdLossTriggersRetransmission) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(100)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GE(initial, 5u);

  // ACK packets 4..N, skipping 1..3: pn 1..3 are >=3 behind the largest.
  const std::uint64_t largest = harness.sent[initial - 1].packet_number;
  harness.ack({{4, largest}});
  harness.simulator.run_until(harness.simulator.now() + milliseconds(50));
  EXPECT_GT(harness.packets_sent(), initial);  // lost frames re-sent
  EXPECT_GT(harness.sender.stats().retransmissions, 0u);
  EXPECT_EQ(harness.sender.stats().congestion_events, 1u);
}

TEST(QuicSendSide, ReorderingBelowThresholdIsNotLoss) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 8'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(100)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GE(initial, 3u);
  // ACK only the second packet: gap of one — below the packet threshold,
  // and the time threshold has not elapsed yet.
  harness.ack({{2, 2}});
  EXPECT_EQ(harness.sender.stats().retransmissions, 0u);
}

TEST(QuicSendSide, ProbeTimeoutFiresWithoutAcks) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 3'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(80)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GT(initial, 0u);
  // No ACK ever arrives: the PTO must fire and probe.
  harness.simulator.run_until(SimTime(seconds(2)));
  EXPECT_GT(harness.sender.stats().tail_probes, 0u);
  EXPECT_GT(harness.packets_sent(), initial);
}

TEST(QuicSendSide, PtoBacksOffExponentially) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 1'000, true, 1);
  harness.simulator.run_until(SimTime(seconds(10)));
  // Repeated unanswered probes escalate into timeout statistics.
  EXPECT_GE(harness.sender.stats().tail_probes, 3u);
  EXPECT_GE(harness.sender.stats().timeouts, 1u);
  // With exponential backoff, probe count grows logarithmically: far fewer
  // than the linear-timer worst case.
  EXPECT_LE(harness.sender.stats().tail_probes, 12u);
}

TEST(QuicSendSide, LateAckForPtoMarkedPacketsIsSpurious) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(100)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GE(initial, 5u);
  // No ACKs arrive: the probe timeout escalates and starts declaring the
  // oldest packets of the flight lost.
  harness.simulator.run_until(SimTime(seconds(3)));
  ASSERT_GE(harness.sender.stats().timeouts, 1u);
  EXPECT_EQ(harness.sender.stats().spurious_timeouts, 0u);
  // The original flight's ACK finally lands (it was delayed, never dropped):
  // that proves the timeouts spurious — the backoff resets and the undo is
  // counted, instead of the timeout storm re-sending a flight the peer
  // already has.
  const std::uint64_t largest = harness.sent[initial - 1].packet_number;
  harness.ack({{1, largest}});
  EXPECT_GE(harness.sender.stats().spurious_timeouts, 1u);
}

TEST(QuicSendSide, AckOfRetransmittedDataIsNotSpurious) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(100)));
  const std::size_t initial = harness.packets_sent();
  harness.simulator.run_until(SimTime(seconds(3)));
  ASSERT_GT(harness.packets_sent(), initial);  // PTO probes went out
  // ACK only packets sent *after* the timeouts (the retransmissions): the
  // originals really were lost, so no spurious undo may fire.
  const std::uint64_t first_retx = harness.sent[initial].packet_number;
  const std::uint64_t largest = harness.sent.back().packet_number;
  harness.ack({{first_retx, largest}});
  EXPECT_EQ(harness.sender.stats().spurious_timeouts, 0u);
}

TEST(QuicSendSide, OneCongestionEventPerLossEpisode) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 60'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(200)));
  const std::size_t initial = harness.packets_sent();
  ASSERT_GE(initial, 10u);
  const std::uint64_t largest = harness.sent[initial - 1].packet_number;
  // Two separate ACKs each revealing losses from the same flight.
  harness.ack({{6, 8}});
  harness.ack({{10, largest}});
  EXPECT_EQ(harness.sender.stats().congestion_events, 1u);
}

TEST(QuicSendSide, StreamPriorityOrdersFrames) {
  SenderHarness harness;
  harness.sender.on_established(milliseconds(50));
  // Low-priority stream written first, high-priority second.
  harness.sender.write_stream(5, 50'000, true, /*priority=*/3);
  harness.sender.write_stream(7, 50'000, true, /*priority=*/0);
  harness.simulator.run_until(SimTime(milliseconds(15)));
  ASSERT_GE(harness.packets_sent(), 15u);
  // The pacer's 10-packet initial burst leaves during the first
  // write_stream call (stream 5 only); once stream 7 exists, its higher
  // priority must dominate the paced packets.
  std::uint64_t stream7_bytes = 0;
  std::uint64_t stream5_bytes = 0;
  for (std::size_t i = 10; i < harness.packets_sent(); ++i) {
    for (const auto& frame : harness.sent[i].frames) {
      (frame.stream_id == 7 ? stream7_bytes : stream5_bytes) += frame.length;
    }
  }
  EXPECT_GT(stream7_bytes, stream5_bytes);
}

TEST(QuicSendSide, ControlPacketsConsumePacketNumbers) {
  SenderHarness harness;
  const auto first = harness.sender.make_control_packet();
  const auto second = harness.sender.make_control_packet();
  EXPECT_EQ(second.packet_number, first.packet_number + 1);
  EXPECT_FALSE(first.ack_eliciting);
}

TEST(QuicSendSide, WindowUpdatesUnblockStreams) {
  QuicConfig config;
  config.stream_flow_window_bytes = 4'000;
  config.connection_flow_window_bytes = 1'000'000;
  SenderHarness harness(config);
  harness.sender.on_established(milliseconds(50));
  harness.sender.write_stream(5, 20'000, true, 1);
  harness.simulator.run_until(SimTime(milliseconds(50)));
  std::uint64_t sent_bytes = 0;
  for (const auto& packet : harness.sent) {
    for (const auto& frame : packet.frames) sent_bytes += frame.length;
  }
  EXPECT_LE(sent_bytes, 4'000u);  // blocked at the stream window

  QuicPacket update;
  update.window_updates.push_back(harness.simulator.arena(), WindowUpdate{5, 20'000});
  harness.sender.on_window_updates(update);
  harness.simulator.run_until(harness.simulator.now() + milliseconds(50));
  sent_bytes = 0;
  for (const auto& packet : harness.sent) {
    for (const auto& frame : packet.frames) sent_bytes += frame.length;
  }
  EXPECT_GT(sent_bytes, 4'000u);
}

// Congestion window after each ACK of run_long_history, recorded from the
// sender whose ACK walk still visited every range and lost-set entry. The
// early-stop walk must reproduce them exactly: same acks, same sampler order,
// same undo decisions.
constexpr std::uint64_t kReferenceCubicCwnd[] = {
    31591, 31698, 32097, 32727, 33479, 34243, 34982, 35680, 36419, 37116, 27371, 27723,
    28452, 29210, 29911, 30665, 31366, 32115, 32814, 33558, 24833, 25214, 25934, 26692,
    27389, 28142, 28837, 29585, 30279, 31024, 23037, 23456, 24195, 24885, 25637, 26326,
    27073, 27833, 28534, 29291, 21853, 22248, 22983, 23753, 24454, 25219, 25918, 26676,
    27374, 28127, 21016, 21400, 22113, 22870, 23558, 24312, 25078, 25780, 26544, 27243,
    20485, 20842, 21583, 22269, 23022, 23791, 24491, 25254, 25953, 26710, 20026, 20392,
    21182, 21877, 22644, 23337, 24098, 24791, 25545, 26236, 19742, 20093, 20803, 21564,
    22248, 23003, 23772, 24472, 25237, 25935, 19563, 19903, 20624, 21391, 22080, 22841,
    23529, 24283, 24971, 25720, 19437, 19768, 20497, 21268, 21961, 22725, 23418, 24174,
    24866, 25617, 19228, 19661, 20391, 21165, 21862, 22629, 23324, 24084, 24777, 25532,
    19177, 19609, 20341, 21117, 21815, 22584, 23279, 24042, 24736, 25491, 19152, 19583,
    20316, 21094, 21792, 22562, 23258, 24021, 24715, 25472, 19141, 19571, 20306, 21083,
    21781, 22552, 23249, 24011, 24706, 25463, 19136, 19566, 20300, 21078, 21777, 22548,
    23243, 24008, 24701, 25459, 19134, 19563, 20297, 21076, 21774, 22546, 23241, 24005,
    24700, 25457, 19132, 19561, 20296, 21074, 21773, 22544, 23240, 24003, 24699, 25455,
    19131, 19560, 20296, 21073, 21772, 22543, 23239, 24003, 24698, 25454, 19130, 19560,
    20294, 21072, 21772, 22542, 23238, 24003, 24696, 25455, 18223, 18800, 19440, 20212,
    20947, 21701, 22471, 23170, 23936, 24633, 18645, 18967, 19769, 20464, 21236, 21931,
    22697, 23388, 24148, 24838, 18765, 19095, 19889, 20580, 21349, 22040, 22801, 23491,
    24247, 24935, 18822, 19156, 19946, 20635, 21403, 22092, 22851, 23541, 24293, 24982,
    18850, 19186, 19973, 20662, 21429, 22117, 22876, 23564, 24317, 25083};
constexpr std::uint64_t kReferenceBbrCwnd[] = {
    47002, 66888, 95555, 135688, 192583, 272400, 384128, 541073, 761299, 1070513, 1068264,
    1502241, 2110707, 2964653, 4164489, 5847724, 8210925, 11528369, 13500000, 13500000,
    13424058, 13138150, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400, 5400,
    5400, 5400, 5400, 5400, 5400, 5400, 5400};

TEST(QuicSendSide, LongHistoryAckWalkMatchesReference) {
  const std::pair<cc::CcKind, std::vector<std::uint64_t>> cases[] = {
      {cc::CcKind::kCubic, {std::begin(kReferenceCubicCwnd), std::end(kReferenceCubicCwnd)}},
      {cc::CcKind::kBbr, {std::begin(kReferenceBbrCwnd), std::end(kReferenceBbrCwnd)}},
  };
  for (const auto& [controller, reference_cwnd] : cases) {
    const HistoryRun run = run_long_history(controller);
    // The scenario reaches what it is built to: full 256-range ACKs,
    // spurious threshold and PTO losses, and declared-lost packet numbers
    // (of both kinds) stranded below the lowest live one.
    EXPECT_EQ(run.max_ranges, 256u);
    EXPECT_GE(run.spurious_losses.size(), 10u);
    EXPECT_GE(run.reference_spurious_timeouts, 1u);
    EXPECT_GE(run.lost_below_live, 10u);
    EXPECT_GE(run.pto_lost_below_live, 1u);

    EXPECT_EQ(run.spurious_losses, run.reference_spurious_losses);
    EXPECT_EQ(run.spurious_timeouts, run.reference_spurious_timeouts);
    EXPECT_EQ(run.cwnd_after_ack, reference_cwnd);
  }
}

TEST(QuicSendSide, DenseLossAckWalkMatchesReference) {
  for (const cc::CcKind controller : {cc::CcKind::kCubic, cc::CcKind::kBbr}) {
    const HistoryRun run = run_long_history(controller, /*dense_losses=*/true);
    EXPECT_EQ(run.max_ranges, 256u);
    EXPECT_GE(run.spurious_losses.size(), 50u);
    EXPECT_GE(run.lost_below_live, 50u);
    EXPECT_EQ(run.spurious_losses, run.reference_spurious_losses);
    EXPECT_EQ(run.spurious_timeouts, run.reference_spurious_timeouts);
  }
}

}  // namespace
}  // namespace qperc::quic
