// TCP stack tests: handshake cost, reliability under loss, Table-1 knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <utility>
#include <vector>

#include "net/impairments.hpp"
#include "tcp/sender.hpp"
#include "trace/memory_sink.hpp"
#include "tests/transport_test_util.hpp"

namespace qperc::tcp {
namespace {

using testutil::TcpHarness;

TcpConfig stock_config() { return TcpConfig{}; }

TcpConfig tuned_config() {
  TcpConfig config;
  config.initial_window_segments = 32;
  config.pacing = true;
  config.tuned_buffers = true;
  config.slow_start_after_idle = false;
  return config;
}

TEST(TcpHandshake, TakesTwoRttsBeforeData) {
  TcpHarness harness(net::dsl_profile(), stock_config(), 10'000);
  ASSERT_TRUE(harness.run());
  // 2 round trips of 24 ms each (plus serialization of small packets).
  EXPECT_GE(harness.established_at, SimTime(milliseconds(48)));
  EXPECT_LE(harness.established_at, SimTime(milliseconds(60)));
}

TEST(TcpHandshake, SurvivesSynLoss) {
  // MSS has 6% random loss; across seeds some handshakes lose packets and
  // must recover via the 1-second handshake timer.
  int recovered_with_retx = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    TcpHarness harness(net::mss_profile(), stock_config(), 5'000, seed);
    ASSERT_TRUE(harness.run()) << seed;
    recovered_with_retx +=
        harness.connection->stats().handshake_retransmissions > 0 ? 1 : 0;
  }
  EXPECT_GT(recovered_with_retx, 0);
}

TEST(TcpTransfer, DeliversExactByteCountLossless) {
  TcpHarness harness(net::dsl_profile(), stock_config(), 250'000);
  ASSERT_TRUE(harness.run());
  EXPECT_EQ(harness.delivered, 250'000u);
}

TEST(TcpTransfer, DeliversUnderHeavyLoss) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TcpHarness harness(net::mss_profile(), stock_config(), 200'000, seed);
    EXPECT_TRUE(harness.run()) << "seed " << seed;
    EXPECT_EQ(harness.delivered, 200'000u) << "seed " << seed;
    EXPECT_GT(harness.connection->stats().retransmissions, 0u) << "seed " << seed;
  }
}

TEST(TcpTransfer, RequestPathDeliversToo) {
  TcpHarness harness(net::lte_profile(), stock_config(), 1'000);
  harness.connection->client_write(5'000);
  ASSERT_TRUE(harness.run());
  // The response may finish before the request stream drains; keep running.
  const SimTime deadline = harness.simulator.now() + seconds(30);
  while (harness.request_delivered < 5'000 && harness.simulator.now() < deadline) {
    harness.simulator.run_until(harness.simulator.now() + milliseconds(50));
  }
  EXPECT_EQ(harness.request_delivered, 5'000u);
}

TEST(TcpTransfer, ThroughputApproachesLinkRateWhenTuned) {
  // 2 MB over DSL downlink (25 Mbps): ideal ~0.64 s + handshake.
  TcpHarness harness(net::dsl_profile(), tuned_config(), 2'000'000);
  ASSERT_TRUE(harness.run());
  const double seconds_taken = to_seconds(harness.simulator.now());
  const double goodput_mbps = 2'000'000 * 8.0 / seconds_taken / 1e6;
  EXPECT_GT(goodput_mbps, 15.0);  // at least 60% of the link
}

TEST(TcpTuning, StockReceiveWindowLimitsHighBdpTransfer) {
  // MSS: 1.89 Mbps x 760 ms BDP ~ 180 kB, but the stock window starts at
  // 64 kB — the tuned stack must finish a window-bound transfer faster.
  TcpHarness stock(net::mss_profile(), stock_config(), 600'000, 3);
  ASSERT_TRUE(stock.run(seconds(300)));
  TcpHarness tuned(net::mss_profile(), tuned_config(), 600'000, 3);
  ASSERT_TRUE(tuned.run(seconds(300)));
  EXPECT_LT(tuned.simulator.now(), stock.simulator.now());
}

TEST(TcpTuning, LargerInitialWindowSpeedsShortTransfers) {
  TcpConfig iw10 = stock_config();
  TcpConfig iw32 = stock_config();
  iw32.initial_window_segments = 32;
  // 40 kB needs ~28 segments: IW32 does it in one flight, IW10 needs three.
  TcpHarness slow(net::lte_profile(), iw10, 40'000);
  ASSERT_TRUE(slow.run());
  TcpHarness fast(net::lte_profile(), iw32, 40'000);
  ASSERT_TRUE(fast.run());
  EXPECT_LT(fast.finished_at, slow.finished_at);
  // At least one round trip (74 ms) of advantage on LTE.
  EXPECT_GT(slow.finished_at - fast.finished_at, milliseconds(60));
}

TEST(TcpTuning, PacingReducesInitialFlightQueueDrops) {
  // A single IW32 flight (45 kB) into DSL's 12 ms downlink queue (37.5 kB):
  // the unpaced burst overflows the queue, the paced flight lets it drain.
  TcpConfig burst = stock_config();
  burst.initial_window_segments = 32;
  burst.pacing = false;
  TcpConfig paced = burst;
  paced.pacing = true;
  TcpHarness a(net::dsl_profile(), burst, 45'000, 1);
  ASSERT_TRUE(a.run());
  TcpHarness b(net::dsl_profile(), paced, 45'000, 1);
  ASSERT_TRUE(b.run());
  EXPECT_GT(a.network->downlink_stats().drops_queue_full, 0u);
  EXPECT_LT(b.network->downlink_stats().drops_queue_full,
            a.network->downlink_stats().drops_queue_full);
}

TEST(TcpSackLimit, ReceiverAdvertisesAtMostThreeBlocks) {
  EXPECT_EQ(kMaxSackBlocks, 3u);
  sim::Simulator simulator;
  TcpConfig config;
  int acks = 0;
  TcpSegment last_ack;
  TcpReceiver receiver(simulator, config, 1'000'000, [&] { ++acks; },
                       [](std::uint64_t) {});
  // Five separated holes: 10 ranges would exist, only 3 may be advertised.
  for (std::uint64_t i = 0; i < 5; ++i) {
    receiver.on_data(10'000 * (i + 1), 1'000);
  }
  receiver.fill_ack(last_ack);
  EXPECT_EQ(last_ack.sacks().size(), 3u);
  EXPECT_EQ(last_ack.cumulative_ack, 0u);
  // Most recently received range first (RFC 2018).
  EXPECT_EQ(last_ack.sack_blocks[0].start, 50'000u);
}

TEST(TcpReceiver, ReassemblesOutOfOrderData) {
  sim::Simulator simulator;
  TcpConfig config;
  std::uint64_t delivered = 0;
  TcpReceiver receiver(simulator, config, 1'000'000, [] {},
                       [&](std::uint64_t t) { delivered = t; });
  receiver.on_data(1'000, 1'000);  // hole at [0, 1000)
  EXPECT_EQ(delivered, 0u);
  receiver.on_data(0, 1'000);  // fill the hole
  EXPECT_EQ(delivered, 2'000u);
}

TEST(TcpReceiver, DuplicateDataDoesNotRegress) {
  sim::Simulator simulator;
  TcpConfig config;
  std::uint64_t delivered = 0;
  TcpReceiver receiver(simulator, config, 1'000'000, [] {},
                       [&](std::uint64_t t) { delivered = t; });
  receiver.on_data(0, 2'000);
  receiver.on_data(0, 1'000);  // spurious retransmission
  EXPECT_EQ(delivered, 2'000u);
}

TEST(TcpReceiver, AutotuneGrowsWindow) {
  sim::Simulator simulator;
  TcpConfig config;  // stock: autotuning from 64 kB
  TcpReceiver receiver(simulator, config, config.autotune_initial_rwnd_bytes, [] {},
                       [](std::uint64_t) {});
  EXPECT_EQ(receiver.rwnd_limit(), 64u * 1024);
  std::uint64_t seq = 0;
  for (int i = 0; i < 50; ++i) {
    receiver.on_data(seq, 1460 * 2);
    seq += 1460 * 2;
  }
  EXPECT_GT(receiver.rwnd_limit(), 64u * 1024);
}

TEST(TcpReceiver, TunedWindowDoesNotAutotune) {
  sim::Simulator simulator;
  TcpConfig config;
  config.tuned_buffers = true;
  TcpReceiver receiver(simulator, config, 500'000, [] {}, [](std::uint64_t) {});
  std::uint64_t seq = 0;
  for (int i = 0; i < 500; ++i) {
    receiver.on_data(seq, 1460 * 2);
    seq += 1460 * 2;
  }
  EXPECT_EQ(receiver.rwnd_limit(), 500'000u);
}

TEST(TcpStats, RetransmissionsCountedUnderLoss) {
  TcpHarness harness(net::da2gc_profile(), tuned_config(), 150'000, 5);
  ASSERT_TRUE(harness.run(seconds(300)));
  const auto stats = harness.connection->stats();
  EXPECT_GT(stats.retransmissions, 0u);
  EXPECT_GT(stats.data_packets_sent, 150'000u / 1460);
  // The final ACKs can be lost on the 3.3%-loss uplink after the application
  // already has all data, so the sender's delivery counter may trail by a
  // few segments.
  EXPECT_LE(stats.bytes_delivered, 150'000u);
  EXPECT_GE(stats.bytes_delivered, 150'000u - 5 * 1460u);
}

TEST(TcpHandshake, TfoTakesOneRtt) {
  TcpConfig config = stock_config();
  config.handshake_rtts = 1;
  TcpHarness harness(net::lte_profile(), config, 10'000);
  ASSERT_TRUE(harness.run());
  // One 74 ms round trip (plus small-packet serialization).
  EXPECT_GE(harness.established_at, SimTime(milliseconds(74)));
  EXPECT_LE(harness.established_at, SimTime(milliseconds(95)));
}

TEST(TcpHandshake, ZeroRttEstablishesImmediately) {
  TcpConfig config = stock_config();
  config.handshake_rtts = 0;
  TcpHarness harness(net::lte_profile(), config, 10'000);
  ASSERT_TRUE(harness.run());
  EXPECT_EQ(harness.established_at, SimTime{0});
  EXPECT_EQ(harness.delivered, 10'000u);
}

TEST(TcpHandshake, FewerRttsFinishFasterInOrder) {
  std::array<SimTime, 3> finished{};
  for (std::uint32_t rtts = 0; rtts <= 2; ++rtts) {
    TcpConfig config = stock_config();
    config.handshake_rtts = rtts;
    TcpHarness harness(net::lte_profile(), config, 30'000, 4);
    EXPECT_TRUE(harness.run()) << rtts;
    finished[rtts] = harness.finished_at;
  }
  EXPECT_LT(finished[0], finished[1]);
  EXPECT_LT(finished[1], finished[2]);
}

TEST(TcpHandshake, ZeroRttSurvivesLoss) {
  TcpConfig config = stock_config();
  config.handshake_rtts = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TcpHarness harness(net::mss_profile(), config, 20'000, seed);
    EXPECT_TRUE(harness.run(seconds(240))) << seed;
    EXPECT_EQ(harness.delivered, 20'000u) << seed;
  }
}

TEST(TcpIdleRestart, StockCollapsesWindowAfterIdle) {
  // Two bursts separated by a long idle period: with slow-start-after-idle
  // the second burst must take longer than back-to-back continuation.
  const auto run_with = [&](bool restart_after_idle) {
    TcpConfig config = tuned_config();
    config.slow_start_after_idle = restart_after_idle;
    TcpHarness harness(net::lte_profile(), config, 300'000, 9);
    harness.run(seconds(60));
    // Second object after 2 s of idle.
    const SimTime idle_end = harness.simulator.now() + seconds(2);
    harness.simulator.run_until(idle_end);
    harness.response_bytes += 300'000;
    harness.push();
    while (harness.delivered < harness.response_bytes &&
           harness.simulator.now() < idle_end + seconds(60)) {
      harness.simulator.run_until(harness.simulator.now() + milliseconds(50));
    }
    return harness.simulator.now() - idle_end;
  };
  const SimDuration with_restart = run_with(true);
  const SimDuration without_restart = run_with(false);
  EXPECT_LT(without_restart, with_restart);
}

// --- Impairment-layer regressions (bugs flushed out by `qperc torture`) ---

// Regression: on_ack_received used to take the receive window from *every*
// ACK. Under reordering, a stale ACK (older cumulative ack, smaller window)
// arriving after a newer one rolled peer_rwnd_ back; with nothing in flight
// and no zero-window probe, the sender never transmitted again — a permanent
// deadlock the torture harness reported as "empty event queue, page
// unfinished". Windows must only come from segments at/beyond SND.UNA.
TEST(TcpImpairment, StaleZeroWindowAckFromReorderingCannotStallSender) {
  sim::Simulator simulator;
  std::vector<TcpSegment> sent;
  TcpSender sender(simulator, TcpConfig{}, /*send_buffer_bytes=*/1 << 20,
                   [&](TcpSegment segment) { sent.push_back(segment); });
  sender.on_established(/*initial_peer_rwnd=*/2920, milliseconds(20));
  sender.write(2920);
  // A short window: long enough for the (unpaced) transmissions, well short
  // of the ~2x srtt tail-loss probe.
  simulator.run_until(simulator.now() + milliseconds(1));
  ASSERT_EQ(sent.size(), 2u);  // two MSS-sized segments fill the window

  TcpSegment fresh;  // acknowledges everything, re-opens a wide window
  fresh.has_ack = true;
  fresh.cumulative_ack = 2920;
  fresh.receive_window_bytes = 64 * 1024;
  sender.on_ack_received(fresh);
  ASSERT_TRUE(sender.all_acked());

  TcpSegment stale;  // the reordered older ACK, advertising the old window
  stale.has_ack = true;
  stale.cumulative_ack = 1460;
  stale.receive_window_bytes = 0;
  sender.on_ack_received(stale);

  // New application data must still go out: the stale zero window is ignored.
  sender.write(1460);
  simulator.run_until(simulator.now() + milliseconds(1));
  EXPECT_EQ(sent.size(), 3u);
}

TEST(TcpImpairment, DuplicateStormDeliversBytesExactlyOnce) {
  net::NetworkProfile profile = net::dsl_profile();
  profile.impairments.duplicate_rate = 0.4;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TcpHarness harness(profile, stock_config(), 150'000, seed);
    ASSERT_TRUE(harness.run()) << "seed " << seed;
    // Byte-exact: duplicated segments must never double-count.
    EXPECT_EQ(harness.delivered, 150'000u) << "seed " << seed;
    EXPECT_GT(harness.network->downlink_stats().duplicates, 0u) << "seed " << seed;
  }
}

// The paper's SACK-capacity mechanism (§4.3): TCP ACKs carry at most
// kMaxSackBlocks (3) SACK blocks. Heavy reordering opens more holes than
// that can describe; the sender must still retire every in-flight segment
// (at worst by spurious retransmission), never wedging on an undescribable
// scoreboard.
TEST(TcpImpairment, ReorderingBeyondSackCapacityRetiresEverySegment) {
  net::NetworkProfile profile = net::dsl_profile();
  profile.impairments.reorder_rate = 0.4;
  profile.impairments.reorder_delay_min = milliseconds(2);
  profile.impairments.reorder_delay_max = milliseconds(60);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TcpHarness harness(profile, stock_config(), 400'000, seed);
    ASSERT_TRUE(harness.run(seconds(240))) << "seed " << seed;
    EXPECT_EQ(harness.delivered, 400'000u) << "seed " << seed;
    EXPECT_GT(harness.network->downlink_stats().reordered, 0u) << "seed " << seed;
  }
}

TEST(TcpImpairment, SurvivesGilbertElliottBurstsAndFlaps) {
  net::NetworkProfile profile = net::lte_profile();
  profile.impairments.gilbert_elliott = net::GilbertElliott{
      .enter_bad = 0.02, .exit_bad = 0.3, .loss_good = 0.0, .loss_bad = 0.5};
  profile.impairments.outage_start = SimTime{milliseconds(500)};
  profile.impairments.outage_duration = milliseconds(200);
  profile.impairments.outage_interval = seconds(2);
  TcpHarness harness(profile, stock_config(), 120'000, 3);
  ASSERT_TRUE(harness.run(seconds(240)));
  EXPECT_EQ(harness.delivered, 120'000u);
  EXPECT_GT(harness.connection->stats().retransmissions, 0u);
}

// A delay spike on the ACK path — every ACK ~800 ms late for 600 ms of sim
// time, nothing actually dropped — makes the RTO fire even though the data
// all arrived. F-RTO-style detection must recognize the late cumulative ACK
// of never-retransmitted segments as proof the timeout was spurious: undo
// the collapse and the backoff instead of re-sending the window.
TEST(TcpImpairment, AckDelaySpikeIsDetectedAsSpuriousRto) {
  TcpHarness harness(net::dsl_profile(), tuned_config(), 6'000'000, 5);
  net::LinkImpairments spike;
  spike.reorder_rate = 1.0;
  spike.reorder_delay_min = milliseconds(800);
  spike.reorder_delay_max = milliseconds(801);
  harness.simulator.schedule_at(SimTime{seconds(1)}, [&harness, spike] {
    harness.network->uplink().set_impairments(spike);
  });
  harness.simulator.schedule_at(SimTime{milliseconds(1600)}, [&harness] {
    harness.network->uplink().set_impairments(net::LinkImpairments{});
  });
  ASSERT_TRUE(harness.run(seconds(120)));
  EXPECT_EQ(harness.delivered, 6'000'000u);
  const net::TransportStats stats = harness.connection->stats();
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_GE(stats.spurious_timeouts, 1u);
}

/// Reference for the sender's segment ring: the same scoreboard algorithm
/// over a plain std::map keyed by start sequence. Fed the sender's own
/// transmissions, probes and timeouts (read back from the trace) and the
/// peer's ACKs, it predicts the pipe, the kPacketLost and kSpuriousLoss
/// events, and which segment every retransmission picks.
class MapScoreboard {
 public:
  using Pair = std::pair<std::uint64_t, std::uint64_t>;

  std::uint64_t pipe = 0;
  std::vector<Pair> lost;           // (seq, by_rto)
  std::vector<Pair> spurious;       // (seq, by_rto)
  std::vector<Pair> retransmitted;  // predicted (seq, transmissions)
  /// Records the sender's SACK walk should examine: those wholly inside a
  /// block and not wholly inside any block of the previous ACK.
  std::uint64_t sack_walked = 0;
  /// Probe or timeout firings while nothing was in flight or awaiting
  /// retransmission: the timer must have been cancelled.
  std::size_t unarmed_timer_fires = 0;

  void on_event(const trace::Event& event) {
    switch (event.type) {
      case trace::EventType::kPacketSent:
        segments_[event.id] = Record{.end = event.id + event.bytes,
                                     .transmissions = 1,
                                     .last_sent = event.time,
                                     .outstanding = true};
        pipe += event.bytes;
        break;
      case trace::EventType::kPacketRetransmitted: {
        // A probe resends the newest outstanding segment; anything else the
        // oldest segment awaiting retransmission.
        auto pick = segments_.end();
        if (probe_pending_) {
          for (auto it = segments_.begin(); it != segments_.end(); ++it) {
            if (it->second.outstanding && !it->second.sacked) pick = it;
          }
        } else {
          pick = std::find_if(segments_.begin(), segments_.end(), [](const auto& entry) {
            return entry.second.lost && !entry.second.sacked;
          });
        }
        probe_pending_ = false;
        retransmitted.emplace_back(pick == segments_.end() ? ~std::uint64_t{0} : pick->first,
                                   pick == segments_.end() ? 0 : pick->second.transmissions + 1);
        // Follow the sender's actual choice so one mismatch does not cascade.
        Record& record = segments_.at(event.id);
        ++record.transmissions;
        record.last_sent = event.time;
        record.lost = false;
        record.lost_by_rto = false;
        if (!record.outstanding) {
          record.outstanding = true;
          pipe += record.end - event.id;
        }
        break;
      }
      case trace::EventType::kTlpFired:
        count_unarmed_fire();
        probe_pending_ = std::any_of(segments_.begin(), segments_.end(), [](const auto& entry) {
          return entry.second.outstanding && !entry.second.sacked;
        });
        break;
      case trace::EventType::kRtoFired:
        count_unarmed_fire();
        for (auto& [start, record] : segments_) {
          if (record.sacked || record.lost) continue;
          record.lost = true;
          record.lost_by_rto = true;
          if (record.outstanding) {
            record.outstanding = false;
            pipe -= record.end - start;
          }
          lost.emplace_back(start, 1);
        }
        break;
      default:
        break;
    }
  }

  void on_ack(const TcpSegment& ack, SimDuration reorder_window) {
    SimTime newest_sent{0};
    bool spurious_rto = false;
    const auto deliver = [&](std::uint64_t start, Record& record) {
      if (record.delivered_counted) return;
      record.delivered_counted = true;
      if (record.lost) spurious.emplace_back(start, record.lost_by_rto ? 1 : 0);
      if (record.lost && record.lost_by_rto && record.transmissions == 1) spurious_rto = true;
      if (record.outstanding) {
        record.outstanding = false;
        pipe -= record.end - start;
      }
      newest_sent = std::max(newest_sent, record.last_sent);
    };
    if (ack.cumulative_ack > cumulative_) {
      for (auto it = segments_.begin();
           it != segments_.end() && it->second.end <= ack.cumulative_ack;) {
        deliver(it->first, it->second);
        it = segments_.erase(it);
      }
      cumulative_ = ack.cumulative_ack;
    }
    for (const SackBlock& block : ack.sacks()) {
      for (auto it = segments_.lower_bound(block.start);
           it != segments_.end() && it->second.end <= block.end; ++it) {
        const bool cached =
            std::any_of(previous_sacks_.begin(), previous_sacks_.end(), [&](const SackBlock& c) {
              return c.start <= it->first && it->second.end <= c.end;
            });
        if (!cached) ++sack_walked;
        if (it->second.sacked) continue;
        it->second.sacked = true;
        deliver(it->first, it->second);
      }
    }
    previous_sacks_.assign(ack.sacks().begin(), ack.sacks().end());
    rack_newest_sent_ = std::max(rack_newest_sent_, newest_sent);
    if (spurious_rto) {
      for (auto& [start, record] : segments_) {
        if (!record.lost || !record.lost_by_rto || record.sacked) continue;
        record.lost = false;
        record.lost_by_rto = false;
        if (!record.outstanding) {
          record.outstanding = true;
          pipe += record.end - start;
        }
      }
    }
    if (rack_newest_sent_ == SimTime{0}) return;
    for (auto& [start, record] : segments_) {
      if (record.sacked || record.lost || !record.outstanding) continue;
      if (record.last_sent + reorder_window < rack_newest_sent_) {
        record.lost = true;
        record.outstanding = false;
        pipe -= record.end - start;
        lost.emplace_back(start, 0);
      }
    }
  }

 private:
  void count_unarmed_fire() {
    const bool lost_pending =
        std::any_of(segments_.begin(), segments_.end(), [](const auto& entry) {
          return entry.second.lost && !entry.second.sacked;
        });
    if (pipe == 0 && !lost_pending) ++unarmed_timer_fires;
  }

  struct Record {
    std::uint64_t end = 0;
    std::uint32_t transmissions = 0;
    SimTime last_sent{0};
    bool sacked = false;
    bool lost = false;
    bool lost_by_rto = false;
    bool outstanding = false;
    bool delivered_counted = false;
  };

  std::map<std::uint64_t, Record> segments_;
  std::vector<SackBlock> previous_sacks_;
  std::uint64_t cumulative_ = 0;
  SimTime rack_newest_sent_{0};
  bool probe_pending_ = false;
};

/// What one long scoreboard history observed, next to the reference's
/// predictions of the same quantities.
struct ScoreboardRun {
  std::vector<std::uint64_t> pipe_after_ack;  // kMetricsUpdated bytes, per ACK
  std::vector<std::uint64_t> reference_pipe_after_ack;
  std::vector<std::uint64_t> bytes_in_flight;  // after the ACK's own sends
  std::vector<std::uint64_t> reference_bytes_in_flight;
  std::vector<std::uint64_t> cwnd_after_ack;
  std::vector<std::uint64_t> sack_walked;  // per ACK
  std::vector<std::uint64_t> reference_sack_walked;
  std::vector<MapScoreboard::Pair> lost;
  std::vector<MapScoreboard::Pair> spurious;
  std::vector<MapScoreboard::Pair> retransmitted;  // (seq, transmissions)
  MapScoreboard reference;
  net::TransportStats stats;
};

/// Drives a bare TcpSender against a scripted peer in 5 ms steps with a
/// 10 ms one-way delay each way. The app writes in bursts whose sizes are not
/// MSS multiples, so segment lengths vary; a hash of (segment, transmission)
/// drops one data packet in 23 for good (SACK holes, RACK losses, tail-loss
/// probes at burst ends) and delays one in 31 past the reorder window
/// (spurious RACK losses). For 60 steps the peer's ACKs are lost: the
/// probe fires, then the RTO, and the ACKs that resume prove the timeout
/// spurious (undo). The peer SACKs the range it just grew first, then the
/// highest others, up to three blocks. The last burst is followed by 700 ms
/// of idle, long past the minimum RTO.
///
/// With `odd_sacks` the peer also sends SACK shapes a real receiver rarely
/// does, against the sender's diff of each ACK's blocks with the previous
/// ACK's: every fifth ACK trims each block by 700 bytes at both ends (the
/// edges cut through records, and the next ACK grows the block on both
/// edges), every seventh ACK is sent twice (blocks re-reported unchanged),
/// and every eleventh is delivered again 4 steps later (a stale, reordered
/// ACK carrying older blocks). Retransmissions are dropped like any other
/// transmission, so RACK also fires on runs whose send order differs from
/// their sequence order.
ScoreboardRun run_scoreboard_history(const TcpConfig& config, bool odd_sacks = false) {
  constexpr int kSteps = 600;
  constexpr int kLastBurst = 450;
  constexpr int kOneWaySteps = 2;
  constexpr int kLateSteps = 3;
  constexpr int kBurstEvery = 90;
  constexpr int kBlackoutStart = 2 * kBurstEvery + 2;
  constexpr int kBlackoutEnd = kBlackoutStart + 60;
  constexpr std::uint64_t kBurstBytes = 200'001;
  const SimDuration step = milliseconds(5);

  sim::Simulator simulator;
  trace::MemorySink sink;
  simulator.set_trace(&sink);
  std::vector<TcpSegment> wire;
  TcpSender sender(simulator, config, std::uint64_t{1} << 32,
                   [&wire](TcpSegment segment) { wire.push_back(segment); });
  sender.on_established(std::uint64_t{1} << 30, milliseconds(20));

  ScoreboardRun run;
  std::size_t folded = 0;
  const auto fold_events = [&] {
    for (; folded < sink.events().size(); ++folded) {
      const trace::Event& event = sink.events()[folded];
      run.reference.on_event(event);
      switch (event.type) {
        case trace::EventType::kPacketLost:
          run.lost.emplace_back(event.id, event.value);
          break;
        case trace::EventType::kSpuriousLoss:
          run.spurious.emplace_back(event.id, event.value);
          break;
        case trace::EventType::kPacketRetransmitted:
          run.retransmitted.emplace_back(event.id, event.value);
          break;
        case trace::EventType::kMetricsUpdated:
          run.pipe_after_ack.push_back(event.bytes);
          break;
        default:
          break;
      }
    }
  };

  std::vector<std::pair<int, TcpSegment>> to_peer;  // (arrival step, segment)
  std::vector<std::pair<int, TcpSegment>> to_sender;
  std::size_t sent = 0;
  std::map<std::uint64_t, int> tail_sends;
  std::map<std::uint64_t, std::uint64_t> peer_ranges;  // out of order, [start, end)
  std::uint64_t peer_cumulative = 0;
  std::size_t acks_built = 0;

  for (int now_step = 0; now_step < kSteps; ++now_step) {
    if (now_step % kBurstEvery == 0 && now_step <= kLastBurst) {
      (void)sender.write(kBurstBytes);
    }
    simulator.run_until(simulator.now() + step);
    fold_events();

    for (; sent < wire.size(); ++sent) {
      const TcpSegment& segment = wire[sent];
      const std::uint64_t hash =
          (segment.seq / 1460 * 0x9e3779b97f4a7c15ULL + sent * 0xbf58476d1ce4e5b9ULL) >> 33;
      if (hash % 23 == 0) continue;
      // The first transmission of every burst's last segment is lost too.
      if ((segment.seq + segment.payload_bytes) % kBurstBytes == 0 &&
          ++tail_sends[segment.seq] <= 2) {
        continue;
      }
      to_peer.emplace_back(now_step + kOneWaySteps + (hash % 31 == 0 ? kLateSteps : 0),
                           segment);
    }

    bool arrived = false;
    std::uint64_t newest_start = 0;
    for (const auto& [arrival, segment] : to_peer) {
      if (arrival != now_step) continue;
      arrived = true;
      std::uint64_t start = segment.seq;
      std::uint64_t end = segment.seq + segment.payload_bytes;
      if (end <= peer_cumulative) continue;
      auto it = peer_ranges.upper_bound(start);
      if (it != peer_ranges.begin() && std::prev(it)->second >= start) --it;
      while (it != peer_ranges.end() && it->first <= end) {
        start = std::min(start, it->first);
        end = std::max(end, it->second);
        it = peer_ranges.erase(it);
      }
      if (start <= peer_cumulative) {
        peer_cumulative = std::max(peer_cumulative, end);
      } else {
        peer_ranges[start] = end;
        newest_start = start;
      }
    }
    if (arrived && (now_step < kBlackoutStart || now_step >= kBlackoutEnd)) {
      TcpSegment ack;
      ack.has_ack = true;
      ack.cumulative_ack = peer_cumulative;
      ack.receive_window_bytes = std::uint64_t{1} << 30;
      const auto add_block = [&ack](std::uint64_t start, std::uint64_t end) {
        if (ack.sack_count < kMaxSackBlocks) ack.sack_blocks[ack.sack_count++] = {start, end};
      };
      if (const auto newest = peer_ranges.find(newest_start); newest != peer_ranges.end()) {
        add_block(newest->first, newest->second);
      }
      for (auto it = peer_ranges.rbegin(); it != peer_ranges.rend(); ++it) {
        if (it->first != newest_start) add_block(it->first, it->second);
      }
      ++acks_built;
      if (odd_sacks && acks_built % 5 == 0) {
        for (std::size_t b = 0; b < ack.sack_count; ++b) {
          SackBlock& block = ack.sack_blocks[b];
          if (block.end - block.start > 2 * 700 + 1) block = {block.start + 700, block.end - 700};
        }
      }
      to_sender.emplace_back(now_step + kOneWaySteps, ack);
      if (odd_sacks && acks_built % 7 == 0) to_sender.emplace_back(now_step + kOneWaySteps, ack);
      if (odd_sacks && acks_built % 11 == 0) {
        to_sender.emplace_back(now_step + kOneWaySteps + 4, ack);
      }
    }

    for (const auto& [arrival, ack] : to_sender) {
      if (arrival != now_step) continue;
      const std::uint64_t walked_before = sender.sack_records_walked();
      const std::uint64_t reference_walked_before = run.reference.sack_walked;
      sender.on_ack_received(ack);
      const cc::RttEstimator& rtt = sender.rtt();
      run.reference.on_ack(ack, rtt.has_sample()
                                    ? std::max<SimDuration>(rtt.min_rtt() / 4, milliseconds(1))
                                    : SimDuration{milliseconds(5)});
      run.reference_pipe_after_ack.push_back(run.reference.pipe);
      run.sack_walked.push_back(sender.sack_records_walked() - walked_before);
      run.reference_sack_walked.push_back(run.reference.sack_walked - reference_walked_before);
      fold_events();
      run.reference_bytes_in_flight.push_back(run.reference.pipe);
      run.bytes_in_flight.push_back(sender.bytes_in_flight());
      run.cwnd_after_ack.push_back(sender.controller().congestion_window());
    }
  }
  run.stats = sender.stats();
  return run;
}

// Per-ACK congestion windows of the two histories below, recorded from a
// sender whose scoreboard was a std::map; the ring must feed its controller
// the same ACK samples.
constexpr std::uint64_t kScoreboardCubicCwnd[] = {
    27740, 20536, 20536, 21073, 21080, 21788, 21813, 22535, 22545, 16733,
    16733, 16737, 17139, 17234, 17263, 17829, 17942, 17975, 18547, 18663,
    13073, 13606, 13734, 13771, 14284, 11333, 11823, 12762, 13485, 14198,
    14208, 14951, 14965, 15668, 10980, 12195, 12712, 13230, 10490, 10817,
    10839, 11463, 8049, 9090, 9973, 10315, 10349, 8374, 8374, 9216,
    10127, 10825, 11717, 12420, 12431, 13021, 10085, 10578, 10603, 11471,
    11488, 12201, 12223, 12734, 8995, 9895, 10522, 11126, 11155, 11612,
    11655, 12144, 8591, 9572, 10434, 11341, 12061, 12766, 10256, 10906,
    11510, 9299, 9738, 9760, 10490, 10517, 11191, 7859, 8951, 9582,
    9602, 10346, 8781, 9306, 10158, 10666, 8914, 9277, 9297, 10086,
    10109, 10610, 7456, 8668, 9274, 9959, 9981, 10322, 7256, 8164,
    8778, 7235, 7599, 8123, 6501, 7452, 8397, 9092, 10036, 10534,
    8858, 9205, 9225, 10023, 10045,
};
constexpr std::uint64_t kScoreboardBbrCwnd[] = {
    87600, 29200, 30660, 52560, 54020, 58400, 81760, 100740, 78821, 80281,
    91961, 115321, 132841, 147441, 148901, 151821, 151821, 151821, 151821, 153262,
    230642, 121161, 128461, 129921, 131381, 173721, 173721, 181021, 182481, 182481,
    182481, 183922, 334302, 405842, 455482, 462782, 513882, 515342, 516802, 64240,
    64240, 71540, 71540, 72962, 72962, 110922, 74460, 75920, 77380, 118260,
    143080, 150380, 151840, 163520, 43781, 46701, 48161, 49621, 49621, 51081,
    52522, 103622, 105082, 153262, 94881, 99261, 100721, 140141, 143061, 145981,
    145981, 145981, 147422,
};

// The same for the odd SACK shapes, recorded from a sender whose SACK walk
// rescanned every block and whose RACK scanned the whole scoreboard.
constexpr std::uint64_t kScoreboardOddSackCubicCwnd[] = {
    27740, 20536, 20536, 21073, 21073, 21843, 21848, 21848, 22591, 22597,
    22914, 16199, 16739, 16739, 16846, 17214, 17214, 12151, 12848, 12873,
    13364, 9429, 10250, 11326, 11326, 11391, 11391, 9243, 9670, 9691,
    10431, 10458, 10946, 10946, 7774, 8347, 8508, 9078, 9242, 9996,
    9996, 10121, 10121, 10741, 10863, 11630, 11725, 11939, 12618, 12796,
    12796, 13389, 13560, 14266, 14266, 14410, 14893, 10561, 11467, 11467,
    11484, 12196, 12217, 12729, 8930, 9534, 9648, 9648, 9648, 10285,
    11278, 11807, 9446, 10106, 10846, 11343, 11343, 11372, 8610, 8718,
    9208, 9208, 9362, 10091, 10215, 10215, 10642, 7567, 8465, 8494,
    9182, 9220, 9861, 9861, 9979, 9979, 10251, 7207, 8126, 8518,
    6703, 7304, 7304, 7352, 7995, 8051, 8914, 8950, 8950, 9866,
    9886, 9886, 10594, 10622, 11501, 11518, 12053, 8460, 9721, 9721,
    10348, 10348, 10711, 8933, 9507, 10097, 10121, 10819, 10819, 8980,
    9567, 10150, 10174, 10509, 7477, 7477, 8395, 8395, 8423, 9115,
    9152, 10045, 10068, 10568, 7427, 7427, 8294, 8906, 8941, 8941,
    9854, 9874, 10381, 7297, 7297, 8560, 9154, 10102, 10138, 10445,
    7341, 8229, 8229, 8229, 8842, 6361, 6860, 7319, 7546, 8273,
    8445, 8445,
};
constexpr std::uint64_t kScoreboardOddSackBbrCwnd[] = {
    87600, 29200, 30660, 52560, 54020, 58400, 81760, 81760, 100740, 78821,
    80281, 91961, 115321, 132841, 147441, 147441, 147441, 148901, 151821, 151821,
    151821, 151821, 153262, 230642, 230642, 121161, 128461, 129921, 129921, 129921,
    172261, 172261, 181021, 181021, 182481, 183922, 232054, 232054, 232054, 232054,
    232054, 232054, 232054, 232054, 215320, 113880, 134320, 150380, 175200, 197100,
    197100, 215320, 215320, 215320, 209982, 209982, 209982, 209982, 209982, 209982,
    209982, 209982, 209982, 209982, 209982, 141620, 172280, 172280, 197100, 209982,
    209982, 220481, 220481, 220481, 220481, 220481, 220481, 220481, 220481, 220481,
    220481, 220481, 220481, 220481, 127001, 127001, 144521, 173721, 202921, 213141,
    215571, 215571, 215571, 215571, 215571, 215571, 215571, 215571, 215571, 215571,
};

TEST(TcpScoreboard, LongHistoryMatchesMapReference) {
  TcpConfig bbr = tuned_config();
  bbr.congestion_control = cc::CcKind::kBbr;
  struct Case {
    TcpConfig config;
    bool odd_sacks;
    std::vector<std::uint64_t> reference_cwnd;
  };
  const std::vector<Case> cases = {
      {stock_config(), false, {std::begin(kScoreboardCubicCwnd), std::end(kScoreboardCubicCwnd)}},
      {bbr, false, {std::begin(kScoreboardBbrCwnd), std::end(kScoreboardBbrCwnd)}},
      {stock_config(), true,
       {std::begin(kScoreboardOddSackCubicCwnd), std::end(kScoreboardOddSackCubicCwnd)}},
      {bbr, true, {std::begin(kScoreboardOddSackBbrCwnd), std::end(kScoreboardOddSackBbrCwnd)}},
  };
  for (const auto& [config, odd_sacks, reference_cwnd] : cases) {
    SCOPED_TRACE(odd_sacks ? "odd SACK shapes" : "receiver-shaped SACKs");
    const ScoreboardRun run = run_scoreboard_history(config, odd_sacks);
    // The history covers what the scoreboard has to get right.
    EXPECT_GE(run.stats.retransmissions, 20u);
    EXPECT_GE(run.stats.tail_probes, 2u);
    EXPECT_GE(run.stats.timeouts, 1u);
    EXPECT_GE(run.stats.spurious_timeouts, 1u);
    EXPECT_GE(run.reference.spurious.size(), 3u);
    EXPECT_EQ(run.reference.unarmed_timer_fires, 0u);

    EXPECT_EQ(run.pipe_after_ack, run.reference_pipe_after_ack);
    EXPECT_EQ(run.bytes_in_flight, run.reference_bytes_in_flight);
    EXPECT_EQ(run.lost, run.reference.lost);
    EXPECT_EQ(run.spurious, run.reference.spurious);
    EXPECT_EQ(run.retransmitted, run.reference.retransmitted);
    EXPECT_EQ(run.sack_walked, run.reference_sack_walked);
    EXPECT_EQ(run.cwnd_after_ack, reference_cwnd);
  }
}

/// A bare stock sender whose first segment left 10 ms before the other nine
/// (one-way delay 10 ms, handshake RTT 20 ms, so RACK's reorder window is
/// 5 ms). Returns the segments it sent.
std::vector<TcpSegment> start_staggered_flight(sim::Simulator& simulator, TcpSender& sender,
                                               std::vector<TcpSegment>& wire) {
  sender.on_established(std::uint64_t{1} << 30, milliseconds(20));
  (void)sender.write(1460);
  simulator.run_until(SimTime{milliseconds(10)});
  (void)sender.write(9 * 1460);
  simulator.run_until(SimTime{milliseconds(30)});
  return wire;
}

TcpSegment make_ack(std::uint64_t cumulative, std::initializer_list<SackBlock> sacks) {
  TcpSegment ack;
  ack.has_ack = true;
  ack.cumulative_ack = cumulative;
  ack.receive_window_bytes = std::uint64_t{1} << 30;
  for (const SackBlock& block : sacks) ack.sack_blocks[ack.sack_count++] = block;
  return ack;
}

TEST(TcpScoreboard, SpuriousRtoUndoRestoresSendOrder) {
  // The RTO marks all ten segments lost and retransmits the first two; the
  // ACK that proves the timeout spurious SACKs 5-9 (the probe of 9 newest),
  // so the undo returns 2-4 to the pipe. They left 40 ms before the probe,
  // long past RACK's reorder window, and must be declared lost at once
  // although the retransmissions of 0 and 1, sent after them, are too recent.
  sim::Simulator simulator;
  trace::MemorySink sink;
  simulator.set_trace(&sink);
  std::vector<TcpSegment> wire;
  TcpSender sender(simulator, stock_config(), std::uint64_t{1} << 32,
                   [&wire](TcpSegment segment) { wire.push_back(segment); });
  ASSERT_EQ(start_staggered_flight(simulator, sender, wire).size(), 10u);
  simulator.run_until(SimTime{milliseconds(400)});
  ASSERT_EQ(sender.stats().tail_probes, 1u);
  ASSERT_EQ(sender.stats().timeouts, 1u);
  ASSERT_EQ(wire.size(), 13u);
  ASSERT_EQ(wire.back().seq, 1460u);

  const std::size_t before = sink.events().size();
  sender.on_ack_received(make_ack(0, {{5 * 1460, 10 * 1460}}));
  EXPECT_EQ(sender.stats().spurious_timeouts, 1u);
  std::vector<std::uint64_t> rack_lost;
  for (std::size_t i = before; i < sink.events().size(); ++i) {
    const trace::Event& event = sink.events()[i];
    if (event.type == trace::EventType::kPacketLost) rack_lost.push_back(event.id);
  }
  EXPECT_EQ(rack_lost, (std::vector<std::uint64_t>{2 * 1460, 3 * 1460, 4 * 1460}));
}

TEST(TcpSender, RackLostSegmentAckedLaterYieldsNoRateSample) {
  sim::Simulator simulator;
  trace::MemorySink sink;
  simulator.set_trace(&sink);
  std::vector<TcpSegment> wire;
  TcpSender sender(simulator, stock_config(), std::uint64_t{1} << 32,
                   [&wire](TcpSegment segment) { wire.push_back(segment); });
  ASSERT_EQ(start_staggered_flight(simulator, sender, wire).size(), 10u);

  // The last segment is SACKed: RACK declares the first one lost, and the
  // Cubic window cut leaves no room to retransmit it yet.
  sender.on_ack_received(make_ack(0, {{9 * 1460, 10 * 1460}}));
  ASSERT_EQ(sender.stats().retransmissions, 0u);
  ASSERT_TRUE(std::any_of(sink.events().begin(), sink.events().end(), [](const auto& event) {
    return event.type == trace::EventType::kPacketLost && event.id == 0;
  }));
  EXPECT_EQ(sender.sampler().total_bytes_delivered(), 1460u);

  // Its original transmission arrives after all: delivered, but no sample.
  sender.on_ack_received(make_ack(1460, {{9 * 1460, 10 * 1460}}));
  EXPECT_EQ(sender.stats().bytes_delivered, 2 * 1460u);
  EXPECT_EQ(sender.sampler().total_bytes_delivered(), 1460u);
  EXPECT_EQ(sender.sampler().in_flight_bytes(), sender.bytes_in_flight());
}

TEST(TcpSender, TailProbeLeavesItsOldSnapshotInFlight) {
  // Known leak, kept for bit-exactness (see on_retransmission_timer): the
  // probe's transmission overwrites the tail segment's rate-sample snapshot
  // without releasing its bytes from the sampler's in-flight sum. Fixing it
  // changes this test.
  sim::Simulator simulator;
  std::vector<TcpSegment> wire;
  TcpSender sender(simulator, stock_config(), std::uint64_t{1} << 32,
                   [&wire](TcpSegment segment) { wire.push_back(segment); });
  ASSERT_EQ(start_staggered_flight(simulator, sender, wire).size(), 10u);
  EXPECT_EQ(sender.sampler().in_flight_bytes(), 10 * 1460u);
  simulator.run_until(SimTime{milliseconds(60)});  // probe timeout: 2 x 20 ms
  ASSERT_EQ(sender.stats().tail_probes, 1u);
  ASSERT_EQ(wire.size(), 11u);
  EXPECT_EQ(wire.back().seq, 9 * 1460u);
  EXPECT_EQ(sender.bytes_in_flight(), 10 * 1460u);
  EXPECT_EQ(sender.sampler().in_flight_bytes(), 11 * 1460u);

  sender.on_ack_received(make_ack(10 * 1460, {}));
  EXPECT_EQ(sender.bytes_in_flight(), 0u);
  EXPECT_EQ(sender.sampler().in_flight_bytes(), 1460u);
}

}  // namespace
}  // namespace qperc::tcp
