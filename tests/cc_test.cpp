// Unit tests for congestion control: Cubic, BBRv1, pacing, rate sampling.
#include <gtest/gtest.h>

#include <algorithm>

#include "cc/bandwidth_sampler.hpp"
#include "cc/bbr.hpp"
#include "cc/cubic.hpp"
#include "cc/factory.hpp"
#include "cc/pacer.hpp"
#include "cc/rtt_estimator.hpp"
#include "cc/windowed_filter.hpp"

namespace qperc::cc {
namespace {

constexpr std::uint64_t kMss = 1460;

AckSample make_ack(std::uint64_t bytes, SimDuration rtt, bool round_ended = false,
                   DataRate rate = DataRate(), std::uint64_t in_flight = 0) {
  AckSample sample;
  sample.bytes_acked = bytes;
  sample.rtt = rtt;
  sample.smoothed_rtt = rtt;
  sample.delivery_rate = rate;
  sample.bytes_in_flight = in_flight;
  sample.round_trip_ended = round_ended;
  return sample;
}

TEST(Cubic, InitialWindowMatchesConfig) {
  Cubic iw10(CubicConfig{.initial_window_segments = 10});
  EXPECT_EQ(iw10.congestion_window(), 10 * kMss);
  Cubic iw32(CubicConfig{.initial_window_segments = 32});
  EXPECT_EQ(iw32.congestion_window(), 32 * kMss);
}

TEST(Cubic, SlowStartDoublesPerRoundTrip) {
  Cubic cubic(CubicConfig{.initial_window_segments = 10, .enable_hystart = false});
  const std::uint64_t before = cubic.congestion_window();
  // Ack a full window's worth of data.
  SimTime now{milliseconds(100)};
  cubic.on_ack(now, make_ack(before, milliseconds(50)));
  EXPECT_EQ(cubic.congestion_window(), 2 * before);
  EXPECT_TRUE(cubic.in_slow_start());
}

TEST(Cubic, LossReducesWindowByBeta) {
  Cubic cubic(CubicConfig{.initial_window_segments = 100, .enable_hystart = false});
  const std::uint64_t before = cubic.congestion_window();
  cubic.on_congestion_event(SimTime{seconds(1)}, before);
  EXPECT_NEAR(static_cast<double>(cubic.congestion_window()),
              static_cast<double>(before) * 0.7, static_cast<double>(kMss));
  EXPECT_FALSE(cubic.in_slow_start());
}

TEST(Cubic, WindowRegrowsAfterLossTowardsWmax) {
  Cubic cubic(CubicConfig{.initial_window_segments = 100, .enable_hystart = false});
  const std::uint64_t w_max = cubic.congestion_window();
  cubic.on_congestion_event(SimTime{seconds(1)}, w_max);
  const std::uint64_t reduced = cubic.congestion_window();
  // Feed ACKs over simulated time; cubic should grow back towards w_max.
  SimTime now{seconds(1)};
  for (int i = 0; i < 400; ++i) {
    now += milliseconds(20);
    cubic.on_ack(now, make_ack(cubic.congestion_window() / 4, milliseconds(20)));
  }
  EXPECT_GT(cubic.congestion_window(), reduced);
  EXPECT_GE(cubic.congestion_window(), w_max * 9 / 10);
}

TEST(Cubic, RtoCollapsesToMinWindow) {
  Cubic cubic(CubicConfig{.initial_window_segments = 50});
  cubic.on_retransmission_timeout();
  EXPECT_EQ(cubic.congestion_window(), 2 * kMss);
}

TEST(Cubic, IdleRestartResetsToInitialWindow) {
  CubicConfig config{.initial_window_segments = 10, .enable_hystart = false};
  Cubic cubic(config);
  SimTime now{milliseconds(0)};
  for (int i = 0; i < 5; ++i) {
    now += milliseconds(50);
    cubic.on_ack(now, make_ack(cubic.congestion_window(), milliseconds(50)));
  }
  EXPECT_GT(cubic.congestion_window(), 10 * kMss);
  cubic.on_restart_after_idle();
  EXPECT_EQ(cubic.congestion_window(), 10 * kMss);
}

TEST(Cubic, HystartExitsSlowStartOnDelayIncrease) {
  Cubic cubic(CubicConfig{.initial_window_segments = 32, .enable_hystart = true});
  SimTime now{milliseconds(0)};
  // Round 1: baseline RTT 100 ms, plenty of samples.
  for (int i = 0; i < 9; ++i) {
    now += milliseconds(1);
    cubic.on_ack(now, make_ack(kMss, milliseconds(100), i == 8));
  }
  ASSERT_TRUE(cubic.in_slow_start());
  // Round 2: RTT grows 40% — queue building, exit before loss.
  for (int i = 0; i < 9; ++i) {
    now += milliseconds(1);
    cubic.on_ack(now, make_ack(kMss, milliseconds(140), i == 8));
  }
  // Round 3 begins: the exit decision is taken at the round boundary.
  EXPECT_FALSE(cubic.in_slow_start());
}

TEST(Cubic, PacingRateUsesGains) {
  Cubic cubic(CubicConfig{.initial_window_segments = 10});
  const auto rate_ss = cubic.pacing_rate(milliseconds(100));
  // Slow start: 2x cwnd/srtt = 2 * 14600B / 0.1s = 292 kB/s.
  EXPECT_NEAR(rate_ss.bytes_per_second_d(), 292'000.0, 2000.0);
}

TEST(Bbr, StartupUsesHighGain) {
  Bbr bbr(BbrConfig{.initial_window_segments = 32});
  EXPECT_TRUE(bbr.in_slow_start());
  EXPECT_EQ(bbr.mode(), Bbr::Mode::kStartup);
  const auto rate = bbr.pacing_rate(milliseconds(100));
  const double expected = 32.0 * 1460 / 0.1 * 2.885;
  EXPECT_NEAR(rate.bytes_per_second_d(), expected, expected * 0.02);
}

TEST(Bbr, ExitsStartupWhenBandwidthPlateaus) {
  Bbr bbr(BbrConfig{});
  SimTime now{milliseconds(0)};
  const auto bw = DataRate::megabits_per_second(10.0);
  // Several rounds at the same measured bandwidth: full pipe detected.
  for (int round = 0; round < 6; ++round) {
    now += milliseconds(50);
    bbr.on_ack(now, make_ack(10 * kMss, milliseconds(50), true, bw, 20 * kMss));
  }
  EXPECT_NE(bbr.mode(), Bbr::Mode::kStartup);
}

TEST(Bbr, DrainThenProbeBandwidth) {
  Bbr bbr(BbrConfig{});
  SimTime now{milliseconds(0)};
  const auto bw = DataRate::megabits_per_second(10.0);
  for (int round = 0; round < 6; ++round) {
    now += milliseconds(50);
    bbr.on_ack(now, make_ack(10 * kMss, milliseconds(50), true, bw, 40 * kMss));
  }
  // Low in-flight lets DRAIN complete.
  now += milliseconds(50);
  bbr.on_ack(now, make_ack(10 * kMss, milliseconds(50), true, bw, kMss));
  EXPECT_EQ(bbr.mode(), Bbr::Mode::kProbeBw);
  // cwnd tracks 2x BDP: 10 Mbps x 50 ms = 62.5 kB BDP.
  const double bdp = 10e6 / 8.0 * 0.05;
  EXPECT_NEAR(static_cast<double>(bbr.congestion_window()), 2.0 * bdp, bdp * 0.5);
}

TEST(Bbr, BandwidthEstimateTracksDeliveryRate) {
  Bbr bbr(BbrConfig{});
  SimTime now{milliseconds(0)};
  const auto bw = DataRate::megabits_per_second(7.0);
  for (int round = 0; round < 4; ++round) {
    now += milliseconds(40);
    bbr.on_ack(now, make_ack(5 * kMss, milliseconds(40), true, bw, 10 * kMss));
  }
  EXPECT_EQ(bbr.bandwidth_estimate().bps(), bw.bps());
  EXPECT_EQ(bbr.min_rtt_estimate(), milliseconds(40));
}

TEST(Bbr, AppLimitedSamplesDoNotInflateEstimate) {
  Bbr bbr(BbrConfig{});
  SimTime now{milliseconds(0)};
  const auto bw = DataRate::megabits_per_second(5.0);
  for (int round = 0; round < 4; ++round) {
    now += milliseconds(40);
    bbr.on_ack(now, make_ack(5 * kMss, milliseconds(40), true, bw, 10 * kMss));
  }
  AckSample limited = make_ack(kMss, milliseconds(40), true,
                               DataRate::megabits_per_second(2.0), kMss);
  limited.is_app_limited = true;
  now += milliseconds(40);
  bbr.on_ack(now, limited);
  // The lower app-limited sample must not *replace* the real estimate
  // within the window.
  EXPECT_EQ(bbr.bandwidth_estimate().bps(), bw.bps());
}

TEST(Bbr, LossDoesNotCollapseTheModel) {
  Bbr bbr(BbrConfig{});
  SimTime now{milliseconds(0)};
  const auto bw = DataRate::megabits_per_second(10.0);
  for (int round = 0; round < 6; ++round) {
    now += milliseconds(50);
    bbr.on_ack(now, make_ack(10 * kMss, milliseconds(50), true, bw, 30 * kMss));
  }
  const auto estimate_before = bbr.bandwidth_estimate();
  bbr.on_congestion_event(now, 20 * kMss);
  EXPECT_EQ(bbr.bandwidth_estimate().bps(), estimate_before.bps());
  // Window bounded to in-flight during recovery, not to a beta fraction.
  EXPECT_GE(bbr.congestion_window(), 20 * kMss);
}

TEST(Pacer, DisabledPacerNeverDelays) {
  Pacer pacer(PacerConfig{.enabled = false});
  pacer.set_rate(SimTime{0}, DataRate::kilobits_per_second(1));
  EXPECT_EQ(pacer.next_send_time(SimTime{seconds(1)}, 100000), SimTime{seconds(1)});
}

TEST(Pacer, InitialQuantumAllowsBurstOfTen) {
  Pacer pacer(PacerConfig{.enabled = true,
                          .initial_quantum_segments = 10,
                          .refill_quantum_segments = 2,
                          .segment_bytes = 1000});
  pacer.set_rate(SimTime{0}, DataRate::bytes_per_second(100'000));
  SimTime now{0};
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(pacer.next_send_time(now, 1000), now) << i;
    pacer.on_packet_sent(now, 1000);
  }
  // The 11th packet must wait for token refill.
  EXPECT_GT(pacer.next_send_time(now, 1000), now);
}

TEST(Pacer, SteadyStatePacesAtRate) {
  Pacer pacer(PacerConfig{.enabled = true,
                          .initial_quantum_segments = 1,
                          .refill_quantum_segments = 2,
                          .segment_bytes = 1000});
  pacer.set_rate(SimTime{0}, DataRate::bytes_per_second(1'000'000));  // 1 ms per kB
  SimTime now{0};
  pacer.on_packet_sent(now, 1000);
  pacer.on_packet_sent(now, 1000);  // deficit now
  const SimTime release = pacer.next_send_time(now, 1000);
  EXPECT_GT(release, now);
  EXPECT_LE(release, now + milliseconds(3));
}

TEST(Pacer, IdleRestartRegrantsBurst) {
  Pacer pacer(PacerConfig{.enabled = true,
                          .initial_quantum_segments = 10,
                          .refill_quantum_segments = 2,
                          .segment_bytes = 1000});
  pacer.set_rate(SimTime{0}, DataRate::bytes_per_second(10'000));
  SimTime now{0};
  for (int i = 0; i < 10; ++i) pacer.on_packet_sent(now, 1000);
  EXPECT_GT(pacer.next_send_time(now, 1000), now);
  pacer.on_restart_from_idle(now + seconds(5));
  EXPECT_EQ(pacer.next_send_time(now + seconds(5), 1000), now + seconds(5));
}

TEST(Pacer, RateChangeSettlesCreditAtTheOldRate) {
  // Regression: set_rate used to be a plain setter, so credit for the whole
  // gap since the last send was retroactively re-priced at the *new* rate —
  // a rate upswing after a stall granted an instant burst the old rate never
  // earned. The credit banked across a rate change must be what the old rate
  // accrued.
  Pacer pacer(PacerConfig{.enabled = true,
                          .initial_quantum_segments = 10,
                          .refill_quantum_segments = 2,
                          .segment_bytes = 1000});
  pacer.set_rate(SimTime{0}, DataRate::bytes_per_second(1000));
  SimTime now{0};
  for (int i = 0; i < 10; ++i) pacer.on_packet_sent(now, 1000);  // drain the burst
  now += seconds(1);  // old rate earns exactly 1000 bytes of credit
  pacer.set_rate(now, DataRate::bytes_per_second(1'000'000));
  // A 2000-byte send has a 1000-byte deficit, repaid at the *new* rate in
  // exactly 1 ms. The buggy setter would have answered "now" (the re-priced
  // gap earns the full 2000-byte cap instantly).
  EXPECT_EQ(pacer.next_send_time(now, 2000), now + milliseconds(1));
}

// ------------------------------------------------- long-term bw (policing)

/// One lossy policed round: ~30% of bytes lost, constant delivery rate.
AckSample policed_round(std::uint64_t acked, std::uint64_t lost, DataRate rate,
                        std::uint64_t in_flight) {
  AckSample sample = make_ack(acked, milliseconds(100), true, rate, in_flight);
  sample.bytes_lost = lost;
  return sample;
}

TEST(Bbr, LtBwEngagesOnConsistentLossyIntervals) {
  Bbr bbr(BbrConfig{});
  const DataRate policed = DataRate::bytes_per_second(100'000);  // 800 kbit/s
  SimTime now{seconds(1)};
  // Every 100 ms round delivers 10 kB and loses 3 kB (30% >= the ~20%
  // lt threshold). Two consecutive sampling intervals then measure the same
  // 100 kB/s delivery rate, which flips the policer detector.
  for (int round = 0; round < 8; ++round) {
    ASSERT_FALSE(bbr.lt_bw_in_use()) << round;
    now += milliseconds(100);
    bbr.on_ack(now, policed_round(10'000, 3'000, policed, 20 * kMss));
  }
  EXPECT_TRUE(bbr.lt_bw_in_use());
  // The estimate converged to the policed rate (well within 10%).
  EXPECT_NEAR(static_cast<double>(bbr.lt_bw().bps()), 800'000.0, 80'000.0);
  EXPECT_EQ(bbr.bandwidth_estimate().bps(), bbr.lt_bw().bps());
}

TEST(Bbr, LtBwExpiresAfterMaxRoundsAndReprobes) {
  Bbr bbr(BbrConfig{});
  const DataRate policed = DataRate::bytes_per_second(100'000);
  SimTime now{seconds(1)};
  for (int round = 0; round < 8; ++round) {
    now += milliseconds(100);
    bbr.on_ack(now, policed_round(10'000, 3'000, policed, 20 * kMss));
  }
  ASSERT_TRUE(bbr.lt_bw_in_use());
  // Pacing at the policed rate stops the loss; low in-flight lets the mode
  // machine settle into PROBE_BW, where the 48-round trust window runs out
  // and BBR goes back to probing for fresh capacity.
  for (int round = 0; round < 60 && bbr.lt_bw_in_use(); ++round) {
    now += milliseconds(100);
    bbr.on_ack(now, policed_round(10'000, 0, policed, 2 * kMss));
  }
  EXPECT_FALSE(bbr.lt_bw_in_use());
}

TEST(Bbr, LtBwIgnoresAppLimitedStretches) {
  // A policer's bucket refills while the sender is app-limited, so sampling
  // intervals must restart at every app-limited ACK; a sender that is
  // app-limited every few rounds never accumulates a full interval.
  Bbr bbr(BbrConfig{});
  const DataRate rate = DataRate::bytes_per_second(100'000);
  SimTime now{seconds(1)};
  for (int round = 0; round < 24; ++round) {
    now += milliseconds(100);
    AckSample sample = policed_round(10'000, 3'000, rate, 20 * kMss);
    sample.is_app_limited = round % 3 == 2;
    bbr.on_ack(now, sample);
  }
  EXPECT_FALSE(bbr.lt_bw_in_use());
}

// ------------------------------------------------------- spurious-RTO undo

TEST(Bbr, SpuriousRtoRestoresCollapsedWindow) {
  Bbr bbr(BbrConfig{});
  SimTime now{milliseconds(0)};
  const auto bw = DataRate::megabits_per_second(10.0);
  for (int round = 0; round < 6; ++round) {
    now += milliseconds(50);
    bbr.on_ack(now, make_ack(10 * kMss, milliseconds(50), true, bw, 30 * kMss));
  }
  const std::uint64_t before = bbr.congestion_window();
  bbr.on_retransmission_timeout();
  EXPECT_LT(bbr.congestion_window(), before);
  bbr.on_spurious_retransmission_timeout();
  EXPECT_GE(bbr.congestion_window(), before);
}

TEST(Cubic, SpuriousRtoRestoresCollapsedWindow) {
  Cubic cubic(CubicConfig{});
  SimTime now{milliseconds(0)};
  // Grow out of the initial window first so the undo is observable.
  for (int round = 0; round < 4; ++round) {
    now += milliseconds(40);
    cubic.on_ack(now, make_ack(10 * kMss, milliseconds(40), true));
  }
  const std::uint64_t before = cubic.congestion_window();
  cubic.on_retransmission_timeout();
  EXPECT_LT(cubic.congestion_window(), before);
  cubic.on_spurious_retransmission_timeout();
  EXPECT_GE(cubic.congestion_window(), before);
}

TEST(Cubic, SpuriousRtoUndoIsIdempotentAndConservative) {
  Cubic cubic(CubicConfig{});
  // Undo without a preceding RTO must not inflate anything.
  const std::uint64_t initial = cubic.congestion_window();
  cubic.on_spurious_retransmission_timeout();
  EXPECT_EQ(cubic.congestion_window(), initial);
}

TEST(BandwidthSampler, MeasuresDeliveryRate) {
  BandwidthSampler sampler;
  const SimTime t0{0};
  const SimTime t1 = t0 + milliseconds(1);
  // Two packets sent back to back, acked 100 ms apart.
  const SendSnapshot p1 = sampler.on_packet_sent(10'000, t0, 0);
  const SendSnapshot p2 = sampler.on_packet_sent(10'000, t1, 10'000);
  const auto s1 = sampler.on_packet_acked(p1, t0, 10'000, t0 + milliseconds(100));
  ASSERT_TRUE(s1.has_value());
  // 10 kB delivered over 100 ms = 100 kB/s.
  EXPECT_NEAR(s1->delivery_rate.bytes_per_second_d(), 100'000.0, 2000.0);
  const auto s2 = sampler.on_packet_acked(p2, t1, 10'000, t0 + milliseconds(200));
  ASSERT_TRUE(s2.has_value());
  EXPECT_NEAR(s2->delivery_rate.bytes_per_second_d(), 100'000.0, 2000.0);
  EXPECT_EQ(sampler.total_bytes_delivered(), 20'000u);
  EXPECT_EQ(sampler.in_flight_bytes(), 0u);
}

TEST(BandwidthSampler, AppLimitedMarksSubsequentSends) {
  BandwidthSampler sampler;
  const SimTime t0{0};
  const SimTime t1 = t0 + milliseconds(1);
  const SendSnapshot p1 = sampler.on_packet_sent(1000, t0, 0);
  EXPECT_FALSE(p1.app_limited);
  sampler.on_app_limited();
  const SendSnapshot p2 = sampler.on_packet_sent(1000, t1, 1000);
  EXPECT_TRUE(p2.app_limited);
  (void)sampler.on_packet_acked(p1, t0, 1000, t0 + milliseconds(50));
  const auto s2 = sampler.on_packet_acked(p2, t1, 1000, t0 + milliseconds(60));
  ASSERT_TRUE(s2.has_value());
  EXPECT_TRUE(s2->is_app_limited);
}

TEST(BandwidthSampler, LostPacketsLeaveTheInFlightSum) {
  // Which packets may still be sampled is the transport's business (it holds
  // the snapshots); the sampler only has to stop counting a lost packet's
  // bytes, or on_app_limited would mark sends app-limited too long.
  BandwidthSampler sampler;
  const SimTime t0{0};
  const SimTime t1 = t0 + milliseconds(1);
  (void)sampler.on_packet_sent(1000, t0, 0);
  const SendSnapshot p2 = sampler.on_packet_sent(500, t1, 1000);
  EXPECT_EQ(sampler.in_flight_bytes(), 1500u);
  sampler.on_packet_lost(1000);
  EXPECT_EQ(sampler.in_flight_bytes(), 500u);
  EXPECT_EQ(sampler.total_bytes_delivered(), 0u);
  // App-limited until the 500 bytes still in flight are delivered, no longer.
  sampler.on_app_limited();
  EXPECT_TRUE(sampler.on_packet_sent(200, t1, 500).app_limited);
  (void)sampler.on_packet_acked_no_sample(p2, t1, 500, t0 + milliseconds(40));
  EXPECT_EQ(sampler.total_bytes_delivered(), 500u);
  EXPECT_FALSE(sampler.on_packet_sent(200, t0 + milliseconds(40), 200).app_limited);
}

TEST(WindowedFilter, TracksMaxOverWindow) {
  WindowedFilter<int, std::uint64_t, Greater<int>> filter(10);
  filter.update(5, 0);
  filter.update(8, 2);
  filter.update(3, 4);
  EXPECT_EQ(filter.best(), 8);
  // The 8 expires at tick 13; the 3 remains.
  filter.advance(14);
  EXPECT_EQ(filter.best(), 3);
}

TEST(WindowedFilter, KeepsLastSampleForever) {
  WindowedFilter<int, std::uint64_t, Less<int>> filter(5);
  filter.update(7, 0);
  filter.advance(1000);
  EXPECT_EQ(filter.best(), 7);
}

TEST(RttEstimator, FollowsRfc6298) {
  RttEstimator estimator;
  EXPECT_EQ(estimator.rto(), RttEstimator::kInitialRto);
  estimator.on_rtt_sample(milliseconds(100));
  EXPECT_EQ(estimator.smoothed_rtt(), milliseconds(100));
  EXPECT_EQ(estimator.rtt_var(), milliseconds(50));
  estimator.on_rtt_sample(milliseconds(100));
  EXPECT_EQ(estimator.smoothed_rtt(), milliseconds(100));
  EXPECT_LT(estimator.rtt_var(), milliseconds(50));
  EXPECT_GE(estimator.rto(), RttEstimator::kMinRto);
}

TEST(RttEstimator, MinRttTracksMinimum) {
  RttEstimator estimator;
  estimator.on_rtt_sample(milliseconds(80));
  estimator.on_rtt_sample(milliseconds(40));
  estimator.on_rtt_sample(milliseconds(120));
  EXPECT_EQ(estimator.min_rtt(), milliseconds(40));
  EXPECT_EQ(estimator.latest_rtt(), milliseconds(120));
}

TEST(Factory, BuildsRequestedController) {
  const auto cubic = make_congestion_controller(CcKind::kCubic, 10, kMss);
  EXPECT_EQ(cubic->name(), "cubic");
  EXPECT_EQ(cubic->congestion_window(), 10 * kMss);
  const auto bbr = make_congestion_controller(CcKind::kBbr, 32, kMss);
  EXPECT_EQ(bbr->name(), "bbr");
  EXPECT_EQ(bbr->congestion_window(), 32 * kMss);
  EXPECT_EQ(to_string(CcKind::kCubic), "Cubic");
  EXPECT_EQ(to_string(CcKind::kBbr), "BBRv1");
}

}  // namespace
}  // namespace qperc::cc
