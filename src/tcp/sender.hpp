// One direction of a TCP connection: the sending half.
//
// Implements a SACK-based Linux-2019-style sender: RACK time-based loss
// detection, tail-loss probes, RFC 6298 RTO with exponential backoff,
// pluggable congestion control (Cubic / BBRv1), optional fq-style pacing,
// and optional slow-start-after-idle — every knob Table 1 varies.
#pragma once

#include <cstdint>
#include <memory>

#include "cc/bandwidth_sampler.hpp"
#include "cc/congestion_controller.hpp"
#include "cc/pacer.hpp"
#include "cc/rtt_estimator.hpp"
#include "net/transport_stats.hpp"
#include "sim/simulator.hpp"
#include "tcp/config.hpp"
#include "tcp/segment.hpp"
#include "util/arena.hpp"

namespace qperc::tcp {

class TcpSender {
 public:
  /// `send_segment` hands a fully built data segment (without ACK fields —
  /// the connection piggybacks those) to the wire. SmallFunction, not
  /// std::function: the capture is a connection pointer, and the segment-emit
  /// path runs hundreds of times per trial.
  using SendFn = SmallFunction<void(TcpSegment)>;

  TcpSender(sim::Simulator& simulator, const TcpConfig& config,
            std::uint64_t send_buffer_bytes, SendFn send_segment);
  ~TcpSender() = default;
  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Activates the sender once the handshake completes. `initial_peer_rwnd`
  /// is the window advertised by the peer; `handshake_rtt` primes the
  /// RTT estimator.
  void on_established(std::uint64_t initial_peer_rwnd, SimDuration handshake_rtt);

  /// Appends application bytes to the stream. Returns the bytes accepted
  /// (bounded by the send buffer); the rest must wait for on_writable.
  std::uint64_t write(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t writable_bytes() const;
  void set_on_writable(SmallFunction<void()> cb) { on_writable_ = std::move(cb); }

  /// Processes the acknowledgment fields of an incoming segment.
  void on_ack_received(const TcpSegment& segment);

  [[nodiscard]] const net::TransportStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const cc::RttEstimator& rtt() const noexcept { return rtt_; }
  [[nodiscard]] const cc::CongestionController& controller() const { return *cc_; }
  [[nodiscard]] std::uint64_t bytes_in_flight() const noexcept { return outstanding_bytes_; }
  [[nodiscard]] std::uint64_t bytes_unacked() const noexcept {
    return next_seq_ - highest_cum_ack_;
  }
  /// True when everything written has been cumulatively acknowledged.
  [[nodiscard]] bool all_acked() const noexcept {
    return highest_cum_ack_ == app_bytes_total_;
  }

  /// Identifies this sender in trace events (set by the owning connection).
  void set_trace_context(std::uint64_t flow, trace::Endpoint endpoint) noexcept {
    trace_flow_ = flow;
    trace_endpoint_ = endpoint;
  }

 private:
  struct SegmentRecord {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint32_t transmissions = 0;
    SimTime last_sent{0};
    std::uint64_t packet_id = 0;  // latest transmission, for rate sampling
    bool sacked = false;
    bool lost = false;         // detected lost, awaiting retransmission
    bool lost_by_rto = false;  // `lost` came from an RTO, not RACK/SACK
    bool outstanding = false;  // counted in the pipe
    bool delivered_counted = false;
  };

  void maybe_send();
  void transmit(SegmentRecord& record, bool is_retransmission);
  /// Finds the oldest segment awaiting retransmission; nullptr when nothing
  /// is eligible (at once when lost_count_ is zero).
  SegmentRecord* next_lost_segment();
  /// Index of the first segment starting at or after `seq` (binary search).
  [[nodiscard]] std::uint32_t first_segment_at(std::uint64_t seq) const;
  /// Scan-derived lost_count_, for the invariant check.
  [[nodiscard]] std::uint32_t count_lost_segments() const;
  void mark_delivered(SegmentRecord& record, SimTime now, std::uint64_t& newly_delivered,
                      SimDuration& rtt_sample, SimTime& newest_delivered_sent_time,
                      std::uint64_t& newest_delivered_packet_id);
  void detect_losses(SimTime newest_delivered_sent_time);
  /// Reverts an RTO's loss markings and window collapse after the ACK stream
  /// proved the timeout spurious (original transmissions kept arriving).
  void undo_spurious_rto();
  void enter_recovery_if_needed();
  void rearm_retransmission_timer();
  void on_retransmission_timer();
  void restart_from_idle_if_needed();

  sim::Simulator& simulator_;
  TcpConfig config_;
  SendFn send_segment_;
  SmallFunction<void()> on_writable_;

  std::uint64_t trace_flow_ = 0;
  trace::Endpoint trace_endpoint_ = trace::Endpoint::kNone;

  std::unique_ptr<cc::CongestionController> cc_;
  /// Cached cc_->uses_delivery_rate(): selects the sampler ack entry point
  /// without a virtual call per acked segment.
  bool cc_wants_rate_ = false;
  cc::Pacer pacer_;
  cc::RttEstimator rtt_;
  cc::BandwidthSampler sampler_;
  net::TransportStats stats_;

  bool established_ = false;
  std::uint64_t app_bytes_total_ = 0;  // bytes the app has written
  std::uint64_t send_buffer_bytes_ = 0;  // set by the constructor
  std::uint64_t next_seq_ = 0;         // next new byte to packetize
  std::uint64_t highest_cum_ack_ = 0;  // snd_una
  std::uint64_t peer_rwnd_ = 0;
  std::uint64_t outstanding_bytes_ = 0;  // the SACK "pipe"
  /// The scoreboard: one record per packetized segment in [snd_una,
  /// snd_nxt), in sequence order and contiguous (each record starts where the
  /// previous one ends). A record is appended only when it is first
  /// transmitted and erased only from the front, by the cumulative ACK; SACK
  /// blocks find their first record by binary search. Arena-backed ring:
  /// every per-ACK walk is a scan over contiguous slots.
  ArenaRing<SegmentRecord> segments_;
  /// Records with `lost && !sacked` (awaiting retransmission), so the
  /// per-send and per-rearm "anything lost?" queries skip the scan.
  std::uint32_t lost_count_ = 0;

  std::uint64_t next_packet_id_ = 1;
  SimTime last_send_time_{0};
  SimTime rack_newest_sent_time_{0};

  // Recovery episode tracking (one cwnd reduction per round trip of loss).
  std::uint64_t recovery_point_ = 0;
  // Round-trip accounting for the congestion controller.
  std::uint64_t round_end_seq_ = 0;

  // Retransmission timer: either a tail-loss probe or a full RTO.
  sim::Timer retx_timer_;
  bool timer_is_tlp_ = false;
  std::uint32_t rto_backoff_ = 0;
  bool tlp_fired_this_episode_ = false;

  /// Bytes declared lost since the congestion controller last consumed an
  /// AckSample (feeds BBR's long-term bandwidth estimator).
  std::uint64_t bytes_lost_since_ack_ = 0;
  /// Set by mark_delivered when an ACK covers the original transmission of a
  /// segment an RTO declared lost; consumed once per ACK.
  bool spurious_rto_detected_ = false;

  sim::Timer send_timer_;  // pacing release
};

}  // namespace qperc::tcp
