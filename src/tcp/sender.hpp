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

  /// For tests: the delivery-rate sampler, and how many records the SACK
  /// walk has examined (blocks the previous ACK already reported are
  /// skipped, so re-reporting one costs nothing).
  [[nodiscard]] const cc::BandwidthSampler& sampler() const noexcept { return sampler_; }
  [[nodiscard]] std::uint64_t sack_records_walked() const noexcept {
    return sack_records_walked_;
  }

 private:
  /// Ends of the RACK list, and "no record" for the index-returning lookups.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  struct SegmentRecord {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    SimTime last_sent{0};
    /// The sampler's snapshot of the latest transmission, held while
    /// `sample_live`: until that transmission is acked or declared lost.
    cc::SendSnapshot sample;
    std::uint32_t transmissions = 0;
    /// RACK list links, as serials (see front_serial_); kNone at the ends.
    std::uint32_t rack_prev = kNone;
    std::uint32_t rack_next = kNone;
    bool sacked = false;
    bool lost = false;         // detected lost, awaiting retransmission
    bool lost_by_rto = false;  // `lost` came from an RTO, not RACK/SACK
    bool outstanding = false;  // counted in the pipe
    bool sample_live = false;
  };

  /// The records the RACK list holds: sent, unacknowledged and not lost.
  [[nodiscard]] static bool rack_candidate(const SegmentRecord& record) noexcept {
    return record.outstanding && !record.sacked && !record.lost;
  }
  [[nodiscard]] SegmentRecord& at_serial(std::uint32_t serial) noexcept {
    return segments_[serial - front_serial_];
  }
  /// Ring index of lost_hint_; 0 once the cumulative ACK has popped past it
  /// (the difference then wraps to a huge value).
  [[nodiscard]] std::uint32_t lost_hint_index() const noexcept {
    const std::uint32_t i = lost_hint_ - front_serial_;
    return i < segments_.size() ? i : 0;
  }

  void maybe_send();
  void transmit(std::uint32_t index, bool is_retransmission);
  /// Index of the oldest segment awaiting retransmission; kNone when nothing
  /// is eligible (at once when lost_count_ is zero). Scans from lost_hint_.
  std::uint32_t next_lost_segment();
  /// Index of the first segment starting at or after `seq` (a gallop from an
  /// MSS-derived lower bound, then a binary search).
  [[nodiscard]] std::uint32_t first_segment_at(std::uint64_t seq) const;
  /// Index of the first segment ending after `seq`.
  [[nodiscard]] std::uint32_t first_segment_past(std::uint64_t seq) const;
  /// A block of the previous ACK holding all of [start, end), or nullptr.
  [[nodiscard]] const SackBlock* cached_sack_holding(std::uint64_t start,
                                                     std::uint64_t end) const;
  /// Scan-derived lost_count_, lowest lost index, RACK list and SACK-cache
  /// checks, for the invariant build.
  [[nodiscard]] std::uint32_t count_lost_segments() const;
  [[nodiscard]] std::uint32_t first_lost_by_scan() const;
  [[nodiscard]] bool rack_list_matches_scan() const;
  [[nodiscard]] bool sack_cache_holds() const;
  /// RACK list edits. Insertion goes behind every record sent no later, so
  /// a fresh transmission lands at the tail.
  void rack_unlink(std::uint32_t serial);
  void rack_insert(std::uint32_t serial);
  void mark_delivered(SegmentRecord& record, SimTime now, std::uint64_t& newly_delivered,
                      SimDuration& rtt_sample, SimTime& newest_delivered_sent_time);
  /// Declares a record lost (RACK or RTO): leaves the pipe, releases its
  /// rate-sample snapshot, traces kPacketLost.
  void mark_lost(SegmentRecord& record, bool by_rto);
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
  /// blocks find their first record with first_segment_at. Arena-backed
  /// ring: every per-ACK walk is a scan over contiguous slots.
  ArenaRing<SegmentRecord> segments_;
  /// Serial of segments_.front(). Records are numbered in append order, so a
  /// serial (unlike a ring index) survives cumulative pops; index = serial -
  /// front_serial_, modulo 2^32.
  std::uint32_t front_serial_ = 0;
  /// Records with `lost && !sacked` (awaiting retransmission), so the
  /// per-send and per-rearm "anything lost?" queries skip the scan.
  std::uint32_t lost_count_ = 0;
  /// No record with a lower serial is `lost && !sacked`: lowered where
  /// records are marked lost, advanced by next_lost_segment.
  std::uint32_t lost_hint_ = 0;
  /// RACK's send-ordered list (RFC 8985; Linux's tsorted_sent_queue): exactly
  /// the rack_candidate records, in non-decreasing last_sent, linked through
  /// the records by serial. RACK takes losses from the head.
  std::uint32_t rack_head_ = kNone;
  std::uint32_t rack_tail_ = kNone;
  /// The previous ACK's SACK blocks, clamped to SND.NXT: every record wholly
  /// inside one of them is sacked, so the SACK walk skips them (Linux's
  /// recv_sack_cache).
  SackBlock sack_cache_[kMaxSackBlocks];
  std::uint32_t sack_cache_count_ = 0;
  std::uint64_t sack_records_walked_ = 0;

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
