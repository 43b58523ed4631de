#include "tcp/sender.hpp"

#include <algorithm>

#include "net/packet.hpp"
#include "util/check.hpp"

namespace qperc::tcp {
namespace {

constexpr SimDuration kMinTlpTimeout = milliseconds(10);

}  // namespace

TcpSender::TcpSender(sim::Simulator& simulator, const TcpConfig& config,
                     std::uint64_t send_buffer_bytes, SendFn send_segment)
    : simulator_(simulator),
      config_(config),
      send_segment_(std::move(send_segment)),
      cc_(cc::make_congestion_controller(config.congestion_control,
                                         config.initial_window_segments, config.mss,
                                         config.bbr_lt_bw)),
      pacer_(cc::PacerConfig{.enabled = config.pacing,
                             .initial_quantum_segments = 10,
                             .refill_quantum_segments = 2,
                             .segment_bytes = static_cast<std::uint32_t>(config.mss)}),
      send_buffer_bytes_(send_buffer_bytes),
      retx_timer_(simulator, [this] { on_retransmission_timer(); }),
      send_timer_(simulator, [this] { maybe_send(); }) {
  cc_wants_rate_ = cc_->uses_delivery_rate();
}

void TcpSender::on_established(std::uint64_t initial_peer_rwnd, SimDuration handshake_rtt) {
  QPERC_DCHECK(!established_) << "TCP sender established twice";
  established_ = true;
  peer_rwnd_ = initial_peer_rwnd;
  if (handshake_rtt > SimDuration::zero()) rtt_.on_rtt_sample(handshake_rtt);
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));
  last_send_time_ = simulator_.now();
  maybe_send();
}

std::uint64_t TcpSender::write(std::uint64_t bytes) {
  const std::uint64_t accepted = std::min(bytes, writable_bytes());
  if (accepted == 0) return 0;
  restart_from_idle_if_needed();
  app_bytes_total_ += accepted;
  maybe_send();
  return accepted;
}

std::uint64_t TcpSender::writable_bytes() const {
  const std::uint64_t buffered = app_bytes_total_ - highest_cum_ack_;
  return buffered >= send_buffer_bytes_ ? 0 : send_buffer_bytes_ - buffered;
}

void TcpSender::restart_from_idle_if_needed() {
  if (!established_ || outstanding_bytes_ != 0 || next_seq_ != app_bytes_total_) return;
  const SimDuration idle = simulator_.now() - last_send_time_;
  if (idle < rtt_.rto()) return;
  if (config_.slow_start_after_idle) cc_->on_restart_after_idle();
  pacer_.on_restart_from_idle(simulator_.now());
}

std::uint32_t TcpSender::next_lost_segment() {
  QPERC_DCHECK_EQ(lost_count_, count_lost_segments()) << "lost-segment count drifted";
  if (lost_count_ == 0) return kNone;
  std::uint32_t i = lost_hint_index();
  for (; i < segments_.size(); ++i) {
    if (segments_[i].lost && !segments_[i].sacked) break;
  }
  QPERC_DCHECK_EQ(i, first_lost_by_scan()) << "lowest-lost hint skipped a lost segment";
  if (i == segments_.size()) return kNone;
  lost_hint_ = front_serial_ + i;
  return i;
}

std::uint32_t TcpSender::first_segment_at(std::uint64_t seq) const {
  // No record is longer than an MSS, so none below `lo` starts at or after
  // `seq`; when the records are full-sized, `lo` is the answer. Gallop up
  // from it to bracket the answer in [lo, hi], then bisect.
  const std::uint32_t size = segments_.size();
  std::uint32_t lo = 0;
  if (size != 0 && seq > segments_[0].start) {
    lo = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(size, (seq - segments_[0].start + config_.mss - 1) / config_.mss));
  }
  std::uint32_t hi = lo;
  for (std::uint32_t step = 1; hi < size && segments_[hi].start < seq; step *= 2) {
    lo = hi + 1;
    hi = std::min(size, lo + step);
  }
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (segments_[mid].start < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint32_t TcpSender::first_segment_past(std::uint64_t seq) const {
  // Records are contiguous: at most the one before the first record starting
  // at or after `seq` can straddle it.
  const std::uint32_t i = first_segment_at(seq);
  return i > 0 && segments_[i - 1].end > seq ? i - 1 : i;
}

const SackBlock* TcpSender::cached_sack_holding(std::uint64_t start, std::uint64_t end) const {
  for (std::uint32_t b = 0; b < sack_cache_count_; ++b) {
    const SackBlock& cached = sack_cache_[b];
    if (cached.start <= start && end <= cached.end) return &cached;
  }
  return nullptr;
}

std::uint32_t TcpSender::count_lost_segments() const {
  std::uint32_t lost = 0;
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    lost += segments_[i].lost && !segments_[i].sacked ? 1 : 0;
  }
  return lost;
}

std::uint32_t TcpSender::first_lost_by_scan() const {
  std::uint32_t i = 0;
  while (i < segments_.size() && !(segments_[i].lost && !segments_[i].sacked)) ++i;
  return i;
}

bool TcpSender::rack_list_matches_scan() const {
  std::uint32_t listed = 0;
  std::uint32_t prev = kNone;
  for (std::uint32_t serial = rack_head_; serial != kNone;) {
    const std::uint32_t index = serial - front_serial_;
    if (index >= segments_.size()) return false;
    const SegmentRecord& record = segments_[index];
    if (!rack_candidate(record) || record.rack_prev != prev) return false;
    if (prev != kNone && segments_[prev - front_serial_].last_sent > record.last_sent) {
      return false;
    }
    if (++listed > segments_.size()) return false;  // a cycle
    prev = serial;
    serial = record.rack_next;
  }
  if (prev != rack_tail_) return false;
  std::uint32_t candidates = 0;
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    candidates += rack_candidate(segments_[i]) ? 1 : 0;
  }
  return listed == candidates;
}

bool TcpSender::sack_cache_holds() const {
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    const SegmentRecord& record = segments_[i];
    if (!record.sacked && cached_sack_holding(record.start, record.end) != nullptr) return false;
  }
  return true;
}

void TcpSender::rack_unlink(std::uint32_t serial) {
  const SegmentRecord& record = at_serial(serial);
  if (record.rack_prev == kNone) {
    rack_head_ = record.rack_next;
  } else {
    at_serial(record.rack_prev).rack_next = record.rack_next;
  }
  if (record.rack_next == kNone) {
    rack_tail_ = record.rack_prev;
  } else {
    at_serial(record.rack_next).rack_prev = record.rack_prev;
  }
}

void TcpSender::rack_insert(std::uint32_t serial) {
  SegmentRecord& record = at_serial(serial);
  std::uint32_t after = rack_tail_;
  while (after != kNone && at_serial(after).last_sent > record.last_sent) {
    after = at_serial(after).rack_prev;
  }
  record.rack_prev = after;
  record.rack_next = after == kNone ? rack_head_ : at_serial(after).rack_next;
  if (record.rack_next == kNone) {
    rack_tail_ = serial;
  } else {
    at_serial(record.rack_next).rack_prev = serial;
  }
  if (after == kNone) {
    rack_head_ = serial;
  } else {
    at_serial(after).rack_next = serial;
  }
}

void TcpSender::maybe_send() {
  if (!established_) return;
  QPERC_DCHECK_LE(highest_cum_ack_, next_seq_) << "SND.UNA ran past SND.NXT";
  QPERC_DCHECK_LE(next_seq_, app_bytes_total_);
  while (true) {
    const std::uint64_t cwnd = cc_->congestion_window();
    QPERC_DCHECK_GE(cwnd, config_.mss) << "congestion window collapsed below 1 MSS";
    if (outstanding_bytes_ >= cwnd) return;  // window full; ACK clock will resume

    std::uint32_t index = next_lost_segment();
    const bool is_retransmission = index != kNone;
    std::uint64_t len = 0;
    if (is_retransmission) {
      len = segments_[index].end - segments_[index].start;
    } else {
      if (next_seq_ >= app_bytes_total_) {
        // Nothing more to send although the window has room: app-limited.
        sampler_.on_app_limited();
        return;
      }
      // Respect the peer's advertised receive window for new data.
      const std::uint64_t in_window = next_seq_ - highest_cum_ack_;
      if (in_window >= peer_rwnd_) return;  // zero-window; opened by later ACKs
      len = std::min({config_.mss, app_bytes_total_ - next_seq_, peer_rwnd_ - in_window});
    }

    const auto wire_bytes = static_cast<std::uint32_t>(len) + kTcpHeaderBytes;
    const SimTime release = pacer_.next_send_time(simulator_.now(), wire_bytes);
    if (release > simulator_.now()) {
      send_timer_.set_at(release);
      return;
    }
    if (!is_retransmission) {
      // New data is packetized only once the pacer releases it.
      segments_.push_back(simulator_.arena(),
                          SegmentRecord{.start = next_seq_, .end = next_seq_ + len, .sample = {}});
      index = segments_.size() - 1;
      next_seq_ += len;
    }
    transmit(index, is_retransmission);
  }
}

void TcpSender::transmit(std::uint32_t index, bool is_retransmission) {
  const SimTime now = simulator_.now();
  SegmentRecord& record = segments_[index];
  const std::uint32_t serial = front_serial_ + index;
  QPERC_DCHECK_LT(record.start, record.end) << "empty TCP segment packetized";
  QPERC_DCHECK_GE(now, last_send_time_) << "send timestamps must be monotone";
  const auto len = record.end - record.start;

  if (rack_candidate(record)) rack_unlink(serial);  // a probe re-sends it
  record.transmissions += 1;
  record.last_sent = now;
  if (record.lost && !record.sacked) --lost_count_;
  record.lost = false;
  record.lost_by_rto = false;
  if (!record.outstanding) {
    record.outstanding = true;
    outstanding_bytes_ += len;
  }
  rack_insert(serial);

  // A probe overwrites a live snapshot, whose bytes then stay in the
  // sampler's in-flight sum (see on_retransmission_timer).
  record.sample = sampler_.on_packet_sent(len, now, outstanding_bytes_ - len);
  record.sample_live = true;
  cc_->on_packet_sent(now, outstanding_bytes_ - len, len);
  const std::uint32_t wire = static_cast<std::uint32_t>(len) + kTcpHeaderBytes;
  pacer_.on_packet_sent(now, wire);
  last_send_time_ = now;

  ++stats_.data_packets_sent;
  stats_.bytes_sent += len;
  if (is_retransmission) ++stats_.retransmissions;
  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(is_retransmission ? trace::EventType::kPacketRetransmitted
                                             : trace::EventType::kPacketSent,
                           trace_endpoint_, trace_flow_, record.start, len,
                           record.transmissions);
  }

  TcpSegment segment;
  segment.has_data = true;
  segment.seq = record.start;
  segment.payload_bytes = static_cast<std::uint32_t>(len);
  send_segment_(std::move(segment));

  rearm_retransmission_timer();
}

void TcpSender::mark_delivered(SegmentRecord& record, SimTime now,
                               std::uint64_t& newly_delivered, SimDuration& rtt_sample,
                               SimTime& newest_delivered_sent_time) {
  const auto len = record.end - record.start;
  if (record.lost && simulator_.trace() != nullptr) {
    // Declared lost but the original transmission was delivered after all.
    simulator_.trace_event(trace::EventType::kSpuriousLoss, trace_endpoint_, trace_flow_,
                           record.start, len, record.lost_by_rto ? 1 : 0);
  }
  if (record.lost && record.lost_by_rto && record.transmissions == 1) {
    // The ACK acknowledges the *original* transmission of a segment the RTO
    // declared lost: the timeout was spurious (F-RTO/RFC 3522 detection).
    spurious_rto_detected_ = true;
  }
  newly_delivered += len;
  stats_.bytes_delivered += len;
  if (record.outstanding) {
    record.outstanding = false;
    QPERC_DCHECK_GE(outstanding_bytes_, len);
    outstanding_bytes_ -= len;
  }
  if (record.transmissions == 1 && now >= record.last_sent) {
    // Karn's rule: only never-retransmitted segments produce RTT samples.
    // Clamp to one tick: a zero-delay profile can deliver and acknowledge in
    // the same instant, and RttEstimator requires strictly positive samples.
    rtt_sample = std::max({rtt_sample, now - record.last_sent, SimDuration{1}});
  }
  newest_delivered_sent_time = std::max(newest_delivered_sent_time, record.last_sent);
}

void TcpSender::on_ack_received(const TcpSegment& segment) {
  if (!segment.has_ack || !established_) return;
  // Always-on: an ACK for bytes that were never sent means sequence-space
  // corruption somewhere in the stack; every byte count downstream of here
  // would be garbage.
  QPERC_CHECK_LE(segment.cumulative_ack, next_seq_)
      << "peer acknowledged bytes beyond SND.NXT";
  const SimTime now = simulator_.now();
  // Window update rule (RFC 9293 §3.10.7.4 flavour): only segments at or
  // beyond the current cumulative ACK may change the send window. Under
  // reordering, a stale ACK arriving late would otherwise shrink peer_rwnd_
  // below what the receiver has since advertised and stall the sender — with
  // no zero-window probe to recover, a permanent deadlock.
  if (segment.cumulative_ack >= highest_cum_ack_) {
    peer_rwnd_ = segment.receive_window_bytes;
  }

  std::uint64_t newly_delivered = 0;
  SimDuration rtt_sample{0};
  SimTime newest_sent_time{0};

  // Rate samples: keep the fastest sample in this ACK (BBR's max filter
  // consumes it; taking the max here loses nothing). A record yields one
  // only while its latest transmission's snapshot is live: not after a
  // loss declaration or an earlier sample.
  cc::RateSample best_rate_sample{};
  bool have_rate_sample = false;
  const auto consider_rate_sample = [&](SegmentRecord& record) {
    if (!record.sample_live) return;
    record.sample_live = false;
    const auto len = record.end - record.start;
    if (!cc_wants_rate_) {
      // Loss-based controller: same bookkeeping and same have_rate gate,
      // minus the rate arithmetic nobody reads.
      have_rate_sample |=
          sampler_.on_packet_acked_no_sample(record.sample, record.last_sent, len, now);
    } else if (const auto sample =
                   sampler_.on_packet_acked(record.sample, record.last_sent, len, now)) {
      if (!have_rate_sample ||
          sample->delivery_rate > best_rate_sample.delivery_rate) {
        best_rate_sample = *sample;
      }
      have_rate_sample = true;
    }
  };

  // Cumulative acknowledgment. A sacked record was delivered when it was
  // sacked.
  const bool cum_advanced = segment.cumulative_ack > highest_cum_ack_;
  if (cum_advanced) {
    while (!segments_.empty() && segments_.front().end <= segment.cumulative_ack) {
      SegmentRecord& record = segments_.front();
      if (!record.sacked) {
        if (rack_candidate(record)) rack_unlink(front_serial_);
        if (record.lost) --lost_count_;
        mark_delivered(record, now, newly_delivered, rtt_sample, newest_sent_time);
        consider_rate_sample(record);
      }
      segments_.pop_front();
      ++front_serial_;
    }
    highest_cum_ack_ = segment.cumulative_ack;
  }

  // Selective acknowledgments: blocks in wire order, records ascending within
  // a block. Records wholly inside one of the previous ACK's blocks are
  // already sacked, so the walk starts past the cached block holding the
  // block's start, if any, and jumps past every other cached block it meets:
  // it visits what this ACK newly reports (plus records the edges cut).
  for (const auto& block : segment.sacks()) {
    QPERC_DCHECK_LT(block.start, block.end) << "empty SACK block";
    QPERC_DCHECK_LE(block.end, next_seq_) << "SACK block beyond SND.NXT";
    std::uint32_t i = 0;
    if (const SackBlock* head = cached_sack_holding(block.start, block.start + 1)) {
      if (block.end <= head->end) continue;  // re-reported: nothing new
      // The first record past the cached block may straddle it and start
      // before this block.
      i = first_segment_past(head->end);
      if (i < segments_.size() && segments_[i].start < block.start) ++i;
    } else {
      i = first_segment_at(block.start);
    }
    while (i < segments_.size() && segments_[i].end <= block.end) {
      SegmentRecord& record = segments_[i];
      if (const SackBlock* cached = cached_sack_holding(record.start, record.end)) {
        i = first_segment_past(cached->end);
        continue;
      }
      ++sack_records_walked_;
      if (!record.sacked) {
        if (rack_candidate(record)) rack_unlink(front_serial_ + i);
        record.sacked = true;
        if (record.lost) --lost_count_;
        mark_delivered(record, now, newly_delivered, rtt_sample, newest_sent_time);
        consider_rate_sample(record);
      }
      ++i;
    }
  }
  sack_cache_count_ = 0;
  for (const auto& block : segment.sacks()) {
    sack_cache_[sack_cache_count_++] = {block.start, std::min(block.end, next_seq_)};
  }
  QPERC_DCHECK(sack_cache_holds()) << "a record inside a cached SACK block is not sacked";

  if (rtt_sample > SimDuration::zero()) rtt_.on_rtt_sample(rtt_sample);
  if (newest_sent_time > rack_newest_sent_time_) rack_newest_sent_time_ = newest_sent_time;

  if (spurious_rto_detected_) {
    spurious_rto_detected_ = false;
    undo_spurious_rto();
  }

  detect_losses(rack_newest_sent_time_);
  QPERC_DCHECK_LE(outstanding_bytes_, next_seq_ - highest_cum_ack_)
      << "pipe exceeds un-acknowledged sequence range";

  // Congestion-controller update.
  bool round_ended = false;
  if (highest_cum_ack_ >= round_end_seq_) {
    round_ended = true;
    round_end_seq_ = next_seq_;
  }
  cc::AckSample ack_sample;
  ack_sample.bytes_acked = newly_delivered;
  ack_sample.bytes_lost = bytes_lost_since_ack_;
  ack_sample.rtt = rtt_sample;
  ack_sample.smoothed_rtt = rtt_.smoothed_rtt();
  if (have_rate_sample) {
    ack_sample.delivery_rate = best_rate_sample.delivery_rate;
    ack_sample.is_app_limited = best_rate_sample.is_app_limited;
  }
  ack_sample.bytes_in_flight = outstanding_bytes_;
  ack_sample.round_trip_ended = round_ended;
  if (newly_delivered > 0) {
    cc_->on_ack(now, ack_sample);
    bytes_lost_since_ack_ = 0;  // consumed; keep accumulating otherwise
    rto_backoff_ = 0;
    tlp_fired_this_episode_ = false;
  }
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));

  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(
        trace::EventType::kMetricsUpdated, trace_endpoint_, trace_flow_,
        static_cast<std::uint64_t>(rtt_.smoothed_rtt().count()), outstanding_bytes_,
        cc_->congestion_window());
  }

  rearm_retransmission_timer();

  if (cum_advanced && on_writable_ && writable_bytes() > 0) on_writable_();
  maybe_send();
}

void TcpSender::undo_spurious_rto() {
  // The RTO that marked everything lost was bogus: original-transmission ACKs
  // are still arriving. Un-mark the not-yet-retransmitted segments so the
  // sender keeps waiting for their original ACKs instead of blasting a
  // go-back-N retransmission storm into an already-slow link, and undo the
  // window collapse (the path did not actually lose anything).
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    SegmentRecord& record = segments_[i];
    if (!record.lost || !record.lost_by_rto || record.sacked) continue;
    record.lost = false;
    record.lost_by_rto = false;
    --lost_count_;
    if (!record.outstanding) {
      record.outstanding = true;
      outstanding_bytes_ += record.end - record.start;
    }
    // Sent before the RTO, so behind everything transmitted since.
    rack_insert(front_serial_ + i);
  }
  rto_backoff_ = 0;
  ++stats_.spurious_timeouts;
  cc_->on_spurious_retransmission_timeout();
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));
}

void TcpSender::mark_lost(SegmentRecord& record, bool by_rto) {
  const auto len = record.end - record.start;
  record.lost = true;
  record.lost_by_rto = by_rto;
  ++lost_count_;
  if (record.outstanding) {
    record.outstanding = false;
    QPERC_DCHECK_GE(outstanding_bytes_, len);
    outstanding_bytes_ -= len;
  }
  if (record.sample_live) {
    record.sample_live = false;
    sampler_.on_packet_lost(len);
  }
  bytes_lost_since_ack_ += len;
  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(trace::EventType::kPacketLost, trace_endpoint_, trace_flow_,
                           record.start, len, /*value=*/by_rto ? 1 : 0);
  }
}

void TcpSender::detect_losses(SimTime newest_delivered_sent_time) {
  QPERC_DCHECK(rack_list_matches_scan()) << "RACK list drifted from the scoreboard";
  if (newest_delivered_sent_time == SimTime{0}) return;
  // RACK: a segment sent sufficiently before the newest delivered segment is
  // deemed lost. Reordering window: a quarter of the minimum RTT.
  const SimDuration reorder_window =
      rtt_.has_sample() ? std::max<SimDuration>(rtt_.min_rtt() / 4, milliseconds(1))
                        : SimDuration{milliseconds(5)};
  const auto expired = [&](const SegmentRecord& record) {
    return record.last_sent + reorder_window < newest_delivered_sent_time;
  };
  // The list is in send order, so the expired candidates are its head run.
  // Note their index span and whether the run is also in sequence order.
  const std::uint32_t first = rack_head_;
  std::uint32_t stop = first;
  std::uint32_t lo = kNone;
  std::uint32_t hi = 0;
  bool in_sequence_order = true;
  while (stop != kNone && expired(at_serial(stop))) {
    const std::uint32_t index = stop - front_serial_;
    in_sequence_order = in_sequence_order && (lo == kNone || index > hi);
    lo = std::min(lo, index);
    hi = std::max(hi, index);
    stop = at_serial(stop).rack_next;
  }
  if (lo == kNone) return;
  rack_head_ = stop;
  if (stop == kNone) {
    rack_tail_ = kNone;
  } else {
    at_serial(stop).rack_prev = kNone;
  }
  // Mark them in sequence order, as a scan of the scoreboard would: when
  // retransmissions put the run out of order, rescan its index span.
  if (in_sequence_order) {
    for (std::uint32_t serial = first; serial != stop;) {
      SegmentRecord& record = at_serial(serial);
      serial = record.rack_next;
      mark_lost(record, /*by_rto=*/false);
    }
  } else {
    for (std::uint32_t i = lo; i <= hi; ++i) {
      SegmentRecord& record = segments_[i];
      if (rack_candidate(record) && expired(record)) mark_lost(record, /*by_rto=*/false);
    }
  }
  if (lo < lost_hint_index()) lost_hint_ = front_serial_ + lo;
  enter_recovery_if_needed();
}

void TcpSender::enter_recovery_if_needed() {
  if (highest_cum_ack_ < recovery_point_) return;  // already in this episode
  recovery_point_ = next_seq_;
  ++stats_.congestion_events;
  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(trace::EventType::kCongestionEvent, trace_endpoint_, trace_flow_,
                           /*id=*/0, outstanding_bytes_, /*value=*/0);
  }
  cc_->on_congestion_event(simulator_.now(), outstanding_bytes_);
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));
}

void TcpSender::rearm_retransmission_timer() {
  const bool has_outstanding = outstanding_bytes_ > 0;
  const bool has_lost = lost_count_ != 0;
  if (!has_outstanding && !has_lost) {
    retx_timer_.cancel();
    return;
  }
  const SimDuration rto = rtt_.rto() * (1u << std::min(rto_backoff_, 6u));
  // Tail-loss probe fires before the full RTO when eligible: something is in
  // flight, we have an RTT estimate, and no probe was spent this episode.
  if (has_outstanding && rtt_.has_sample() && !tlp_fired_this_episode_ &&
      rto_backoff_ == 0) {
    const SimDuration pto = std::max(2 * rtt_.smoothed_rtt(), kMinTlpTimeout);
    if (pto < rto) {
      timer_is_tlp_ = true;
      retx_timer_.set_in(pto);
      return;
    }
  }
  timer_is_tlp_ = false;
  retx_timer_.set_in(rto);
}

void TcpSender::on_retransmission_timer() {
  if (timer_is_tlp_) {
    // Probe with the highest outstanding segment to elicit a SACK.
    tlp_fired_this_episode_ = true;
    ++stats_.tail_probes;
    simulator_.trace_event(trace::EventType::kTlpFired, trace_endpoint_, trace_flow_);
    std::uint32_t tail = segments_.size();
    while (tail > 0 && !(segments_[tail - 1].outstanding && !segments_[tail - 1].sacked)) {
      --tail;
    }
    if (tail > 0) {
      // Known leak: the probe re-sends a record whose rate-sample snapshot is
      // live, and transmit overwrites it without releasing its bytes, so they
      // stay counted in the sampler's in-flight sum for the rest of the
      // connection (fixing it shifts BBR results).
      transmit(tail - 1, true);
    } else {
      rearm_retransmission_timer();
    }
    return;
  }

  // Full RTO: collapse the pipe, mark everything unacked as lost. That
  // empties the RACK list.
  ++stats_.timeouts;
  rto_backoff_ = std::min(rto_backoff_ + 1, 10u);
  simulator_.trace_event(trace::EventType::kRtoFired, trace_endpoint_, trace_flow_,
                         /*id=*/0, /*bytes=*/0, rto_backoff_);
  for (std::uint32_t i = 0; i < segments_.size(); ++i) {
    SegmentRecord& record = segments_[i];
    if (record.sacked || record.lost) continue;
    mark_lost(record, /*by_rto=*/true);
  }
  rack_head_ = kNone;
  rack_tail_ = kNone;
  lost_hint_ = front_serial_;
  recovery_point_ = next_seq_;
  cc_->on_retransmission_timeout();
  pacer_.set_rate(simulator_.now(), cc_->pacing_rate(rtt_.smoothed_rtt()));
  maybe_send();
  rearm_retransmission_timer();
}

}  // namespace qperc::tcp
