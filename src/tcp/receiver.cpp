#include "tcp/receiver.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace qperc::tcp {
namespace {

/// Linux delayed-ACK timeout.
constexpr SimDuration kDelayedAckTimeout = milliseconds(40);

}  // namespace

TcpReceiver::TcpReceiver(sim::Simulator& simulator, const TcpConfig& config,
                         std::uint64_t rwnd_limit_bytes, SmallFunction<void()> send_ack_now,
                         SmallFunction<void(std::uint64_t)> on_delivered)
    : simulator_(simulator),
      config_(config),
      send_ack_now_(std::move(send_ack_now)),
      on_delivered_(std::move(on_delivered)),
      ooo_ranges_(ArenaAllocator<std::pair<const std::uint64_t, std::uint64_t>>(
          simulator.arena())),
      recency_(ArenaAllocator<std::uint64_t>(simulator.arena())),
      rwnd_limit_(rwnd_limit_bytes),
      autotuning_(!config.tuned_buffers),
      delayed_ack_timer_(simulator, [this] { send_ack_now_(); }) {}

std::uint64_t TcpReceiver::advertised_window() const {
  // The application drains delivered bytes immediately; only buffered
  // out-of-order data occupies the window.
  QPERC_DCHECK_EQ(ooo_bytes_, count_ooo_bytes()) << "out-of-order byte count drifted";
  return ooo_bytes_ >= rwnd_limit_ ? 0 : rwnd_limit_ - ooo_bytes_;
}

std::uint64_t TcpReceiver::count_ooo_bytes() const {
  std::uint64_t buffered = 0;
  for (const auto& [start, end] : ooo_ranges_) buffered += end - start;
  return buffered;
}

void TcpReceiver::autotune(std::uint64_t newly_delivered) {
  if (!autotuning_ || rwnd_limit_ >= config_.autotune_max_rwnd_bytes) return;
  // Linux dynamic right-sizing doubles the window whenever a full window's
  // worth of data is consumed within the measurement period; delivery volume
  // is the equivalent trigger at simulation granularity.
  autotune_delivered_marker_ += newly_delivered;
  if (autotune_delivered_marker_ >= rwnd_limit_) {
    autotune_delivered_marker_ = 0;
    rwnd_limit_ = std::min(rwnd_limit_ * 2, config_.autotune_max_rwnd_bytes);
  }
}

void TcpReceiver::on_data(std::uint64_t seq, std::uint32_t payload_bytes) {
  if (simulator_.trace() != nullptr) {
    simulator_.trace_event(trace::EventType::kPacketReceived, trace_endpoint_, trace_flow_,
                           seq, payload_bytes, /*value=*/seq + payload_bytes <= rcv_nxt_);
  }
  const std::uint64_t end = seq + payload_bytes;
  if (end <= rcv_nxt_) {
    // Spurious retransmission of fully delivered data: re-ACK immediately so
    // the sender can clean up.
    schedule_ack(/*immediate=*/true);
    return;
  }
  const std::uint64_t old_rcv_nxt = rcv_nxt_;
  bool out_of_order = false;

  if (seq <= rcv_nxt_) {
    rcv_nxt_ = std::max(rcv_nxt_, end);
    // Absorb any now-contiguous out-of-order ranges.
    auto it = ooo_ranges_.begin();
    while (it != ooo_ranges_.end() && it->first <= rcv_nxt_) {
      rcv_nxt_ = std::max(rcv_nxt_, it->second);
      ooo_bytes_ -= it->second - it->first;
      std::erase(recency_, it->first);
      it = ooo_ranges_.erase(it);
    }
  } else {
    out_of_order = true;
    // Merge [seq, end) into the out-of-order set.
    std::uint64_t new_start = seq;
    std::uint64_t new_end = end;
    auto it = ooo_ranges_.lower_bound(seq);
    if (it != ooo_ranges_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= seq) {
        new_start = prev->first;
        new_end = std::max(new_end, prev->second);
        ooo_bytes_ -= prev->second - prev->first;
        std::erase(recency_, prev->first);
        ooo_ranges_.erase(prev);
      }
    }
    it = ooo_ranges_.lower_bound(new_start);
    while (it != ooo_ranges_.end() && it->first <= new_end) {
      new_end = std::max(new_end, it->second);
      ooo_bytes_ -= it->second - it->first;
      std::erase(recency_, it->first);
      it = ooo_ranges_.erase(it);
    }
    ooo_ranges_[new_start] = new_end;
    ooo_bytes_ += new_end - new_start;
    recency_.insert(recency_.begin(), new_start);
  }

  QPERC_DCHECK_GE(rcv_nxt_, old_rcv_nxt) << "RCV.NXT moved backwards";
  QPERC_DCHECK(ooo_ranges_.empty() || ooo_ranges_.begin()->first > rcv_nxt_)
      << "out-of-order range at or below RCV.NXT survived absorption";
  QPERC_DCHECK_EQ(recency_.size(), ooo_ranges_.size())
      << "SACK recency list out of sync with the range set";
  if (rcv_nxt_ > old_rcv_nxt) {
    autotune(rcv_nxt_ - old_rcv_nxt);
    on_delivered_(rcv_nxt_);
  }

  // ACK policy: immediately on out-of-order data or when a hole was just
  // filled; otherwise every second full-sized segment, else delayed.
  const bool filled_hole = seq <= old_rcv_nxt && !ooo_ranges_.empty();
  const bool was_reordered = out_of_order || filled_hole || rcv_nxt_ < seq;
  if (payload_bytes >= config_.mss) ++full_packets_since_ack_;
  schedule_ack(was_reordered || !ooo_ranges_.empty() || full_packets_since_ack_ >= 2);
}

void TcpReceiver::schedule_ack(bool immediate) {
  if (immediate) {
    send_ack_now_();
    return;
  }
  if (!delayed_ack_timer_.is_armed()) delayed_ack_timer_.set_in(kDelayedAckTimeout);
}

void TcpReceiver::fill_ack(TcpSegment& segment) {
  segment.has_ack = true;
  segment.cumulative_ack = rcv_nxt_;
  segment.receive_window_bytes = advertised_window();
  segment.sack_count = 0;
  for (const std::uint64_t start : recency_) {
    if (segment.sack_count >= kMaxSackBlocks) break;
    const auto it = ooo_ranges_.find(start);
    if (it == ooo_ranges_.end()) continue;
    // Every advertised block must be a real, non-empty range strictly above
    // the cumulative ACK; blocks are disjoint because ooo_ranges_ is.
    QPERC_DCHECK_LT(it->first, it->second);
    QPERC_DCHECK_GT(it->first, segment.cumulative_ack);
    segment.sack_blocks[segment.sack_count++] = SackBlock{it->first, it->second};
  }
  QPERC_DCHECK_LE(segment.receive_window_bytes, rwnd_limit_);
  full_packets_since_ack_ = 0;
  delayed_ack_timer_.cancel();
}

}  // namespace qperc::tcp
