#include "quic/receive_side.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace qperc::quic {
namespace {

constexpr SimDuration kAckDelay = milliseconds(25);

}  // namespace

QuicReceiveSide::QuicReceiveSide(
    sim::Simulator& simulator, const QuicConfig& config, SmallFunction<void()> request_ack,
    SmallFunction<void(std::uint64_t, std::uint64_t, bool)> on_stream_progress)
    : simulator_(simulator),
      config_(config),
      request_ack_(std::move(request_ack)),
      on_stream_progress_(std::move(on_stream_progress)),
      delayed_ack_timer_(simulator, [this] { request_ack_(); }),
      streams_(simulator.arena()),
      connection_advertised_(config.connection_flow_window_bytes) {}

std::uint64_t QuicReceiveSide::stream_delivered(std::uint64_t stream_id) const {
  const auto it = streams_.find(stream_id);
  return it == streams_.end() ? 0 : it->second.contiguous;
}

void QuicReceiveSide::on_packet(const QuicPacket& packet) {
  const std::uint64_t pn = packet.packet_number;

  // Record the packet number in the received-range set. `next` indexes the
  // first range starting above pn; in order arrivals skip the search.
  const std::uint32_t count = received_.size();
  std::uint32_t next = count;
  if (count != 0 && pn < received_.back().first) {
    next = static_cast<std::uint32_t>(
        std::upper_bound(received_.begin(), received_.end(), pn,
                         [](std::uint64_t value, const AckRange& range) {
                           return value < range.first;
                         }) -
        received_.begin());
  }
  const bool duplicate = next != 0 && pn <= received_[next - 1].second;
  const bool out_of_order = pn < largest_received_;
  if (simulator_.trace() != nullptr) {
    std::uint64_t payload = 0;
    for (const auto& frame : packet.frames) payload += frame.length;
    simulator_.trace_event(trace::EventType::kPacketReceived, trace_endpoint_, trace_flow_,
                           pn, payload, duplicate ? 1 : 0);
  }
  if (!duplicate) {
    // Merge pn into ranges: extend neighbours where adjacent.
    const bool joins_prev = next != 0 && received_[next - 1].second + 1 == pn;
    const bool joins_next = next != count && received_[next].first == pn + 1;
    if (joins_prev && joins_next) {
      received_[next - 1].second = received_[next].second;
      received_.erase(next);
    } else if (joins_prev) {
      received_[next - 1].second = pn;
    } else if (joins_next) {
      received_[next].first = pn;
    } else {
      received_.insert(simulator_.arena(), next, AckRange{pn, pn});
    }
    largest_received_ = std::max(largest_received_, pn);
    // The merge must leave ranges sorted, disjoint, and non-adjacent around
    // the insertion point (adjacent ranges should have coalesced).
    const std::uint32_t cur = joins_prev ? next - 1 : next;
    QPERC_DCHECK_LE(received_[cur].first, received_[cur].second);
    if (cur != 0) {
      QPERC_DCHECK_GT(received_[cur].first, received_[cur - 1].second + 1)
          << "received packet ranges failed to coalesce";
    }
    if (cur + 1 < received_.size()) {
      QPERC_DCHECK_GT(received_[cur + 1].first, received_[cur].second + 1)
          << "received packet ranges failed to coalesce";
    }
  }

  if (!duplicate) {
    for (const auto& frame : packet.frames) on_stream_frame(frame);
  }

  if (packet.ack_eliciting) {
    ++ack_eliciting_since_ack_;
    const bool immediate = out_of_order || !pending_window_updates_.empty() ||
                           ack_eliciting_since_ack_ >= 2 || duplicate;
    if (immediate) {
      request_ack_();
    } else if (!delayed_ack_timer_.is_armed()) {
      delayed_ack_timer_.set_in(kAckDelay);
    }
  }
}

void QuicReceiveSide::on_stream_frame(const StreamFrame& frame) {
  auto& stream = streams_.try_emplace(frame.stream_id, simulator_.arena()).first->second;
  if (stream.advertised_limit == 0) {
    stream.advertised_limit = config_.stream_flow_window_bytes;
  }
  if (frame.fin) {
    stream.fin_offset = frame.offset + frame.length;
  }

  const std::uint64_t start = frame.offset;
  const std::uint64_t end = frame.offset + frame.length;
  const std::uint64_t before = stream.contiguous;

  if (end > stream.contiguous || (frame.fin && frame.length == 0)) {
    if (start <= stream.contiguous) {
      stream.contiguous = std::max(stream.contiguous, end);
      auto it = stream.out_of_order.begin();
      while (it != stream.out_of_order.end() && it->first <= stream.contiguous) {
        stream.contiguous = std::max(stream.contiguous, it->second);
        it = stream.out_of_order.erase(it);
      }
    } else if (end > start) {
      // Merge into the out-of-order set.
      std::uint64_t new_start = start;
      std::uint64_t new_end = end;
      auto it = stream.out_of_order.lower_bound(start);
      if (it != stream.out_of_order.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= start) {
          new_start = prev->first;
          new_end = std::max(new_end, prev->second);
          stream.out_of_order.erase(prev);
        }
      }
      it = stream.out_of_order.lower_bound(new_start);
      while (it != stream.out_of_order.end() && it->first <= new_end) {
        new_end = std::max(new_end, it->second);
        it = stream.out_of_order.erase(it);
      }
      stream.out_of_order[new_start] = new_end;
    }
  }

  QPERC_DCHECK_GE(stream.contiguous, before) << "stream reassembly moved backwards";
  QPERC_DCHECK(stream.out_of_order.empty() ||
               stream.out_of_order.begin()->first > stream.contiguous)
      << "out-of-order stream data at or below the contiguous mark";
  const std::uint64_t progress = stream.contiguous - before;
  connection_consumed_ += progress;
  maybe_update_windows(frame.stream_id, stream);

  const bool fin_complete = stream.contiguous == stream.fin_offset;
  if ((progress > 0 || (fin_complete && !stream.fin_signaled)) && on_stream_progress_) {
    if (fin_complete) stream.fin_signaled = true;
    on_stream_progress_(frame.stream_id, stream.contiguous, fin_complete);
  }
}

void QuicReceiveSide::maybe_update_windows(std::uint64_t stream_id, RecvStream& stream) {
  // The application consumes delivered bytes instantly; grant more credit
  // once half the window is used (gQUIC's session/stream flow controllers).
  QPERC_DCHECK_LE(stream.contiguous, stream.advertised_limit)
      << "peer wrote past the advertised stream flow-control limit";
  QPERC_DCHECK_LE(connection_consumed_, connection_advertised_)
      << "peer wrote past the advertised connection flow-control limit";
  if (stream.advertised_limit - stream.contiguous <
      config_.stream_flow_window_bytes / 2) {
    // Credit grants only ever move the limit forward.
    const std::uint64_t prior = stream.advertised_limit;
    stream.advertised_limit = stream.contiguous + config_.stream_flow_window_bytes;
    QPERC_DCHECK_GE(stream.advertised_limit, prior)
        << "stream flow-control limit moved backwards";
    pending_window_updates_.push_back(simulator_.arena(),
                                      WindowUpdate{stream_id, stream.advertised_limit});
  }
  if (connection_advertised_ - connection_consumed_ <
      config_.connection_flow_window_bytes / 2) {
    const std::uint64_t prior = connection_advertised_;
    connection_advertised_ =
        connection_consumed_ + config_.connection_flow_window_bytes;
    QPERC_DCHECK_GE(connection_advertised_, prior)
        << "connection flow-control limit moved backwards";
    pending_window_updates_.push_back(simulator_.arena(),
                                      WindowUpdate{0, connection_advertised_});
  }
}

void QuicReceiveSide::fill_ack(QuicPacket& packet) {
  if (received_.empty() && pending_window_updates_.empty()) return;
  packet.has_ack = !received_.empty();
  packet.ack_ranges.clear();
  // Newest ranges first, capped at the configured range budget. The emitted
  // frame must be sorted (descending) and non-overlapping — the sender-side
  // loss detector indexes unacked packets by these ranges.
  const std::uint32_t emitted = std::min(received_.size(), config_.max_ack_ranges);
  packet.ack_ranges.reserve(simulator_.arena(), emitted);
  for (std::uint32_t i = received_.size(); i > received_.size() - emitted;) {
    const AckRange& range = received_[--i];
    QPERC_DCHECK_LE(range.first, range.second);
    QPERC_DCHECK(packet.ack_ranges.empty() || range.second < packet.ack_ranges.back().first)
        << "emitted ACK ranges overlap";
    packet.ack_ranges.push_back(simulator_.arena(), range);
  }
  for (const WindowUpdate& update : pending_window_updates_) {
    packet.window_updates.push_back(simulator_.arena(), update);
  }
  pending_window_updates_.clear();
  ack_eliciting_since_ack_ = 0;
  delayed_ack_timer_.cancel();
}

}  // namespace qperc::quic
