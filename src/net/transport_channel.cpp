#include "net/transport_channel.hpp"

#include <chrono>
#include <cstring>

#include "net/errors.hpp"
#include "net/wire.hpp"

namespace pasnet::net {

TransportChannel::TransportChannel(std::unique_ptr<Transport> transport, int local_party)
    : transport_(std::move(transport)), local_party_(local_party) {
  if (local_party != 0 && local_party != 1) {
    throw std::invalid_argument("TransportChannel: local_party must be 0 or 1");
  }
  if (transport_ == nullptr) {
    throw std::invalid_argument("TransportChannel: null transport");
  }
  stats_ = std::make_shared<crypto::TrafficStats>();
}

void TransportChannel::note_message(int sender) noexcept {
  // Mirror every round increment into the tracer at the exact meter site,
  // so the trace witness stays an independent copy of TrafficStats.
  if (in_round_) {
    if (!round_counted_) {
      ++stats_->rounds;
      round_counted_ = true;
      if (tracer_ != nullptr) tracer_->add(obs::Counter::rounds, 1);
    }
    last_sender_ = sender;
  } else if (last_sender_ != sender) {
    ++stats_->rounds;
    last_sender_ = sender;
    if (tracer_ != nullptr) tracer_->add(obs::Counter::rounds, 1);
  }
}

void TransportChannel::send_frame(const std::uint8_t* data, std::size_t size,
                                  std::uint64_t wire_bytes) {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (closed_) throw crypto::ChannelClosed("TransportChannel::send: channel closed");
  }
  // Frame = [u64 accounted wire bytes][message]; the peer credits our
  // direction with the same figure we do, keeping the two endpoints'
  // meters identical.  The message is copied once, straight into the
  // frame.
  std::vector<std::uint8_t> frame(8 + size);
  put_u64_le(frame.data(), wire_bytes);
  if (size > 0) std::memcpy(frame.data() + 8, data, size);
  transport_->send_frame(frame);
  std::lock_guard<std::mutex> lk(m_);
  (local_party_ == 0 ? stats_->bytes_p0_to_p1 : stats_->bytes_p1_to_p0) += wire_bytes;
  ++stats_->messages;
  if (tracer_ != nullptr) {
    tracer_->add(local_party_ == 0 ? obs::Counter::bytes_p0_to_p1
                                   : obs::Counter::bytes_p1_to_p0,
                 wire_bytes);
    tracer_->add(obs::Counter::messages, 1);
  }
  note_message(local_party_);
}

void TransportChannel::do_send(std::vector<std::uint8_t>&& data, std::uint64_t wire_bytes) {
  send_frame(data.data(), data.size(), wire_bytes);
}

// Words go on the wire as their in-memory bytes (little-endian hosts), the
// frame a byte message of the same words would carry.
void TransportChannel::do_send_words(crypto::RingVec&& words, std::uint64_t wire_bytes) {
  do_send_word_copy(words, wire_bytes);
}

void TransportChannel::do_send_word_copy(const crypto::RingVec& words,
                                         std::uint64_t wire_bytes) {
  send_frame(reinterpret_cast<const std::uint8_t*>(words.data()),
             words.size() * sizeof(std::uint64_t), wire_bytes);
}

std::vector<std::uint8_t> TransportChannel::recv_checked_frame() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (closed_) throw crypto::ChannelClosed("TransportChannel::recv: channel closed");
  }
  // Time the blocking wire wait: over TCP every recv is a wait, so the
  // whole recv_frame call counts as recv_wait_us (deserialization above
  // the channel is negligible next to the wire).
  const bool timed = tracer_ != nullptr && tracer_->enabled();
  const auto wait_begin =
      timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  std::vector<std::uint8_t> frame = transport_->recv_frame();
  if (timed) {
    tracer_->add(obs::Counter::recv_wait_us,
                 static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                                std::chrono::steady_clock::now() - wait_begin)
                                                .count()));
  }
  if (frame.size() < 8) {
    throw FrameError("TransportChannel::recv: frame shorter than its sub-header");
  }
  const std::uint64_t wire_bytes = get_u64_le(frame.data());
  // Sanity-bound the peer's accounting claim: the modeled width never
  // exceeds the in-memory width (8 bytes/element), so a claim beyond
  // 8x the message size (+ slack for empty messages) is hostile input.
  if (wire_bytes > 8 * (frame.size() - 8) + 64) {
    throw FrameError("TransportChannel::recv: implausible wire-byte accounting in sub-header");
  }
  const int peer = 1 - local_party_;
  std::lock_guard<std::mutex> lk(m_);
  (peer == 0 ? stats_->bytes_p0_to_p1 : stats_->bytes_p1_to_p0) += wire_bytes;
  ++stats_->messages;
  if (tracer_ != nullptr) {
    tracer_->add(peer == 0 ? obs::Counter::bytes_p0_to_p1 : obs::Counter::bytes_p1_to_p0,
                 wire_bytes);
    tracer_->add(obs::Counter::messages, 1);
  }
  note_message(peer);
  return frame;
}

std::vector<std::uint8_t> TransportChannel::do_recv() {
  std::vector<std::uint8_t> frame = recv_checked_frame();
  frame.erase(frame.begin(), frame.begin() + 8);
  return frame;
}

crypto::RingVec TransportChannel::do_recv_words() {
  const std::vector<std::uint8_t> frame = recv_checked_frame();
  if ((frame.size() - 8) % sizeof(std::uint64_t) != 0) {
    throw std::logic_error("Channel::recv_ring: message size mismatch");
  }
  crypto::RingVec words((frame.size() - 8) / sizeof(std::uint64_t));
  if (!words.empty()) std::memcpy(words.data(), frame.data() + 8, frame.size() - 8);
  return words;
}

void TransportChannel::do_recv_words_add(crypto::RingVec& acc, std::uint64_t mask) {
  const std::vector<std::uint8_t> frame = recv_checked_frame();
  if (frame.size() - 8 != acc.size() * sizeof(std::uint64_t)) {
    throw std::logic_error("Channel::recv_ring: message size mismatch");
  }
  const std::uint8_t* p = frame.data() + 8;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    std::uint64_t w;
    std::memcpy(&w, p + i * sizeof(std::uint64_t), sizeof(w));
    acc[i] = (acc[i] + w) & mask;
  }
}

void TransportChannel::begin_round() {
  std::lock_guard<std::mutex> lk(m_);
  in_round_ = true;
  round_counted_ = false;
}

void TransportChannel::end_round() {
  std::lock_guard<std::mutex> lk(m_);
  in_round_ = false;
  round_counted_ = false;
  last_sender_ = -1;
}

void TransportChannel::close() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (closed_) return;
    closed_ = true;
  }
  transport_->close();
}

crypto::TrafficStats TransportChannel::stats_snapshot() const {
  std::lock_guard<std::mutex> lk(m_);
  return *stats_;
}

void TransportChannel::reset_stats() noexcept {
  std::lock_guard<std::mutex> lk(m_);
  stats_->reset();
  last_sender_ = -1;
  round_counted_ = false;
}

}  // namespace pasnet::net
