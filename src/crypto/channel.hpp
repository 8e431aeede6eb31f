#pragma once
// Duplex channel endpoints between the two computing parties.
//
// `Channel` is the endpoint API every protocol talks to: framed byte
// messages, ring-vector conveniences, round bracketing, and a TrafficStats
// meter that records every byte, message, and communication round.  The
// meter is what lets integration tests cross-check the measured traffic of
// the real protocol stack against the analytical communication model of
// src/perf, and what makes bytes/rounds measured over a real TCP
// connection directly comparable to the in-process pair's.
//
// Messages come in two kinds: byte messages (send_bytes/recv_bytes) and
// word messages — vectors of ring elements (send_ring/recv_ring).  A
// message must be received as the kind it was sent as; a mismatch is a
// protocol bug and throws std::logic_error.
//
// Two backends:
//  - the in-process pair (Channel::make_pair): two endpoints over a shared
//    pair of message queues, driven by one thread in protocol order.
//    `recv` on an empty inbox is a protocol ordering bug and throws
//    immediately.  Fully deterministic.  Messages travel as the vectors
//    themselves: a moved-in byte or word vector is the very buffer the
//    peer receives, so a ring opening copies no word in transit.
//  - net::TransportChannel (src/net): the same endpoint API over a real
//    socket transport, one endpoint per OS process; its recv blocks on the
//    wire.  Each message is serialised into one frame (words as 8-byte
//    little-endian values).  Each endpoint's meter accounts both
//    directions (own sends at send time, the peer's at recv time), so a
//    remote endpoint's TrafficStats equal the in-process pair's for the
//    same protocol run.

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "crypto/ring.hpp"
#include "obs/tracer.hpp"

namespace pasnet::crypto {

/// Aggregate traffic statistics for one party-pair.
struct TrafficStats {
  std::uint64_t bytes_p0_to_p1 = 0;
  std::uint64_t bytes_p1_to_p0 = 0;
  std::uint64_t messages = 0;
  /// Latency-critical sequential message exchanges.  Outside an exchange
  /// bracket a round increments whenever the sending direction flips (the
  /// asymmetric flows: each OT phase is one round).  Inside a
  /// begin_round/end_round bracket — used by TwoPartyContext::exchange and
  /// so by the round buffer's coalesced flushes — all messages of the bracket count
  /// as ONE round, because both directions are in flight concurrently.
  /// This matches the analytic model's definition (perf::OpCost::rounds),
  /// so measured and modeled round counts are directly comparable.
  std::uint64_t rounds = 0;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return bytes_p0_to_p1 + bytes_p1_to_p0;
  }
  void reset() noexcept { *this = TrafficStats{}; }
};

/// Construction knobs for an in-process channel pair.
struct ChannelOptions {
  /// Simulated one-way wire latency.  Every message is stamped with an
  /// in-flight deadline (enqueue time + round_delay) at send time and recv
  /// waits until that deadline — so messages of one round overlap (a
  /// symmetric exchange costs one delay) while sequential dependencies pay
  /// one delay per round, the same unit the `rounds` statistic counts (and
  /// perf::NetworkConfig's base_latency_s models).  Zero means no simulated
  /// delay.  Waits happen off the channel lock, so concurrent worker pairs
  /// overlap their delays — the effect batched inference exists to exploit.
  std::chrono::microseconds round_delay{0};
};

/// Thrown by operations after close() — the "peer hung up" signal.
class ChannelClosed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One endpoint of a duplex channel.  The convenience send/recv helpers are
/// implemented over the backend primitives do_send/do_recv; backends also
/// own round bracketing, close semantics, and the stats meter.
class Channel {
 public:
  virtual ~Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Sends a raw byte message to the peer; pass an rvalue to hand the
  /// buffer over without a copy.  A transport endpoint may block on socket
  /// back-pressure; the in-process pair never blocks.
  void send_bytes(std::vector<std::uint8_t> data);
  /// Receives the oldest pending message, which must be a byte message.
  /// The in-process pair throws std::logic_error if the inbox is empty
  /// (protocol ordering bug) and otherwise honours the message's modeled
  /// in-flight deadline (see ChannelOptions::round_delay); a transport
  /// endpoint waits for the message on the wire.
  [[nodiscard]] std::vector<std::uint8_t> recv_bytes();

  /// Word messages: a vector of ring elements, 8 bytes each in memory.
  /// `wire_bytes_per_elem` models the on-wire width (e.g. 4 for a 32-bit
  /// ring) for traffic accounting while keeping u64 storage.  The rvalue
  /// overload hands the vector itself to the in-process peer, and
  /// recv_ring there returns that same buffer; a transport endpoint
  /// serialises from the caller's vector either way.
  void send_ring(const RingVec& v, int wire_bytes_per_elem = 8);
  void send_ring(RingVec&& v, int wire_bytes_per_elem = 8);
  /// Receives a word message of exactly n elements (std::logic_error on
  /// any other size).
  [[nodiscard]] RingVec recv_ring(std::size_t n, int wire_bytes_per_elem = 8);
  /// Receives a word message of exactly acc.size() elements and adds it
  /// into acc, reducing with `mask` (RingConfig::mask()).  A transport
  /// endpoint adds straight from the received frame.
  void recv_ring_add(RingVec& acc, std::uint64_t mask);

  /// Convenience: single u64 value.
  void send_u64(std::uint64_t v);
  [[nodiscard]] std::uint64_t recv_u64();

  /// Brackets one symmetric communication round: every message either
  /// endpoint enqueues between begin_round and end_round counts as a single
  /// round (both directions are concurrently in flight).  Driven by the
  /// context (TwoPartyContext::exchange).  After end_round the next message
  /// starts a fresh round regardless of direction.
  virtual void begin_round() = 0;
  virtual void end_round() = 0;

  /// Marks the endpoint closed: later sends, and receives with nothing
  /// left to deliver, throw ChannelClosed.  A transport endpoint also
  /// wakes a receiver blocked on the wire.
  virtual void close() = 0;

  /// Traffic stats of the endpoint (shared by both endpoints of an
  /// in-process pair).  The reference is stable; read it only while no
  /// transfer is in flight (use stats_snapshot() for a consistent copy
  /// during concurrent traffic).
  [[nodiscard]] const TrafficStats& stats() const noexcept { return *stats_; }
  /// Locked copy of the stats, safe to take concurrently with transfers.
  [[nodiscard]] virtual TrafficStats stats_snapshot() const = 0;
  virtual void reset_stats() noexcept = 0;

  /// Attaches a tracer (nullptr detaches).  The endpoint mirrors every
  /// meter update into the tracer's counters — rounds, per-direction wire
  /// bytes, messages — and accumulates blocked send/recv time, which is
  /// what makes the trace an independent witness of TrafficStats.  For an
  /// in-process pair the tracer is shared pair-wide (attaching through
  /// either endpoint covers both), matching the shared meter.  The caller
  /// keeps ownership; the tracer must outlive the attachment.
  virtual void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Creates a connected in-process pair of endpoints: first element is
  /// party 0's.
  static std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> make_pair(
      const ChannelOptions& options = {});

 protected:
  Channel() = default;

  /// Backend primitive: delivers one byte message to the peer, crediting
  /// `wire_bytes` (the modeled on-wire size, which may differ from
  /// data.size()) to the meter.
  virtual void do_send(std::vector<std::uint8_t>&& data, std::uint64_t wire_bytes) = 0;
  /// Backend primitive: receives the next message, which must be a byte
  /// message.
  [[nodiscard]] virtual std::vector<std::uint8_t> do_recv() = 0;
  /// Backend primitive: delivers one word message, taking the vector.
  virtual void do_send_words(RingVec&& words, std::uint64_t wire_bytes) = 0;
  /// Delivers a copy of `words`; a backend that serialises anyway
  /// overrides this to skip the intermediate vector.
  virtual void do_send_word_copy(const RingVec& words, std::uint64_t wire_bytes) {
    do_send_words(RingVec(words), wire_bytes);
  }
  /// Backend primitive: receives the next message, which must be a word
  /// message.
  [[nodiscard]] virtual RingVec do_recv_words() = 0;
  /// Receives an acc.size()-word message into acc (+= mod mask); a
  /// backend holding the words in a frame overrides this to add in place.
  virtual void do_recv_words_add(RingVec& acc, std::uint64_t mask);

  /// The endpoint's meter; backends allocate it (pair-shared in process,
  /// per-endpoint over a transport).
  std::shared_ptr<TrafficStats> stats_;
  /// Attached tracer, or nullptr.  Backends test it at their accounting
  /// sites; when attached and enabled they mirror the meter update.
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace pasnet::crypto
