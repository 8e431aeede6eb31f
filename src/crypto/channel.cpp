#include "crypto/channel.hpp"

#include "crypto/ring_kernels.hpp"

#include <deque>
#include <mutex>
#include <thread>

namespace pasnet::crypto {

// ---------------------------------------------------------------------------
// Endpoint-API conveniences (shared by every backend)
// ---------------------------------------------------------------------------

void Channel::send_bytes(std::vector<std::uint8_t> data) {
  const std::uint64_t wire_bytes = data.size();
  do_send(std::move(data), wire_bytes);
}

std::vector<std::uint8_t> Channel::recv_bytes() { return do_recv(); }

// Each ring message is accounted at the modeled wire width rather than the
// in-memory width.
void Channel::send_ring(const RingVec& v, int wire_bytes_per_elem) {
  do_send_word_copy(v, v.size() * static_cast<std::uint64_t>(wire_bytes_per_elem));
}

void Channel::send_ring(RingVec&& v, int wire_bytes_per_elem) {
  const std::uint64_t wire_bytes = v.size() * static_cast<std::uint64_t>(wire_bytes_per_elem);
  do_send_words(std::move(v), wire_bytes);
}

RingVec Channel::recv_ring(std::size_t n, int /*wire_bytes_per_elem*/) {
  RingVec v = do_recv_words();
  if (v.size() != n) throw std::logic_error("Channel::recv_ring: message size mismatch");
  return v;
}

void Channel::recv_ring_add(RingVec& acc, std::uint64_t mask) { do_recv_words_add(acc, mask); }

void Channel::do_recv_words_add(RingVec& acc, std::uint64_t mask) {
  const RingVec v = recv_ring(acc.size());
  kern::add(acc.data(), acc.data(), v.data(), acc.size(), mask);
}

void Channel::send_u64(std::uint64_t v) { send_ring(RingVec{v}); }

std::uint64_t Channel::recv_u64() { return recv_ring(1)[0]; }

// ---------------------------------------------------------------------------
// In-process pair backend
// ---------------------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/// One in-flight message: a byte or a word vector, moved in by the sender
/// and moved out by the receiver.
struct Message {
  std::vector<std::uint8_t> bytes;
  RingVec words;
  bool is_words = false;
  Clock::time_point due;  // in-flight deadline: enqueue time + round_delay
};

/// The in-process pair: two endpoints over a shared pair of message queues
/// plus one shared meter.
class LocalChannel final : public Channel {
 public:
  struct Shared {
    std::mutex m;
    // Per-direction queues; inbox[p] holds messages addressed to party p.
    std::deque<Message> inbox[2];
    std::chrono::microseconds round_delay{0};
    bool closed = false;
    int last_sender = -1;   // for round counting outside brackets
    bool in_round = false;  // begin_round/end_round bracket open
    bool round_counted = false;
    /// Pair-wide tracer (like the meter): attaching through either
    /// endpoint covers both, and the round rule fires exactly once.
    obs::Tracer* tracer = nullptr;
  };

  LocalChannel(int party, std::shared_ptr<Shared> shared, std::shared_ptr<TrafficStats> stats)
      : party_(party), shared_(std::move(shared)) {
    stats_ = std::move(stats);
  }

  void begin_round() override {
    std::lock_guard<std::mutex> lk(shared_->m);
    shared_->in_round = true;
    shared_->round_counted = false;
  }

  void end_round() override {
    std::lock_guard<std::mutex> lk(shared_->m);
    shared_->in_round = false;
    shared_->round_counted = false;
    // The next message starts a fresh round whatever its direction.
    shared_->last_sender = -1;
  }

  void close() override {
    std::lock_guard<std::mutex> lk(shared_->m);
    shared_->closed = true;
  }

  [[nodiscard]] TrafficStats stats_snapshot() const override {
    std::lock_guard<std::mutex> lk(shared_->m);
    return *stats_;
  }

  void reset_stats() noexcept override {
    std::lock_guard<std::mutex> lk(shared_->m);
    stats_->reset();
    shared_->last_sender = -1;
    shared_->round_counted = false;
  }

  void set_tracer(obs::Tracer* tracer) noexcept override {
    std::lock_guard<std::mutex> lk(shared_->m);
    tracer_ = tracer;
    shared_->tracer = tracer;
  }

 protected:
  void do_send(std::vector<std::uint8_t>&& data, std::uint64_t wire_bytes) override {
    Message msg;
    msg.bytes = std::move(data);
    enqueue(std::move(msg), wire_bytes);
  }

  void do_send_words(RingVec&& words, std::uint64_t wire_bytes) override {
    Message msg;
    msg.words = std::move(words);
    msg.is_words = true;
    enqueue(std::move(msg), wire_bytes);
  }

  [[nodiscard]] std::vector<std::uint8_t> do_recv() override {
    return dequeue(/*words=*/false).bytes;
  }

  [[nodiscard]] RingVec do_recv_words() override { return dequeue(/*words=*/true).words; }

 private:
  void enqueue(Message&& msg, std::uint64_t wire_bytes) {
    const int peer = 1 - party_;
    const std::lock_guard<std::mutex> lk(shared_->m);
    obs::Tracer* const tr =
        (shared_->tracer && shared_->tracer->enabled()) ? shared_->tracer : nullptr;
    if (shared_->closed) throw ChannelClosed("Channel::send: channel closed");
    // Stamp the in-flight deadline: the message becomes receivable one
    // modeled one-way delay after it is sent.  The sender never sleeps, so
    // all messages of one round share (roughly) one deadline and overlap.
    msg.due = shared_->round_delay.count() > 0 ? Clock::now() + shared_->round_delay
                                               : Clock::time_point{};
    shared_->inbox[peer].push_back(std::move(msg));
    // Every meter update is mirrored into the tracer at the same site, so
    // the trace counters are an independent witness of TrafficStats.
    if (party_ == 0) {
      stats_->bytes_p0_to_p1 += wire_bytes;
      if (tr) tr->add(obs::Counter::bytes_p0_to_p1, wire_bytes);
    } else {
      stats_->bytes_p1_to_p0 += wire_bytes;
      if (tr) tr->add(obs::Counter::bytes_p1_to_p0, wire_bytes);
    }
    ++stats_->messages;
    if (tr) tr->add(obs::Counter::messages, 1);
    if (shared_->in_round) {
      // All messages of a bracketed symmetric exchange are one round.
      if (!shared_->round_counted) {
        ++stats_->rounds;
        if (tr) tr->add(obs::Counter::rounds, 1);
        shared_->round_counted = true;
      }
      shared_->last_sender = party_;
    } else if (shared_->last_sender != party_) {
      ++stats_->rounds;
      if (tr) tr->add(obs::Counter::rounds, 1);
      shared_->last_sender = party_;
    }
  }

  /// Pops the oldest message, which must be of the requested kind (a
  /// mismatch leaves it queued and throws).
  Message dequeue(bool words) {
    std::unique_lock<std::mutex> lk(shared_->m);
    obs::Tracer* const tr =
        (shared_->tracer && shared_->tracer->enabled()) ? shared_->tracer : nullptr;
    auto& inbox = shared_->inbox[party_];
    if (inbox.empty()) {
      if (shared_->closed) throw ChannelClosed("Channel::recv: channel closed");
      throw std::logic_error("Channel::recv: no pending message (protocol ordering bug)");
    }
    if (inbox.front().is_words != words) {
      throw std::logic_error(words ? "Channel::recv_ring: pending message is a byte message"
                                   : "Channel::recv_bytes: pending message is a word message");
    }
    Message msg = std::move(inbox.front());
    inbox.pop_front();
    lk.unlock();
    // Honour the in-flight deadline off the lock: the receiver cannot
    // observe a message before its modeled wire delay has elapsed.  The
    // modeled wait is wire time, so it counts as recv wait.
    if (msg.due != Clock::time_point{}) {
      const auto now = Clock::now();
      if (now < msg.due) {
        std::this_thread::sleep_until(msg.due);
        if (tr) {
          tr->add(obs::Counter::recv_wait_us,
                  static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::microseconds>(msg.due - now)
                          .count()));
        }
      }
    }
    return msg;
  }

  int party_ = 0;
  std::shared_ptr<Shared> shared_;
};

}  // namespace

std::pair<std::unique_ptr<Channel>, std::unique_ptr<Channel>> Channel::make_pair(
    const ChannelOptions& options) {
  auto shared = std::make_shared<LocalChannel::Shared>();
  shared->round_delay = options.round_delay;
  auto stats = std::make_shared<TrafficStats>();
  auto c0 = std::unique_ptr<Channel>(new LocalChannel(0, shared, stats));
  auto c1 = std::unique_ptr<Channel>(new LocalChannel(1, shared, stats));
  return {std::move(c0), std::move(c1)};
}

}  // namespace pasnet::crypto
