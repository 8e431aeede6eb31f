#include "crypto/channel.hpp"

#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

namespace pasnet::crypto {

// ---------------------------------------------------------------------------
// Endpoint-API conveniences (shared by every backend)
// ---------------------------------------------------------------------------

void Channel::send_bytes(const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> copy = data;
  do_send(std::move(copy), data.size());
}

std::vector<std::uint8_t> Channel::recv_bytes() { return do_recv(); }

void Channel::send_ring(const RingVec& v, int wire_bytes_per_elem) {
  std::vector<std::uint8_t> buf(v.size() * sizeof(std::uint64_t));
  if (!v.empty()) std::memcpy(buf.data(), v.data(), buf.size());
  // Account for the modeled wire width rather than the in-memory width.
  do_send(std::move(buf), v.size() * static_cast<std::uint64_t>(wire_bytes_per_elem));
}

RingVec Channel::recv_ring(std::size_t n, int /*wire_bytes_per_elem*/) {
  auto buf = do_recv();
  if (buf.size() != n * sizeof(std::uint64_t)) {
    throw std::logic_error("Channel::recv_ring: message size mismatch");
  }
  RingVec v(n);
  if (n > 0) std::memcpy(v.data(), buf.data(), buf.size());
  return v;
}

void Channel::send_u64(std::uint64_t v) { send_ring(RingVec{v}); }

std::uint64_t Channel::recv_u64() { return recv_ring(1)[0]; }

// ---------------------------------------------------------------------------
// In-process pair backend
// ---------------------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

struct Message {
  std::vector<std::uint8_t> data;
  Clock::time_point due;  // in-flight deadline: enqueue time + round_delay
};

/// The in-process pair: two endpoints over a shared pair of byte queues
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
    const int peer = 1 - party_;
    const std::lock_guard<std::mutex> lk(shared_->m);
    obs::Tracer* const tr =
        (shared_->tracer && shared_->tracer->enabled()) ? shared_->tracer : nullptr;
    if (shared_->closed) throw ChannelClosed("Channel::send: channel closed");
    // Stamp the in-flight deadline: the message becomes receivable one
    // modeled one-way delay after it is sent.  The sender never sleeps, so
    // all messages of one round share (roughly) one deadline and overlap.
    Message msg;
    msg.data = std::move(data);
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

  [[nodiscard]] std::vector<std::uint8_t> do_recv() override {
    std::unique_lock<std::mutex> lk(shared_->m);
    obs::Tracer* const tr =
        (shared_->tracer && shared_->tracer->enabled()) ? shared_->tracer : nullptr;
    auto& inbox = shared_->inbox[party_];
    if (inbox.empty()) {
      if (shared_->closed) throw ChannelClosed("Channel::recv_bytes: channel closed");
      throw std::logic_error("Channel::recv_bytes: no pending message (protocol ordering bug)");
    }
    auto msg = std::move(inbox.front());
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
    return msg.data;
  }

 private:
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
