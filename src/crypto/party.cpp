#include "crypto/party.hpp"

#include "crypto/ot.hpp"
#include "crypto/ring_kernels.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <cerrno>
#include <sys/random.h>
#elif defined(__APPLE__) || defined(__FreeBSD__) || defined(__OpenBSD__) || defined(__NetBSD__)
#include <cstdlib>  // arc4random_buf
#endif

namespace pasnet::crypto {

// ---------------------------------------------------------------------------
// TwoPartyContext
// ---------------------------------------------------------------------------

TwoPartyContext::TwoPartyContext(RingConfig rc, std::uint64_t seed,
                                 std::chrono::microseconds round_delay)
    : rc_(rc), round_delay_(round_delay), dealer_(rc, splitmix64(seed)),
      dealer_source_(dealer_, rc), prng0_(splitmix64(seed ^ 1)), prng1_(splitmix64(seed ^ 2)),
      ot_prng0_(splitmix64(seed ^ 3)), ot_prng1_(splitmix64(seed ^ 4)), round_buffer_(*this) {
  ChannelOptions options;
  options.round_delay = round_delay;
  auto [c0, c1] = Channel::make_pair(options);
  chan0_ = std::move(c0);
  chan1_ = std::move(c1);
}

namespace {

/// Fills `n` bytes from the OS CSPRNG.  Returns false when no OS source is
/// available (then the caller falls back to best-effort mixing).
bool os_random_bytes(void* out, std::size_t n) {
#if defined(__linux__)
  auto* p = static_cast<unsigned char*>(out);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::getrandom(p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;  // e.g. ENOSYS on pre-3.17 kernels
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
#elif defined(__APPLE__) || defined(__FreeBSD__) || defined(__OpenBSD__) || defined(__NetBSD__)
  arc4random_buf(out, n);
  return true;
#else
  (void)out;
  (void)n;
  return false;
#endif
}

/// Seed material for a remote context's role-private stream: 64 bytes of
/// OS CSPRNG output folded through splitmix64.  std::random_device alone is
/// not enough — the standard permits it to be deterministic (historically
/// true on some MinGW toolchains), and a predictable seed here would make
/// every "role-private" OT secret derivable by the peer.  When no OS source
/// exists we still mix random_device with clocks, ASLR-dependent addresses
/// and the thread id, so even a deterministic random_device cannot make two
/// endpoints' streams collide or be precomputable from the binary alone.
std::uint64_t entropy_seed() {
  std::uint64_t words[8] = {};
  std::uint64_t acc = 0x9E3779B97F4A7C15ULL;
  if (!os_random_bytes(words, sizeof(words))) {
    std::random_device rd;
    for (std::uint64_t& w : words) {
      w = (static_cast<std::uint64_t>(rd()) << 32) ^ static_cast<std::uint64_t>(rd());
    }
    acc ^= splitmix64(static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count()));
    acc = splitmix64(acc ^ static_cast<std::uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count()));
    acc = splitmix64(acc ^ static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(&words)));  // stack ASLR
    acc = splitmix64(acc ^ static_cast<std::uint64_t>(
        reinterpret_cast<std::uintptr_t>(&splitmix64)));  // text/code ASLR
    acc = splitmix64(acc ^ static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id())));
  }
  for (const std::uint64_t w : words) acc = splitmix64(acc ^ w);
  return acc;
}

}  // namespace

TwoPartyContext::TwoPartyContext(RingConfig rc, std::uint64_t seed, int local_party,
                                 Channel& channel, RemoteContextOptions options)
    : rc_(rc), local_party_(local_party), remote_chan_(&channel),
      round_delay_(0), dealer_(rc, splitmix64(seed)), dealer_source_(dealer_, rc),
      prng0_(splitmix64(seed ^ 1)), prng1_(splitmix64(seed ^ 2)),
      ot_prng0_(splitmix64(seed ^ 3)), ot_prng1_(splitmix64(seed ^ 4)),
      role_prng_(entropy_seed()), allow_ideal_ot_(options.allow_ideal_ot),
      round_buffer_(*this) {
  if (local_party != 0 && local_party != 1) {
    throw std::invalid_argument("TwoPartyContext: local_party must be 0 or 1");
  }
  if (options.ot_mode == OtMode::correlated && !options.allow_ideal_ot) {
    throw IdealOtError(
        "TwoPartyContext: OtMode::correlated is an ideal-functionality simulation "
        "(choices cross the wire in the clear) and is refused between two real "
        "processes; use OtMode::dh_masked, or set allow_ideal_ot in tests");
  }
  // Only the borrowed local endpoint is addressable; chan() on the peer
  // slot throws.  Both parties' transcript-shaping PRNGs and the dealer
  // are still constructed from the shared seed so the two processes'
  // shared streams coincide; role-secret draws come from role_prng_,
  // which only this process holds.
}

void TwoPartyContext::exchange(const std::function<void()>& send0,
                               const std::function<void()>& send1,
                               const std::function<void()>& recv0,
                               const std::function<void()>& recv1) {
  // Both directions are concurrently in flight: the whole exchange is one
  // latency-critical round (matching perf::OpCost::rounds), however many
  // messages it carries.
  const obs::SpanGuard span(tracer_, "crypto", "round");
  local_chan().begin_round();
  try {
    if (local_party_ >= 0) {
      // Remote: run the local party's half; the peer's half executes in the
      // other process, its messages arriving over the transport.
      if (local_party_ == 0) {
        send0();
        recv0();
      } else {
        send1();
        recv1();
      }
    } else {
      send0();
      send1();
      recv0();
      recv1();
    }
  } catch (...) {
    local_chan().end_round();
    throw;
  }
  local_chan().end_round();
}

// ---------------------------------------------------------------------------
// Round buffer
// ---------------------------------------------------------------------------

namespace {

std::vector<std::uint8_t> pack_bits(const std::vector<std::uint8_t>& bits) {
  std::vector<std::uint8_t> bytes((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bytes[i / 8] |= static_cast<std::uint8_t>((bits[i] & 1) << (i % 8));
  }
  return bytes;
}

}  // namespace

RoundPhase RoundBuffer::flush() {
  if (!ots_.empty()) {
    flush_ots();
    return RoundPhase::ot;
  }
  if (!bits_.empty()) {
    flush_bits();
    return RoundPhase::bits;
  }
  if (!opens_.empty()) {
    flush_opens();
    return RoundPhase::opens;
  }
  return RoundPhase::done;
}

void RoundBuffer::flush_ots() {
  // Merge runs of stages that share (sender, mode) into one OT batch each.
  // The blinded keys and masked tables of every merged request ride in the
  // same two messages, so the run pays the leaf round once.
  std::size_t lo = 0;
  while (lo < ots_.size()) {
    std::size_t hi = lo + 1;
    while (hi < ots_.size() && ots_[hi].sender == ots_[lo].sender &&
           ots_[hi].mode == ots_[lo].mode) {
      ++hi;
    }
    std::vector<std::array<std::uint8_t, kOtFanIn>> tables;
    std::vector<std::uint8_t> choices;
    for (std::size_t i = lo; i < hi; ++i) {
      tables.insert(tables.end(), ots_[i].tables.begin(), ots_[i].tables.end());
      choices.insert(choices.end(), ots_[i].choices.begin(), ots_[i].choices.end());
    }
    const std::vector<std::uint8_t> merged =
        ot_1of4(ctx_, ots_[lo].sender, tables, choices, ots_[lo].mode);
    std::size_t off = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      ots_[i].out->assign(merged.begin() + static_cast<long>(off),
                          merged.begin() + static_cast<long>(off + ots_[i].choices.size()));
      off += ots_[i].choices.size();
    }
    lo = hi;
  }
  ots_.clear();
}

void RoundBuffer::flush_bits() {
  // One symmetric exchange for every pending stage; each stage's bits pack
  // into their own byte-aligned chunk so merging never changes the
  // transcript size, only the exchange count.
  //
  // Each flush is one merged AND-tree level opening — the protocol event
  // the and_levels counter tracks.
  if (obs::Tracer* const t = ctx_.tracer()) t->add(obs::Counter::and_levels, 1);
  std::vector<std::uint8_t> msg0, msg1;
  for (const PendingBits& p : bits_) {
    const auto p0 = pack_bits(p.x.b0);
    const auto p1 = pack_bits(p.x.b1);
    msg0.insert(msg0.end(), p0.begin(), p0.end());
    msg1.insert(msg1.end(), p1.begin(), p1.end());
  }
  const std::size_t msg_size = msg0.size();
  std::vector<std::uint8_t> from0, from1;
  ctx_.exchange([&] { ctx_.chan(0).send_bytes(std::move(msg0)); },
                [&] { ctx_.chan(1).send_bytes(std::move(msg1)); },
                [&] { from1 = ctx_.chan(0).recv_bytes(); },
                [&] { from0 = ctx_.chan(1).recv_bytes(); });
  // Reconstruct from the local share and the peer's received packed bits.
  // In an in-process context both closures ran, so either pairing works and
  // we keep the historical (b0, from1) one; a remote context only has its
  // own half live.
  const bool local_is_1 = ctx_.local_party() == 1;
  const std::vector<std::uint8_t>& peer_msg = local_is_1 ? from0 : from1;
  if (peer_msg.size() != msg_size) {
    throw std::logic_error("RoundBuffer::flush: bit-opening transcript size mismatch");
  }
  std::size_t byte_off = 0;
  for (const PendingBits& p : bits_) {
    const std::size_t n = p.x.size();
    const std::vector<std::uint8_t>& own = local_is_1 ? p.x.b1 : p.x.b0;
    std::vector<std::uint8_t>& out = *p.out;
    out.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      out[j] = own[j] ^ ((peer_msg[byte_off + j / 8] >> (j % 8)) & 1);
    }
    byte_off += (n + 7) / 8;
  }
  bits_.clear();
}

std::size_t RoundBuffer::claim_slab(std::size_t n) {
  const std::size_t off = slab_used_;
  slab_used_ += n;
  if (slab_.s0.size() < slab_used_ || slab_.s1.size() < slab_used_) {
    slab_.s0.resize(slab_used_);
    slab_.s1.resize(slab_used_);
  }
  return off;
}

void RoundBuffer::stage_open(const Shared& x, const Shared& mask, RingVec* out) {
  const std::size_t n = x.size();
  if (x.s1.size() != n || mask.s0.size() != n || mask.s1.size() != n) {
    throw std::invalid_argument("RoundBuffer::stage_open: mask size mismatch");
  }
  const std::uint64_t m = ctx_.ring().mask();
  const std::size_t off = claim_slab(n);
  kern::sub(slab_.s0.data() + off, x.s0.data(), mask.s0.data(), n, m);
  kern::sub(slab_.s1.data() + off, x.s1.data(), mask.s1.data(), n, m);
  opens_.push_back(PendingOpen{n, out});
}

void RoundBuffer::stage_open(const Shared& x, RingVec* out) {
  const std::size_t n = x.size();
  if (x.s1.size() != n) throw std::invalid_argument("RoundBuffer::stage_open: share size mismatch");
  const std::size_t off = claim_slab(n);
  std::copy(x.s0.begin(), x.s0.end(), slab_.s0.begin() + static_cast<long>(off));
  std::copy(x.s1.begin(), x.s1.end(), slab_.s1.begin() + static_cast<long>(off));
  opens_.push_back(PendingOpen{n, out});
}

void RoundBuffer::flush_opens() {
  if (obs::Tracer* const t = ctx_.tracer()) {
    t->add(obs::Counter::openings, opens_.size());
    t->add(obs::Counter::open_flushes, 1);
  }
  // One exchange opens every staged vector: the bytes on the wire are
  // identical to separate opens, the rounds are not.  Words a larger
  // earlier flush left past this round's end are cut first (shrinking
  // keeps the capacity).
  const std::size_t total = slab_used_;
  slab_used_ = 0;
  slab_.s0.resize(total);
  slab_.s1.resize(total);
  const int wb = ctx_.wire_bytes();
  const std::uint64_t mask = ctx_.ring().mask();
  const RingVec* opened = nullptr;
  if (ctx_.local_party() < 0) {
    // In process each share vector moves to the peer as it is; party 0's
    // received buffer takes the sum, and both received buffers are the
    // next slab.
    RingVec from0, from1;
    ctx_.exchange([&] { ctx_.chan(0).send_ring(std::move(slab_.s0), wb); },
                  [&] { ctx_.chan(1).send_ring(std::move(slab_.s1), wb); },
                  [&] { from1 = ctx_.chan(0).recv_ring(total, wb); },
                  [&] { from0 = ctx_.chan(1).recv_ring(total, wb); });
    kern::add(from1.data(), from1.data(), from0.data(), total, mask);
    slab_.s0 = std::move(from0);
    slab_.s1 = std::move(from1);
    opened = &slab_.s1;
  } else {
    // Remote: the local share goes out from the slab and the peer's is
    // added into it, the same public value the other process computes.
    RingVec& own = ctx_.local_party() == 0 ? slab_.s0 : slab_.s1;
    ctx_.exchange([&] { ctx_.chan(0).send_ring(own, wb); },
                  [&] { ctx_.chan(1).send_ring(own, wb); },
                  [&] { ctx_.chan(0).recv_ring_add(own, mask); },
                  [&] { ctx_.chan(1).recv_ring_add(own, mask); });
    opened = &own;
  }
  std::size_t off = 0;
  for (const PendingOpen& p : opens_) {
    p.out->assign(opened->begin() + static_cast<long>(off),
                  opened->begin() + static_cast<long>(off + p.n));
    off += p.n;
  }
  opens_.clear();
}

// ---------------------------------------------------------------------------
// Online protocols
// ---------------------------------------------------------------------------

RingVec open(TwoPartyContext& ctx, const Shared& x) {
  RoundBuffer& buf = ctx.round_buffer();
  if (buf.has_pending()) throw std::logic_error("open: the round buffer has pending stages");
  RingVec out;
  buf.stage_open(x, &out);
  buf.flush();
  return out;
}

void MulRound::stage(TwoPartyContext& ctx, Shared x, Shared y) {
  if (x.size() != y.size()) throw std::invalid_argument("mul_elem: size mismatch");
  ElemTriple t = ctx.triples().elem_triple(x.size());
  stage(ctx, std::move(x), std::move(y), std::move(t));
}

void MulRound::stage(TwoPartyContext& ctx, Shared x, Shared y, ElemTriple t) {
  if (x.size() != y.size()) throw std::invalid_argument("mul_elem: size mismatch");
  if (t.a.size() != x.size()) throw std::invalid_argument("mul_elem: triple size mismatch");
  t_ = std::move(t);
  x_ = std::move(x);
  y_ = std::move(y);
  // E = X - A, F = Y - B; opened jointly.
  ctx.round_buffer().stage_open(x_, t_.a, &e_);
  ctx.round_buffer().stage_open(y_, t_.b, &f_);
}

Shared MulRound::finish(const RingConfig& rc) {
  // R_Si = -i·E⊙F + X_Si⊙F + E⊙Y_Si + Z_Si  (paper Eq. 2), one fused
  // kernel pass per share plus the E⊙F correction on party 1's.
  const std::size_t n = x_.size();
  Shared r;
  r.s0.resize(n);
  r.s1.resize(n);
  kern::beaver_combine(r.s0.data(), x_.s0.data(), f_.data(), e_.data(), y_.s0.data(),
                       t_.z.s0.data(), n, rc.mask());
  kern::beaver_combine(r.s1.data(), x_.s1.data(), f_.data(), e_.data(), y_.s1.data(),
                       t_.z.s1.data(), n, rc.mask());
  kern::mul_sub(r.s1.data(), e_.data(), f_.data(), n, rc.mask());
  return r;
}

void SquareRound::stage(TwoPartyContext& ctx, const Shared& x) {
  p_ = ctx.triples().square_pair(x.size());
  ctx.round_buffer().stage_open(x, p_.a, &e_);
}

Shared SquareRound::finish(const RingConfig& rc) {
  // R = Z + 2·E⊙A + E⊙E  (paper Eq. 3); the public E⊙E term is added by
  // exactly one party so reconstruction counts it once.
  const std::size_t n = e_.size();
  Shared r;
  r.s0.resize(n);
  r.s1.resize(n);
  kern::square_combine(r.s0.data(), p_.z.s0.data(), e_.data(), p_.a.s0.data(),
                       /*add_e2=*/true, n, rc.mask());
  kern::square_combine(r.s1.data(), p_.z.s1.data(), e_.data(), p_.a.s1.data(),
                       /*add_e2=*/false, n, rc.mask());
  return r;
}

void MatmulRound::stage(TwoPartyContext& ctx, Shared x, Shared y, std::size_t m,
                        std::size_t k, std::size_t n) {
  if (x.size() != m * k || y.size() != k * n) {
    throw std::invalid_argument("matmul: shape mismatch");
  }
  t_ = ctx.triples().matmul_triple(m, k, n);
  x_ = std::move(x);
  y_ = std::move(y);
  m_ = m;
  k_ = k;
  n_ = n;
  ctx.round_buffer().stage_open(x_, t_.a, &e_);
  ctx.round_buffer().stage_open(y_, t_.b, &f_);
}

Shared MatmulRound::finish(const RingConfig& rc) {
  // R_S0 = Z_S0 + X_S0·F + E·Y_S0 and R_S1 = Z_S1 + X_S1·F + E·(Y_S1 - F):
  // party 1's -E·F term folds into its E·Y product by linearity.  Seed the
  // accumulator with Z, fuse both GEMMs unreduced into it, and mask once.
  const std::size_t out = m_ * n_;
  Shared r;
  r.s0 = t_.z.s0;
  kern::gemm_acc(r.s0.data(), x_.s0.data(), f_.data(), m_, k_, n_);
  kern::gemm_acc(r.s0.data(), e_.data(), y_.s0.data(), m_, k_, n_);
  kern::reduce(r.s0.data(), r.s0.data(), out, rc.mask());
  r.s1 = t_.z.s1;
  const RingVec y1f = sub_vec(y_.s1, f_, rc);
  kern::gemm_acc(r.s1.data(), x_.s1.data(), f_.data(), m_, k_, n_);
  kern::gemm_acc(r.s1.data(), e_.data(), y1f.data(), m_, k_, n_);
  kern::reduce(r.s1.data(), r.s1.data(), out, rc.mask());
  return r;
}

void BilinearRound::stage(TwoPartyContext& ctx, const Shared& x, const Shared& weight,
                          const BilinearSpec& spec) {
  const RingConfig& rc = ctx.ring();
  map_ = build_bilinear_map(spec, rc);
  t_ = ctx.triples().bilinear_triple(spec);
  // E = W - B opens in weight space (offline-able for a static model) and
  // F = X - A opens in *input* space — the paper's COMM_conv term.
  ctx.round_buffer().stage_open(weight, t_.b, &e_);
  ctx.round_buffer().stage_open(x, t_.a, &f_);
}

Shared BilinearRound::finish(const RingConfig& rc) {
  // R_i = [i==0]·f(F,E) + f(A_i,E) + f(F,B_i) + Z_i.  f is linear in its
  // input, so party 0's f(F,E) + f(A_0,E) is the one product f(F + A_0, E).
  Shared y;
  y.s0 = add_vec(map_(add_vec(f_, t_.a.s0, rc), e_),
                 add_vec(map_(f_, t_.b.s0), t_.z.s0, rc), rc);
  y.s1 = add_vec(map_(t_.a.s1, e_), add_vec(map_(f_, t_.b.s1), t_.z.s1, rc), rc);
  return y;
}

Shared mul_elem(TwoPartyContext& ctx, const Shared& x, const Shared& y) {
  MulRound r;
  r.stage(ctx, x, y);
  ctx.round_buffer().flush();
  return r.finish(ctx.ring());
}

Shared square_elem(TwoPartyContext& ctx, const Shared& x) {
  SquareRound r;
  r.stage(ctx, x);
  ctx.round_buffer().flush();
  return r.finish(ctx.ring());
}

Shared matmul(TwoPartyContext& ctx, const Shared& x, const Shared& y, std::size_t m,
              std::size_t k, std::size_t n) {
  MatmulRound r;
  r.stage(ctx, x, y, m, k, n);
  ctx.round_buffer().flush();
  return r.finish(ctx.ring());
}

Shared mul_fixed(TwoPartyContext& ctx, const Shared& x, const Shared& y) {
  return truncate_shares(mul_elem(ctx, x, y), ctx.ring());
}

}  // namespace pasnet::crypto
