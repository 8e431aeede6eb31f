#include "crypto/ot.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "crypto/ot_ext.hpp"  // otx::OtExtError, the peer-frame error type

namespace pasnet::crypto {

namespace dh {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b) noexcept {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  // Fast reduction mod 2^61 - 1.
  std::uint64_t lo = static_cast<std::uint64_t>(p & kPrime);
  std::uint64_t hi = static_cast<std::uint64_t>(p >> 61);
  std::uint64_t r = lo + hi;
  if (r >= kPrime) r -= kPrime;
  return r;
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp) noexcept {
  std::uint64_t result = 1;
  std::uint64_t b = base % kPrime;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, b);
    b = mulmod(b, b);
    exp >>= 1;
  }
  return result;
}

std::uint64_t invmod(std::uint64_t a) noexcept {
  // Fermat: a^(p-2) mod p.
  return powmod(a, kPrime - 2);
}

FixedBaseTable::FixedBaseTable(std::uint64_t base) noexcept {
  std::uint64_t b = base % kPrime;  // base^(256^j) for the current row j
  for (auto& row : t_) {
    row[0] = 1;
    for (std::size_t k = 1; k < row.size(); ++k) row[k] = mulmod(row[k - 1], b);
    b = mulmod(row.back(), b);
  }
}

std::uint64_t FixedBaseTable::pow(std::uint64_t exp) const noexcept {
  std::uint64_t r = t_[0][exp & 0xFF];
  for (std::size_t j = 1; j < t_.size(); ++j) r = mulmod(r, t_[j][(exp >> (8 * j)) & 0xFF]);
  return r;
}

const FixedBaseTable& generator_table() {
  static const FixedBaseTable table(kGenerator);
  return table;
}

void powmod_batch(const std::uint64_t* bases, std::size_t n, std::uint64_t exp,
                  std::uint64_t* out) noexcept {
  // Eight independent chains hide the multiply-and-reduce latency; a short
  // final block is padded with base 1.
  constexpr std::size_t kLanes = 8;
  int top = 63;
  while (top >= 0 && ((exp >> top) & 1) == 0) --top;
  for (std::size_t lo = 0; lo < n; lo += kLanes) {
    const std::size_t m = std::min(kLanes, n - lo);
    std::uint64_t b[kLanes] = {};
    std::uint64_t acc[kLanes] = {};
    for (std::size_t l = 0; l < kLanes; ++l) {
      b[l] = l < m ? bases[lo + l] % kPrime : 1;
      acc[l] = 1;
    }
    for (int bit = top; bit >= 0; --bit) {
      for (std::size_t l = 0; l < kLanes; ++l) acc[l] = mulmod(acc[l], acc[l]);
      if (((exp >> bit) & 1) != 0) {
        for (std::size_t l = 0; l < kLanes; ++l) acc[l] = mulmod(acc[l], b[l]);
      }
    }
    for (std::size_t l = 0; l < m; ++l) out[lo + l] = acc[l];
  }
}

namespace {

std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, 8);
  return v;
}

/// A peer-supplied group element must be canonical and nonzero: B_t = 0
/// would make every pad H(0, ·) and publish the sender's whole table.
std::uint64_t load_element(const std::uint8_t* p, const char* what) {
  const std::uint64_t v = load_u64(p);
  if (v == 0 || v >= kPrime) throw otx::OtExtError(what);
  return v;
}

std::uint8_t pad_byte(std::uint64_t shared_key, std::size_t slot) noexcept {
  return static_cast<std::uint8_t>(splitmix64(shared_key ^ slot) & 0xFF);
}

}  // namespace

std::vector<std::uint8_t> blind_choices(Prng& role_prng, const std::vector<std::uint8_t>& choices,
                                        std::vector<std::uint64_t>* secrets) {
  // C^{c} for c in [0, 4).
  std::array<std::uint64_t, kOtFanIn> c_pow{1, kPublicC};
  for (int c = 2; c < kOtFanIn; ++c) c_pow[c] = mulmod(c_pow[c - 1], kPublicC);
  const FixedBaseTable& g = generator_table();
  const std::size_t n = choices.size();
  secrets->resize(n);
  std::vector<std::uint8_t> frame(n * 8);
  for (std::size_t t = 0; t < n; ++t) {
    (*secrets)[t] = 1 + role_prng.next_below(kPrime - 1);
    const std::uint64_t b = mulmod(g.pow((*secrets)[t]), c_pow[choices[t]]);
    std::memcpy(frame.data() + t * 8, &b, 8);
  }
  return frame;
}

std::vector<std::uint8_t> mask_tables(
    Prng& role_prng, const std::vector<std::uint8_t>& blinded,
    const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables) {
  const std::size_t n = tables.size();
  if (blinded.size() != n * 8) throw otx::OtExtError("ot_1of4: blinded-key frame has wrong size");
  std::vector<std::uint64_t> key(n);
  for (std::size_t t = 0; t < n; ++t) {
    key[t] = load_element(blinded.data() + t * 8,
                          "ot_1of4: blinded-key frame carries an invalid group element");
  }
  // One ephemeral r per batch keeps cost linear.  The pad of entry i is
  // H((B_t·C^{-i})^r, 4t + i), evaluated as B_t^r·D^i with D = C^{-r}.
  const std::uint64_t r = 1 + role_prng.next_below(kPrime - 1);
  const std::uint64_t a_val = generator_table().pow(r);
  std::array<std::uint64_t, kOtFanIn> d_pow{1, powmod(invmod(kPublicC), r)};
  for (int i = 2; i < kOtFanIn; ++i) d_pow[i] = mulmod(d_pow[i - 1], d_pow[1]);
  powmod_batch(key.data(), n, r, key.data());

  std::vector<std::uint8_t> payload(8 + n * kOtFanIn);
  std::memcpy(payload.data(), &a_val, 8);
  for (std::size_t t = 0; t < n; ++t) {
    for (int i = 0; i < kOtFanIn; ++i) {
      const std::size_t slot = t * kOtFanIn + i;
      payload[8 + slot] = tables[t][i] ^ pad_byte(mulmod(key[t], d_pow[i]), slot);
    }
  }
  return payload;
}

std::vector<std::uint8_t> unmask_choices(const std::vector<std::uint8_t>& reply,
                                         const std::vector<std::uint64_t>& secrets,
                                         const std::vector<std::uint8_t>& choices) {
  const std::size_t n = choices.size();
  if (reply.size() != 8 + n * kOtFanIn) {
    throw otx::OtExtError("ot_1of4: masked-table frame has wrong size");
  }
  const FixedBaseTable a_tab(
      load_element(reply.data(), "ot_1of4: masked-table frame carries an invalid group element"));
  std::vector<std::uint8_t> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t slot = t * kOtFanIn + choices[t];
    out[t] = reply[8 + slot] ^ pad_byte(a_tab.pow(secrets[t]), slot);
  }
  return out;
}

}  // namespace dh

namespace {

// The OT dance is inherently sequential (the sender's message depends on
// the receiver's blinding), so both phases run on the caller's thread in
// protocol order: each recv finds its message already enqueued.
//
// In a remote (two-process) context only the local role's sends/recvs and
// compute run — the gates below.  Role SECRETS (the receiver's blinding
// exponents x_t, the sender's ephemeral r) are drawn from the context's
// role_prng(), which is a private entropy-seeded stream in a remote
// process: each process draws only its own role's secrets and the peer
// never learns (or can re-derive) them.  In the in-process context
// role_prng() aliases the shared ot_prng() streams, so those transcripts
// are unchanged.  The non-local role's output slots hold garbage a remote
// process never reads.
std::vector<std::uint8_t> ot_dh(TwoPartyContext& ctx, int sender,
                                const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables,
                                const std::vector<std::uint8_t>& choices) {
  const int receiver = 1 - sender;
  std::vector<std::uint64_t> secret_x;
  if (ctx.runs(receiver)) {
    ctx.chan(receiver).send_bytes(dh::blind_choices(ctx.role_prng(receiver), choices, &secret_x));
  }
  if (ctx.runs(sender)) {
    ctx.chan(sender).send_bytes(
        dh::mask_tables(ctx.role_prng(sender), ctx.chan(sender).recv_bytes(), tables));
  }
  if (!ctx.runs(receiver)) return std::vector<std::uint8_t>(tables.size());
  return dh::unmask_choices(ctx.chan(receiver).recv_bytes(), secret_x, choices);
}

std::vector<std::uint8_t> ot_ideal(TwoPartyContext& ctx, int sender,
                                   const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables,
                                   const std::vector<std::uint8_t>& choices) {
  if (!ctx.ideal_ot_allowed()) {
    // Backstop for callers that bypassed the context-construction refusal
    // (e.g. a remote context declared dh_masked but handed correlated-mode
    // requests): the simulation must never run between real endpoints.
    throw IdealOtError("ot_1of4: OtMode::correlated refused in a remote context "
                       "(construct with allow_ideal_ot to override in tests)");
  }
  const int receiver = 1 - sender;
  const std::size_t n = tables.size();
  // Ideal functionality with the DH mode's exact transcript shape and
  // sizes, so traffic accounting is identical.  The receiver's message
  // carries its choices in the clear (one byte of each 8-byte slot) and
  // the sender places each chosen entry unmasked at its table slot: no
  // obliviousness — that is the point of the fast path — but the dance
  // works across two processes, where the receiver's process does not
  // know the sender's tables.
  std::vector<std::uint8_t> out(n);
  if (ctx.runs(receiver)) {
    std::vector<std::uint8_t> msg(n * 8, 0);
    for (std::size_t t = 0; t < n; ++t) msg[t * 8] = choices[t];
    ctx.chan(receiver).send_bytes(std::move(msg));
  }
  if (ctx.runs(sender)) {
    const std::vector<std::uint8_t> msg = ctx.chan(sender).recv_bytes();
    if (msg.size() != n * 8) throw otx::OtExtError("ot_1of4: batch size mismatch");
    std::vector<std::uint8_t> reply(8 + n * kOtFanIn, 0);
    for (std::size_t t = 0; t < n; ++t) {
      const std::uint8_t c = msg[t * 8];
      if (c >= kOtFanIn) throw otx::OtExtError("ot_1of4: choice out of range on the wire");
      reply[8 + t * kOtFanIn + c] = tables[t][c];
    }
    ctx.chan(sender).send_bytes(std::move(reply));
  }
  if (ctx.runs(receiver)) {
    const std::vector<std::uint8_t> reply = ctx.chan(receiver).recv_bytes();
    if (reply.size() != 8 + n * kOtFanIn) {
      throw otx::OtExtError("ot_1of4: reply size mismatch");
    }
    for (std::size_t t = 0; t < n; ++t) out[t] = reply[8 + t * kOtFanIn + choices[t]];
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> ot_1of4(TwoPartyContext& ctx, int sender,
                                  const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables,
                                  const std::vector<std::uint8_t>& choices, OtMode mode) {
  if (tables.size() != choices.size()) {
    throw std::invalid_argument("ot_1of4: tables/choices size mismatch");
  }
  for (const auto c : choices) {
    if (c >= kOtFanIn) throw std::invalid_argument("ot_1of4: choice out of range");
  }
  if (tables.empty()) return {};
  if (obs::Tracer* const t = ctx.tracer()) {
    // One batch = one two-message OT dance; every staged instance inside
    // it is one ot_message (merged flushes credit the whole run here).
    t->add(obs::Counter::ot_batches, 1);
    t->add(obs::Counter::ot_messages, tables.size());
  }
  return mode == OtMode::dh_masked ? ot_dh(ctx, sender, tables, choices)
                                   : ot_ideal(ctx, sender, tables, choices);
}

}  // namespace pasnet::crypto
