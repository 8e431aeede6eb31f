#pragma once
// (1,n)-oblivious transfer (paper §III-C.1, Fig. 4).
//
// The comparison flow splits each 32-bit value into U = 16 parts of 2 bits
// and retrieves one of n = 4 masked table entries per part.  We implement a
// batched semi-honest 1-of-4 OT in two interchangeable modes:
//
//  * `dh_masked`  — a Bellare–Micali-style instantiation over Z_p with the
//    Mersenne prime p = 2^61 - 1, mirroring the paper's g^r mod m masking.
//    Functionally correct; toy-strength parameters.  Cost per instance:
//    the receiver pays two fixed-base table exponentiations (g^{x_t} from
//    a shared table, A^{x_t} from a per-batch table: 7 mulmods each) plus
//    one mulmod; the sender pays one variable-base exponentiation B_t^r
//    (square-and-multiply run over blocks of instances in lockstep) plus
//    one mulmod per table entry, because (B_t·C^{-i})^r = B_t^r·D^i with
//    D = C^{-r} computed once per batch.  Per batch: one table build for
//    A and one exponentiation each for A = g^r and D.
//    Timing: the fixed-base tables are indexed by secret exponent bytes
//    and the sender's square-and-multiply branches on the secret bits of
//    r, so neither side is constant-time (dh::powmod never was either).
//    Like the 61-bit group itself, this is toy-strength until the group
//    is replaced by X25519.
//  * `correlated` — an ideal-functionality fast path that produces the same
//    transcript sizes (for traffic accounting) without the modular
//    exponentiation; used when simulating large tensors.  Refused in a
//    remote two-process context unless the context was constructed with
//    the allow_ideal_ot escape hatch (see RemoteContextOptions).
//
// Both modes produce identical protocol results and identical byte counts.
// The OtMode selector and kOtFanIn live in crypto/party.hpp, so the context
// can enforce the remote refusal at construction time and its RoundBuffer
// can stage OT batches: comparison instances stage their leaf batches there
// and one flush merges them into one two-message dance.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/party.hpp"
#include "crypto/prng.hpp"

namespace pasnet::crypto {

/// Batched 1-of-4 OT.
///
/// For every instance t the sender (party `sender`) inputs 4 one-byte
/// messages `tables[t]`, the receiver (the other party) inputs a choice
/// `choices[t]` in [0,4); the receiver learns exactly `tables[t][choice]`.
/// Returns the receiver's outputs.  Two messages total: receiver -> sender
/// (blinded keys) then sender -> receiver (masked tables).
[[nodiscard]] std::vector<std::uint8_t> ot_1of4(
    TwoPartyContext& ctx, int sender,
    const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables,
    const std::vector<std::uint8_t>& choices, OtMode mode);

/// 61-bit Mersenne-prime group helpers shared by both Bellare–Micali OTs
/// (the dh_masked (1,4)-OT here and the OT-extension base OTs).
namespace dh {
inline constexpr std::uint64_t kPrime = (1ULL << 61) - 1;
inline constexpr std::uint64_t kGenerator = 3;
/// Fixed public group constant with unknown discrete log to either party.
inline constexpr std::uint64_t kPublicC = 0x1D0C0FFEE1234567ULL % kPrime;

[[nodiscard]] std::uint64_t mulmod(std::uint64_t a, std::uint64_t b) noexcept;
[[nodiscard]] std::uint64_t powmod(std::uint64_t base, std::uint64_t exp) noexcept;
[[nodiscard]] std::uint64_t invmod(std::uint64_t a) noexcept;

/// Fixed-base exponentiation table: pow(e) == powmod(base, e) for every
/// 64-bit e, as the product of one entry per exponent byte (8 lookups,
/// 7 mulmods).  Building it costs ~2k mulmods, so it pays off once a base
/// is raised to more than ~25 exponents.  16 KiB; read-only once built.
class FixedBaseTable {
 public:
  explicit FixedBaseTable(std::uint64_t base) noexcept;
  [[nodiscard]] std::uint64_t pow(std::uint64_t exp) const noexcept;

 private:
  // t_[j][k] = base^(k · 256^j)
  std::array<std::array<std::uint64_t, 256>, 8> t_;
};

/// The process-wide table for kGenerator (built on first use; safe to
/// share across threads).
[[nodiscard]] const FixedBaseTable& generator_table();

/// out[t] = powmod(bases[t], exp) for t < n: one exponent for many bases,
/// run as square-and-multiply over small blocks of bases in lockstep so the
/// blocks' independent multiplies overlap.  `out` may alias `bases`.
void powmod_batch(const std::uint64_t* bases, std::size_t n, std::uint64_t exp,
                  std::uint64_t* out) noexcept;

/// The dh_masked OT's two messages as channel-free frame makers/takers
/// (ot_1of4 ferries the frames over the context's channels).  Peer frames
/// of the wrong size or carrying a group element outside [1, p) throw
/// otx::OtExtError (crypto/ot_ext.hpp).
///
/// Receiver, message 1: draws x_t from `role_prng` in instance order and
/// returns the 8-byte B_t = g^{x_t}·C^{c_t}; the x_t go to `*secrets`.
/// Choices must lie in [0, kOtFanIn) (ot_1of4 checks them).
[[nodiscard]] std::vector<std::uint8_t> blind_choices(Prng& role_prng,
                                                      const std::vector<std::uint8_t>& choices,
                                                      std::vector<std::uint64_t>* secrets);
/// Sender, message 2: draws one ephemeral r and returns A = g^r followed by
/// the four one-byte entries of every table, each masked with
/// H((B_t·C^{-i})^r, 4t + i).
[[nodiscard]] std::vector<std::uint8_t> mask_tables(
    Prng& role_prng, const std::vector<std::uint8_t>& blinded,
    const std::vector<std::array<std::uint8_t, kOtFanIn>>& tables);
/// Receiver output: entry c_t of every table, unmasked with H(A^{x_t}, 4t + c_t).
[[nodiscard]] std::vector<std::uint8_t> unmask_choices(const std::vector<std::uint8_t>& reply,
                                                       const std::vector<std::uint64_t>& secrets,
                                                       const std::vector<std::uint8_t>& choices);
}  // namespace dh

}  // namespace pasnet::crypto
