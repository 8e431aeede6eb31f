#include "crypto/ot_ext.hpp"

#include <cstring>

#include "crypto/ot.hpp"  // dh:: group helpers (the base-OT instantiation)

namespace pasnet::crypto::otx {

namespace {

/// 16-byte mask for base-OT message (i, beta): idx = 2i + beta.
Block128 base_pad(std::uint64_t key, std::size_t idx) noexcept {
  const std::uint64_t t = splitmix64(key ^ (0x9E3779B97F4A7C15ULL * (idx + 1)));
  return Block128{{t, splitmix64(t ^ key)}};
}

std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void store_u64(std::uint8_t* p, std::uint64_t v) noexcept { std::memcpy(p, &v, 8); }

Block128 load_block(const std::uint8_t* p) noexcept {
  return Block128{{load_u64(p), load_u64(p + 8)}};
}

void store_block(std::uint8_t* p, const Block128& b) noexcept {
  store_u64(p, b.w[0]);
  store_u64(p + 8, b.w[1]);
}

/// Transposes one 8×8 bit block held LSB-first in a u64 (row i = byte i):
/// bit (8i + j) moves to (8j + i).
std::uint64_t transpose8x8(std::uint64_t x) noexcept {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
  x = x ^ t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
  x = x ^ t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
  x = x ^ t ^ (t << 28);
  return x;
}

}  // namespace

Block128 cr_hash(std::uint64_t j, const Block128& x) noexcept {
  const std::uint64_t a = splitmix64(j ^ 0xA3EC647659359ACDULL);
  const std::uint64_t h0 = splitmix64(x.w[0] + a) ^ splitmix64(x.w[1] ^ a);
  const std::uint64_t h1 =
      splitmix64(x.w[1] + ~a) ^ splitmix64(x.w[0] ^ (a * 0x9E3779B97F4A7C15ULL));
  return Block128{{h0, h1}};
}

void prg_expand(const Block128& seed, std::uint64_t* out, std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t c = 0x9E3779B97F4A7C15ULL * (i + 1);
    out[i] = splitmix64(seed.w[0] + c) ^ splitmix64(seed.w[1] ^ c);
  }
}

void transpose_bits(const std::uint8_t* in, std::size_t rows, std::size_t cols,
                    std::uint8_t* out) {
  if (rows % 8 != 0 || cols % 8 != 0) {
    throw std::invalid_argument("transpose_bits: rows and cols must be multiples of 8");
  }
  const std::size_t istride = cols / 8;
  const std::size_t ostride = rows / 8;
  for (std::size_t r0 = 0; r0 < rows; r0 += 8) {
    for (std::size_t c0 = 0; c0 < cols; c0 += 8) {
      std::uint64_t x = 0;
      for (int k = 0; k < 8; ++k) {
        x |= static_cast<std::uint64_t>(in[(r0 + k) * istride + c0 / 8]) << (8 * k);
      }
      x = transpose8x8(x);
      for (int k = 0; k < 8; ++k) {
        out[(c0 + k) * ostride + r0 / 8] = static_cast<std::uint8_t>(x >> (8 * k));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ExtSender
// ---------------------------------------------------------------------------

ExtSender::ExtSender(Prng& role_prng) {
  s_.w[0] = role_prng.next_u64();
  s_.w[1] = role_prng.next_u64();
}

std::vector<std::uint8_t> ExtSender::make_chooser_frame(Prng& role_prng) {
  std::vector<std::uint8_t> frame(chooser_frame_bytes());
  for (std::size_t i = 0; i < kBaseOts; ++i) {
    x_[i] = 1 + role_prng.next_below(dh::kPrime - 1);
    std::uint64_t b = dh::generator_table().pow(x_[i]);
    if (s_.bit(i)) b = dh::mulmod(b, dh::kPublicC);
    store_u64(frame.data() + i * 8, b);
  }
  return frame;
}

void ExtSender::take_setup_reply(const std::vector<std::uint8_t>& frame) {
  if (frame.size() != setup_reply_bytes()) {
    throw OtExtError("ot_ext: base-OT setup reply has wrong size");
  }
  const std::uint64_t a_val = load_u64(frame.data());
  if (a_val == 0 || a_val >= dh::kPrime) {
    throw OtExtError("ot_ext: base-OT setup reply carries an invalid group element");
  }
  const dh::FixedBaseTable a_tab(a_val);
  for (std::size_t i = 0; i < kBaseOts; ++i) {
    const std::uint64_t key = a_tab.pow(x_[i]);
    const bool si = s_.bit(i);
    const Block128 masked = load_block(frame.data() + 8 + (i * 2 + (si ? 1 : 0)) * 16);
    seed_[i] = masked ^ base_pad(key, i * 2 + (si ? 1 : 0));
  }
  have_seeds_ = true;
}

void ExtSender::extend(const std::vector<std::uint8_t>& u_frame, std::size_t m) {
  if (!have_seeds_) throw OtExtError("ot_ext: extend before base-OT setup");
  if (m == 0) throw OtExtError("ot_ext: empty extension");
  const std::size_t mhat = padded_count(m);
  const std::size_t words = mhat / 64;
  if (u_frame.size() != u_frame_bytes(m)) {
    throw OtExtError("ot_ext: u frame has wrong size");
  }
  // Q matrix rows (128 × m̂ bits), then transpose into per-OT columns.
  std::vector<std::uint8_t> q_rows(kBaseOts * words * 8);
  std::vector<std::uint64_t> row(words);
  for (std::size_t i = 0; i < kBaseOts; ++i) {
    prg_expand(seed_[i], row.data(), words);
    if (s_.bit(i)) {
      for (std::size_t w = 0; w < words; ++w) {
        row[w] ^= load_u64(u_frame.data() + (i * words + w) * 8);
      }
    }
    std::memcpy(q_rows.data() + i * words * 8, row.data(), words * 8);
  }
  q_cols_.assign(mhat * 16, 0);
  transpose_bits(q_rows.data(), kBaseOts, mhat, q_cols_.data());
  m_ = m;
}

Block128 ExtSender::q(std::size_t j) const {
  if (j >= m_) throw OtExtError("ot_ext: OT index out of range");
  return load_block(q_cols_.data() + j * 16);
}

void ExtSender::pads(std::size_t j, std::size_t len, RingVec* pad0, RingVec* pad1) const {
  const Block128 qj = q(j);
  pad0->resize(len);
  pad1->resize(len);
  prg_expand(cr_hash(j, qj), pad0->data(), len);
  prg_expand(cr_hash(j, qj ^ s_), pad1->data(), len);
}

// ---------------------------------------------------------------------------
// ExtReceiver
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> ExtReceiver::make_setup_reply(
    const std::vector<std::uint8_t>& chooser_frame, Prng& role_prng) {
  if (chooser_frame.size() != chooser_frame_bytes()) {
    throw OtExtError("ot_ext: base-OT chooser frame has wrong size");
  }
  std::array<std::uint64_t, kBaseOts> key0{};
  for (std::size_t i = 0; i < kBaseOts; ++i) {
    key0[i] = load_u64(chooser_frame.data() + i * 8);
    if (key0[i] == 0 || key0[i] >= dh::kPrime) {
      throw OtExtError("ot_ext: base-OT chooser frame carries an invalid group element");
    }
  }
  // key0 = B_i^r and key1 = (B_i·C^{-1})^r = key0·C^{-r}.
  const std::uint64_t r = 1 + role_prng.next_below(dh::kPrime - 1);
  const std::uint64_t c_inv_r = dh::powmod(dh::invmod(dh::kPublicC), r);
  dh::powmod_batch(key0.data(), kBaseOts, r, key0.data());
  std::vector<std::uint8_t> frame(setup_reply_bytes());
  store_u64(frame.data(), dh::generator_table().pow(r));
  for (std::size_t i = 0; i < kBaseOts; ++i) {
    seed0_[i] = Block128{{role_prng.next_u64(), role_prng.next_u64()}};
    seed1_[i] = Block128{{role_prng.next_u64(), role_prng.next_u64()}};
    const std::uint64_t key1 = dh::mulmod(key0[i], c_inv_r);
    store_block(frame.data() + 8 + (i * 2 + 0) * 16, seed0_[i] ^ base_pad(key0[i], i * 2 + 0));
    store_block(frame.data() + 8 + (i * 2 + 1) * 16, seed1_[i] ^ base_pad(key1, i * 2 + 1));
  }
  have_seeds_ = true;
  return frame;
}

std::vector<std::uint8_t> ExtReceiver::make_u_frame(const std::vector<std::uint8_t>& choices,
                                                    Prng& role_prng) {
  if (!have_seeds_) throw OtExtError("ot_ext: u frame before base-OT setup");
  const std::size_t m = choices.size();
  if (m == 0) throw OtExtError("ot_ext: empty extension");
  const std::size_t mhat = padded_count(m);
  const std::size_t words = mhat / 64;
  // r packs the real choice bits; the padding bits above m are role-private
  // (they shape unused columns only, but keeping them uniform costs
  // nothing).
  std::vector<std::uint64_t> r_words(words);
  for (auto& w : r_words) w = role_prng.next_u64();
  for (std::size_t j = 0; j < m; ++j) {
    const std::uint64_t bit = std::uint64_t{1} << (j & 63);
    if ((choices[j] & 1) != 0) {
      r_words[j >> 6] |= bit;
    } else {
      r_words[j >> 6] &= ~bit;
    }
  }
  std::vector<std::uint8_t> t_rows(kBaseOts * words * 8);
  std::vector<std::uint8_t> frame(u_frame_bytes(m));
  std::vector<std::uint64_t> t_row(words), v_row(words);
  for (std::size_t i = 0; i < kBaseOts; ++i) {
    prg_expand(seed0_[i], t_row.data(), words);
    prg_expand(seed1_[i], v_row.data(), words);
    std::memcpy(t_rows.data() + i * words * 8, t_row.data(), words * 8);
    for (std::size_t w = 0; w < words; ++w) {
      store_u64(frame.data() + (i * words + w) * 8, t_row[w] ^ v_row[w] ^ r_words[w]);
    }
  }
  t_cols_.assign(mhat * 16, 0);
  transpose_bits(t_rows.data(), kBaseOts, mhat, t_cols_.data());
  m_ = m;
  return frame;
}

Block128 ExtReceiver::t(std::size_t j) const {
  if (j >= m_) throw OtExtError("ot_ext: OT index out of range");
  return load_block(t_cols_.data() + j * 16);
}

void ExtReceiver::pad(std::size_t j, std::size_t len, RingVec* out) const {
  out->resize(len);
  prg_expand(cr_hash(j, t(j)), out->data(), len);
}

}  // namespace pasnet::crypto::otx
