#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "crypto/ot.hpp"
#include "crypto/ot_ext.hpp"

namespace pc = pasnet::crypto;
namespace dh = pasnet::crypto::dh;
namespace otx = pasnet::crypto::otx;

TEST(DhMath, MulmodMatchesInt128) {
  const std::uint64_t a = 0x1234567890ABCDEFULL % dh::kPrime;
  const std::uint64_t b = 0x0FEDCBA987654321ULL % dh::kPrime;
  const auto want = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) % dh::kPrime);
  EXPECT_EQ(dh::mulmod(a, b), want);
}

TEST(DhMath, PowmodBasics) {
  EXPECT_EQ(dh::powmod(2, 0), 1u);
  EXPECT_EQ(dh::powmod(2, 10), 1024u);
  EXPECT_EQ(dh::powmod(dh::kGenerator, dh::kPrime - 1), 1u);  // Fermat
}

TEST(DhMath, InverseIsCorrect) {
  for (std::uint64_t a : std::vector<std::uint64_t>{2, 3, 12345, dh::kPrime - 2}) {
    EXPECT_EQ(dh::mulmod(a, dh::invmod(a)), 1u) << a;
  }
}

namespace {

/// Exponents and bases the group helpers must agree with powmod on.
std::vector<std::uint64_t> probe_exponents() {
  std::vector<std::uint64_t> e{0, 1, 2, 255, 256, std::uint64_t{1} << 60, dh::kPrime - 2,
                               dh::kPrime - 1, ~std::uint64_t{0}};
  pc::Prng prng(0xE0);
  for (int i = 0; i < 24; ++i) e.push_back(prng.next_u64());
  return e;
}

std::vector<std::uint64_t> probe_bases() {
  std::vector<std::uint64_t> b{1, dh::kGenerator, dh::kPrime - 1, dh::kPublicC};
  pc::Prng prng(0xB0);
  for (int i = 0; i < 13; ++i) b.push_back(1 + prng.next_below(dh::kPrime - 1));
  return b;
}

}  // namespace

TEST(DhMath, FixedBaseTableMatchesPowmod) {
  const auto exps = probe_exponents();
  for (const std::uint64_t base : probe_bases()) {
    const dh::FixedBaseTable table(base);
    for (const std::uint64_t e : exps) {
      EXPECT_EQ(table.pow(e), dh::powmod(base, e)) << base << "^" << e;
    }
  }
  for (const std::uint64_t e : exps) {
    EXPECT_EQ(dh::generator_table().pow(e), dh::powmod(dh::kGenerator, e)) << e;
  }
  // Base 0 follows powmod's convention too: 0^0 = 1, else 0.
  const dh::FixedBaseTable zero(0);
  EXPECT_EQ(zero.pow(0), 1u);
  EXPECT_EQ(zero.pow(5), 0u);
}

TEST(DhMath, PowmodBatchMatchesPowmodOnEveryBlockShape) {
  const auto bases = probe_bases();  // 17 bases: two full blocks and a tail
  for (const std::uint64_t e : probe_exponents()) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
                                std::size_t{9}, bases.size()}) {
      std::vector<std::uint64_t> out(n, 0xDEAD);
      dh::powmod_batch(bases.data(), n, e, out.data());
      for (std::size_t t = 0; t < n; ++t) {
        EXPECT_EQ(out[t], dh::powmod(bases[t], e)) << "n=" << n << " t=" << t << " e=" << e;
      }
    }
    // In place.
    std::vector<std::uint64_t> inplace = bases;
    dh::powmod_batch(inplace.data(), inplace.size(), e, inplace.data());
    for (std::size_t t = 0; t < bases.size(); ++t) {
      EXPECT_EQ(inplace[t], dh::powmod(bases[t], e)) << t;
    }
  }
}

namespace {

// Naive reference copy of the dh_masked OT's two messages, written with
// dh::powmod/mulmod only: (B_t·C^{-i})^r is computed literally for every
// entry and every exponentiation is square-and-multiply.  The optimised
// frames must be byte-equal to these.
struct RefOt {
  static std::vector<std::uint8_t> blind(pc::Prng& prng, const std::vector<std::uint8_t>& choices,
                                         std::vector<std::uint64_t>* secrets) {
    const std::size_t n = choices.size();
    secrets->resize(n);
    std::vector<std::uint8_t> frame(n * 8);
    for (std::size_t t = 0; t < n; ++t) {
      (*secrets)[t] = 1 + prng.next_below(dh::kPrime - 1);
      const std::uint64_t gx = dh::powmod(dh::kGenerator, (*secrets)[t]);
      const std::uint64_t b = dh::mulmod(gx, dh::powmod(dh::kPublicC, choices[t]));
      std::memcpy(frame.data() + t * 8, &b, 8);
    }
    return frame;
  }

  static std::vector<std::uint8_t> mask(pc::Prng& prng, const std::vector<std::uint8_t>& blinded,
                                        const std::vector<std::array<std::uint8_t, 4>>& tables) {
    const std::size_t n = tables.size();
    const std::uint64_t r = 1 + prng.next_below(dh::kPrime - 1);
    const std::uint64_t a_val = dh::powmod(dh::kGenerator, r);
    const std::uint64_t c_inv = dh::invmod(dh::kPublicC);
    std::vector<std::uint8_t> payload(8 + n * 4);
    std::memcpy(payload.data(), &a_val, 8);
    for (std::size_t t = 0; t < n; ++t) {
      std::uint64_t pk = 0;
      std::memcpy(&pk, blinded.data() + t * 8, 8);
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t pad = pc::splitmix64(dh::powmod(pk, r) ^ (t * 4 + i));
        payload[8 + t * 4 + i] = tables[t][i] ^ static_cast<std::uint8_t>(pad & 0xFF);
        pk = dh::mulmod(pk, c_inv);
      }
    }
    return payload;
  }

  static std::vector<std::uint8_t> unmask(const std::vector<std::uint8_t>& reply,
                                          const std::vector<std::uint64_t>& secrets,
                                          const std::vector<std::uint8_t>& choices) {
    std::uint64_t a_val = 0;
    std::memcpy(&a_val, reply.data(), 8);
    std::vector<std::uint8_t> out(choices.size());
    for (std::size_t t = 0; t < choices.size(); ++t) {
      const std::uint64_t pad =
          pc::splitmix64(dh::powmod(a_val, secrets[t]) ^ (t * 4 + choices[t]));
      out[t] = reply[8 + t * 4 + choices[t]] ^ static_cast<std::uint8_t>(pad & 0xFF);
    }
    return out;
  }
};

struct OtInputs {
  std::vector<std::array<std::uint8_t, 4>> tables;
  std::vector<std::uint8_t> choices;
};

OtInputs random_inputs(std::size_t n, std::uint64_t seed) {
  pc::Prng prng(seed);
  OtInputs in{std::vector<std::array<std::uint8_t, 4>>(n), std::vector<std::uint8_t>(n)};
  for (std::size_t t = 0; t < n; ++t) {
    for (auto& e : in.tables[t]) e = static_cast<std::uint8_t>(prng.next_u64());
    in.choices[t] = static_cast<std::uint8_t>(prng.next_below(4));
  }
  return in;
}

}  // namespace

TEST(Ot, DhFramesByteEqualToNaiveReference) {
  for (const std::size_t n : {1, 15, 16, 17, 4096}) {
    const OtInputs in = random_inputs(n, 1000 + n);
    pc::Prng rprng(7 * n), rprng_ref(7 * n), sprng(11 * n), sprng_ref(11 * n);
    std::vector<std::uint64_t> x, x_ref;
    const auto blinded = dh::blind_choices(rprng, in.choices, &x);
    ASSERT_EQ(blinded, RefOt::blind(rprng_ref, in.choices, &x_ref)) << "n=" << n;
    ASSERT_EQ(x, x_ref);
    const auto reply = dh::mask_tables(sprng, blinded, in.tables);
    ASSERT_EQ(reply, RefOt::mask(sprng_ref, blinded, in.tables)) << "n=" << n;
    const auto out = dh::unmask_choices(reply, x, in.choices);
    EXPECT_EQ(out, RefOt::unmask(reply, x_ref, in.choices));
    for (std::size_t t = 0; t < n; ++t) ASSERT_EQ(out[t], in.tables[t][in.choices[t]]) << t;
    // Same draws from each role stream.
    EXPECT_EQ(rprng.next_u64(), rprng_ref.next_u64());
    EXPECT_EQ(sprng.next_u64(), sprng_ref.next_u64());
  }
}

TEST(Ot, DhContextMatchesNaiveReferenceBothSenders) {
  // The frames' bytes are pinned above; this pins how ot_1of4 drives them
  // on an in-process context.  It draws the receiver's secrets from
  // ot_prng(receiver) and the sender's ephemeral from ot_prng(sender), so
  // replaying copies of those streams through the naive reference must
  // give the same output, the same stream positions and the same message
  // sizes in each direction.
  for (const int sender : {0, 1}) {
    for (const std::size_t n : {1, 15, 16, 17, 4096}) {
      const int receiver = 1 - sender;
      const OtInputs in = random_inputs(n, 2000 + n);
      pc::TwoPartyContext ctx(pc::RingConfig{}, 5 + n);
      pc::Prng rprng = ctx.ot_prng(receiver);
      pc::Prng sprng = ctx.ot_prng(sender);
      const auto out = pc::ot_1of4(ctx, sender, in.tables, in.choices, pc::OtMode::dh_masked);
      std::vector<std::uint64_t> x;
      const auto blinded = RefOt::blind(rprng, in.choices, &x);
      const auto reply = RefOt::mask(sprng, blinded, in.tables);
      EXPECT_EQ(out, RefOt::unmask(reply, x, in.choices)) << sender << " n=" << n;
      EXPECT_EQ(ctx.ot_prng(receiver).next_u64(), rprng.next_u64());
      EXPECT_EQ(ctx.ot_prng(sender).next_u64(), sprng.next_u64());
      const pc::TrafficStats& st = ctx.stats();
      EXPECT_EQ(receiver == 0 ? st.bytes_p0_to_p1 : st.bytes_p1_to_p0, blinded.size());
      EXPECT_EQ(sender == 0 ? st.bytes_p0_to_p1 : st.bytes_p1_to_p0, reply.size());
    }
  }
}

namespace {

/// Runs the local role of a remote dh_masked OT whose peer frame is `frame`.
void run_against_crafted_frame(int local, int sender, const std::vector<std::uint8_t>& frame) {
  auto [c0, c1] = pc::Channel::make_pair();
  pc::Channel& mine = local == 0 ? *c0 : *c1;
  pc::Channel& peer = local == 0 ? *c1 : *c0;
  pc::TwoPartyContext ctx(pc::RingConfig{}, 42, local, mine);
  peer.send_bytes(frame);
  const OtInputs in = random_inputs(4, 9);
  (void)pc::ot_1of4(ctx, sender, in.tables, in.choices, pc::OtMode::dh_masked);
}

std::vector<std::uint8_t> with_u64(std::vector<std::uint8_t> frame, std::size_t at,
                                   std::uint64_t v) {
  std::memcpy(frame.data() + at, &v, 8);
  return frame;
}

}  // namespace

TEST(Ot, SenderRejectsMalformedBlindedKeysTyped) {
  const OtInputs in = random_inputs(4, 9);
  pc::Prng prng(3);
  std::vector<std::uint64_t> x;
  const auto good = dh::blind_choices(prng, in.choices, &x);
  for (const int sender : {0, 1}) {
    EXPECT_THROW(run_against_crafted_frame(sender, sender, with_u64(good, 16, 0)),
                 otx::OtExtError);
    EXPECT_THROW(run_against_crafted_frame(sender, sender, with_u64(good, 0, dh::kPrime)),
                 otx::OtExtError);
    EXPECT_THROW(run_against_crafted_frame(sender, sender, with_u64(good, 24, ~0ULL)),
                 otx::OtExtError);
    EXPECT_THROW(run_against_crafted_frame(
                     sender, sender, std::vector<std::uint8_t>(good.begin(), good.end() - 1)),
                 otx::OtExtError);
    EXPECT_NO_THROW(run_against_crafted_frame(sender, sender, good));
  }
}

TEST(Ot, ReceiverRejectsMalformedReplyTyped) {
  const OtInputs in = random_inputs(4, 9);
  pc::Prng rprng(3), sprng(4);
  std::vector<std::uint64_t> x;
  const auto good = dh::mask_tables(sprng, dh::blind_choices(rprng, in.choices, &x), in.tables);
  for (const int sender : {0, 1}) {
    const int receiver = 1 - sender;
    EXPECT_THROW(run_against_crafted_frame(receiver, sender, with_u64(good, 0, 0)),
                 otx::OtExtError);
    EXPECT_THROW(run_against_crafted_frame(receiver, sender, with_u64(good, 0, dh::kPrime)),
                 otx::OtExtError);
    EXPECT_THROW(run_against_crafted_frame(
                     receiver, sender, std::vector<std::uint8_t>(good.begin(), good.end() - 1)),
                 otx::OtExtError);
    EXPECT_NO_THROW(run_against_crafted_frame(receiver, sender, good));
  }
}

TEST(Ot, ConcurrentContextsShareTheGeneratorTable) {
  // Worker pairs run OTs on separate threads, all reading the one
  // process-wide g table (a race detector build checks the sharing).
  std::vector<std::thread> workers;
  std::vector<int> ok(4, 0);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([w, &ok] {
      const OtInputs in = random_inputs(64, 300 + w);
      pc::TwoPartyContext ctx(pc::RingConfig{}, 77 + w);
      const auto out = pc::ot_1of4(ctx, w % 2, in.tables, in.choices, pc::OtMode::dh_masked);
      bool all = true;
      for (std::size_t t = 0; t < out.size(); ++t) all &= out[t] == in.tables[t][in.choices[t]];
      ok[w] = all ? 1 : 0;
    });
  }
  for (auto& th : workers) th.join();
  EXPECT_EQ(ok, std::vector<int>(4, 1));
}

namespace {

void run_ot_correctness(pc::OtMode mode) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(99);
  const std::size_t n = 64;
  std::vector<std::array<std::uint8_t, 4>> tables(n);
  std::vector<std::uint8_t> choices(n);
  for (std::size_t t = 0; t < n; ++t) {
    for (int i = 0; i < 4; ++i) tables[t][i] = static_cast<std::uint8_t>(prng.next_u64());
    choices[t] = static_cast<std::uint8_t>(prng.next_below(4));
  }
  const auto out = pc::ot_1of4(ctx, /*sender=*/1, tables, choices, mode);
  ASSERT_EQ(out.size(), n);
  for (std::size_t t = 0; t < n; ++t) EXPECT_EQ(out[t], tables[t][choices[t]]) << t;
}

}  // namespace

TEST(Ot, DhMaskedDeliversChosenMessage) { run_ot_correctness(pc::OtMode::dh_masked); }

TEST(Ot, CorrelatedDeliversChosenMessage) { run_ot_correctness(pc::OtMode::correlated); }

TEST(Ot, BothModesProduceSameTraffic) {
  auto traffic = [](pc::OtMode mode) {
    pc::TwoPartyContext ctx;
    std::vector<std::array<std::uint8_t, 4>> tables(32, {1, 2, 3, 4});
    std::vector<std::uint8_t> choices(32, 2);
    (void)pc::ot_1of4(ctx, 1, tables, choices, mode);
    return ctx.stats().total_bytes();
  };
  EXPECT_EQ(traffic(pc::OtMode::dh_masked), traffic(pc::OtMode::correlated));
}

TEST(Ot, SenderCanBeEitherParty) {
  for (int sender : {0, 1}) {
    pc::TwoPartyContext ctx;
    std::vector<std::array<std::uint8_t, 4>> tables{{10, 20, 30, 40}};
    std::vector<std::uint8_t> choices{3};
    const auto out = pc::ot_1of4(ctx, sender, tables, choices, pc::OtMode::dh_masked);
    EXPECT_EQ(out[0], 40);
  }
}

TEST(Ot, EmptyBatchIsNoop) {
  pc::TwoPartyContext ctx;
  const auto out = pc::ot_1of4(ctx, 1, {}, {}, pc::OtMode::dh_masked);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(ctx.stats().total_bytes(), 0u);
}

TEST(Ot, MismatchedInputsThrow) {
  pc::TwoPartyContext ctx;
  std::vector<std::array<std::uint8_t, 4>> tables(2, {0, 0, 0, 0});
  EXPECT_THROW((void)pc::ot_1of4(ctx, 1, tables, {0}, pc::OtMode::dh_masked),
               std::invalid_argument);
  std::vector<std::uint8_t> bad_choice{7, 0};
  EXPECT_THROW((void)pc::ot_1of4(ctx, 1, tables, bad_choice, pc::OtMode::dh_masked),
               std::invalid_argument);
}

TEST(Ot, TwoRoundsExactly) {
  pc::TwoPartyContext ctx;
  std::vector<std::array<std::uint8_t, 4>> tables(8, {5, 6, 7, 8});
  std::vector<std::uint8_t> choices(8, 1);
  (void)pc::ot_1of4(ctx, 1, tables, choices, pc::OtMode::dh_masked);
  EXPECT_EQ(ctx.stats().rounds, 2u);
  EXPECT_EQ(ctx.stats().messages, 2u);
}

// Property: every (choice, table) combination is delivered correctly.
class OtExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(OtExhaustive, AllChoices) {
  const int choice = GetParam();
  pc::TwoPartyContext ctx;
  std::vector<std::array<std::uint8_t, 4>> tables{{11, 22, 33, 44}};
  std::vector<std::uint8_t> choices{static_cast<std::uint8_t>(choice)};
  const auto out = pc::ot_1of4(ctx, 1, tables, choices, pc::OtMode::dh_masked);
  EXPECT_EQ(out[0], tables[0][choice]);
}

INSTANTIATE_TEST_SUITE_P(Choices, OtExhaustive, ::testing::Values(0, 1, 2, 3));
