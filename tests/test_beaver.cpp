#include <gtest/gtest.h>

#include <array>

#include "crypto/party.hpp"

namespace pc = pasnet::crypto;

TEST(Beaver, DealerElemTripleIsConsistent) {
  pc::RingConfig rc{32, 12};
  pc::TripleDealer dealer(rc, 1);
  const auto t = dealer.elem_triple(32);
  const auto a = pc::reconstruct(t.a, rc);
  const auto b = pc::reconstruct(t.b, rc);
  const auto z = pc::reconstruct(t.z, rc);
  EXPECT_EQ(z, pc::mul_vec(a, b, rc));
}

TEST(Beaver, DealerSquarePairIsConsistent) {
  pc::RingConfig rc{32, 12};
  pc::TripleDealer dealer(rc, 2);
  const auto p = dealer.square_pair(16);
  const auto a = pc::reconstruct(p.a, rc);
  EXPECT_EQ(pc::reconstruct(p.z, rc), pc::mul_vec(a, a, rc));
}

TEST(Beaver, DealerMatmulTripleIsConsistent) {
  pc::RingConfig rc{32, 12};
  pc::TripleDealer dealer(rc, 3);
  const auto t = dealer.matmul_triple(3, 4, 5);
  const auto a = pc::reconstruct(t.a, rc);
  const auto b = pc::reconstruct(t.b, rc);
  EXPECT_EQ(pc::reconstruct(t.z, rc), pc::ring_matmul(a, b, 3, 4, 5, rc));
}

TEST(Beaver, DealerBitTripleIsConsistent) {
  pc::RingConfig rc{32, 12};
  pc::TripleDealer dealer(rc, 4);
  const auto t = dealer.bit_triple(256);
  for (std::size_t i = 0; i < 256; ++i) {
    const int a = t.a0[i] ^ t.a1[i];
    const int b = t.b0[i] ^ t.b1[i];
    const int c = t.c0[i] ^ t.c1[i];
    EXPECT_EQ(c, a & b);
  }
}

TEST(Beaver, CountersTrackConsumption) {
  pc::RingConfig rc{32, 12};
  pc::TripleDealer dealer(rc, 5);
  (void)dealer.elem_triple(10);
  (void)dealer.square_pair(7);
  (void)dealer.matmul_triple(2, 3, 4);
  (void)dealer.bit_triple(5);
  EXPECT_EQ(dealer.counters().elem_triples, 10u);
  EXPECT_EQ(dealer.counters().square_pairs, 7u);
  EXPECT_EQ(dealer.counters().matmul_triple_elems, 2u * 3 + 3u * 4 + 2u * 4);
  EXPECT_EQ(dealer.counters().bit_triples, 5u);
  dealer.reset_counters();
  EXPECT_EQ(dealer.counters().elem_triples, 0u);
}

TEST(Beaver, RingMatmulMatchesNaive) {
  pc::RingConfig rc{16, 0};
  // 2x3 · 3x2 with known answer (mod 2^16).
  pc::RingVec a{1, 2, 3, 4, 5, 6};
  pc::RingVec b{7, 8, 9, 10, 11, 12};
  const auto z = pc::ring_matmul(a, b, 2, 3, 2, rc);
  EXPECT_EQ(z, (pc::RingVec{58, 64, 139, 154}));
}

TEST(Beaver, RingMatmulShapeMismatchThrows) {
  pc::RingConfig rc{32, 0};
  EXPECT_THROW((void)pc::ring_matmul(pc::RingVec(5), pc::RingVec(6), 2, 3, 2, rc),
               std::invalid_argument);
}

TEST(MulProtocol, ElementwiseMatchesPlaintext) {
  pc::TwoPartyContext ctx;
  const auto& rc = ctx.ring();
  pc::Prng prng(11);
  std::vector<double> xs{1.5, -2.0, 3.25, 0.0, -0.5};
  std::vector<double> ys{2.0, 4.0, -1.5, 7.0, -8.0};
  const auto sx = pc::share_reals(xs, prng, rc);
  const auto sy = pc::share_reals(ys, prng, rc);
  const auto prod = pc::mul_fixed(ctx, sx, sy);
  const auto got = pc::reconstruct_reals(prod, rc);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(got[i], xs[i] * ys[i], 1e-2) << i;
  }
}

TEST(MulProtocol, ProducesTraffic) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(12);
  const auto sx = pc::share_reals(std::vector<double>(100, 1.0), prng, ctx.ring());
  const auto sy = pc::share_reals(std::vector<double>(100, 2.0), prng, ctx.ring());
  ctx.reset_stats();
  (void)pc::mul_elem(ctx, sx, sy);
  // Opening E and F: 2 values × 100 elems × 4 bytes × 2 directions.
  EXPECT_EQ(ctx.stats().total_bytes(), 2u * 100 * 4 * 2);
}

TEST(SquareProtocol, MatchesPlaintextSquare) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(13);
  std::vector<double> xs{0.0, 1.0, -1.0, 2.5, -3.5, 10.0};
  const auto sx = pc::share_reals(xs, prng, ctx.ring());
  const auto sq = pc::truncate_shares(pc::square_elem(ctx, sx), ctx.ring());
  const auto got = pc::reconstruct_reals(sq, ctx.ring());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(got[i], xs[i] * xs[i], 2e-2) << i;
  }
}

TEST(SquareProtocol, CheaperThanGenericMul) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(14);
  const auto sx = pc::share_reals(std::vector<double>(50, 2.0), prng, ctx.ring());
  ctx.reset_stats();
  (void)pc::square_elem(ctx, sx);
  const auto square_bytes = ctx.stats().total_bytes();
  ctx.reset_stats();
  (void)pc::mul_elem(ctx, sx, sx);
  const auto mul_bytes = ctx.stats().total_bytes();
  EXPECT_LT(square_bytes, mul_bytes);  // one opening instead of two
}

TEST(MatmulProtocol, MatchesPlaintext) {
  pc::TwoPartyContext ctx;
  const auto& rc = ctx.ring();
  pc::Prng prng(15);
  // X: 2x3, Y: 3x2 in reals.
  std::vector<double> xs{1, 2, 3, 4, 5, 6};
  std::vector<double> ys{0.5, -1, 2, 0.25, -0.5, 3};
  const auto sx = pc::share_reals(xs, prng, rc);
  const auto sy = pc::share_reals(ys, prng, rc);
  auto prod = pc::matmul(ctx, sx, sy, 2, 3, 2);
  prod = pc::truncate_shares(prod, rc);
  const auto got = pc::reconstruct_reals(prod, rc);
  // Expected: [[1*0.5+2*2+3*-0.5, 1*-1+2*0.25+3*3], [...]]
  const std::vector<double> want{3.0, 8.5, 9.0, 15.25};
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_NEAR(got[i], want[i], 2e-2);
}

namespace {

pc::RingVec random_ring(pc::Prng& prng, std::size_t n, const pc::RingConfig& rc) {
  pc::RingVec v(n);
  for (auto& e : v) e = prng.next_u64() & rc.mask();
  return v;
}

/// Direct (loop-nest) convolution mod 2^bits: the f(X, W) a bilinear spec
/// describes, written independently of im2col and the GEMM kernels.
pc::RingVec direct_conv(const pc::RingVec& x, const pc::RingVec& w,
                        const pc::BilinearSpec& sp, const pc::RingConfig& rc) {
  const bool dw = sp.kind == pc::BilinearKind::depthwise_conv2d;
  const int oh = sp.out_h(), ow = sp.out_w(), kk = sp.kernel;
  pc::RingVec out(sp.nz());
  std::size_t o = 0;
  for (int s = 0; s < sp.batch; ++s) {
    for (int oc = 0; oc < sp.out_ch; ++oc) {
      for (int y = 0; y < oh; ++y) {
        for (int xo = 0; xo < ow; ++xo, ++o) {
          std::uint64_t acc = 0;
          for (int ch = dw ? oc : 0; ch < (dw ? oc + 1 : sp.in_ch); ++ch) {
            for (int kh = 0; kh < kk; ++kh) {
              for (int kw = 0; kw < kk; ++kw) {
                const int iy = y * sp.stride + kh - sp.pad;
                const int ix = xo * sp.stride + kw - sp.pad;
                if (iy < 0 || iy >= sp.in_h || ix < 0 || ix >= sp.in_w) continue;
                const std::size_t xi =
                    ((static_cast<std::size_t>(s) * sp.in_ch + ch) * sp.in_h + iy) * sp.in_w +
                    ix;
                const std::size_t wrow = dw ? static_cast<std::size_t>(oc)
                                            : static_cast<std::size_t>(oc) * sp.in_ch + ch;
                acc += x[xi] * w[(wrow * kk + kh) * kk + kw];
              }
            }
          }
          out[o] = acc & rc.mask();
        }
      }
    }
  }
  return out;
}

}  // namespace

// BilinearRound and MatmulRound recombine the opened masks with the triple
// shares through identities (party 0 folds f(F,E) + f(A_0,E) into
// f(F + A_0, E); party 1 folds -E·F into E·(Y_1 - F)).  Reconstructing the
// two finish() shares must give the exact product mod 2^bits.
TEST(BeaverRounds, FinishIsRingExactForConvDepthwiseAndLinear) {
  pc::Prng prng(0xB11);
  for (const int bits : {19, 32, 64}) {
    const pc::RingConfig rc{bits, 0};
    pc::TwoPartyContext ctx(rc, 90 + static_cast<std::uint64_t>(bits));
    pc::BilinearSpec conv;
    conv.batch = 2, conv.in_ch = 3, conv.in_h = 5, conv.in_w = 4, conv.out_ch = 4;
    conv.kernel = 3, conv.stride = 1, conv.pad = 1;
    pc::BilinearSpec deep = conv;  // the skinny n = 1 shape of a deep layer
    deep.batch = 1, deep.in_ch = 8, deep.in_h = 2, deep.in_w = 2, deep.out_ch = 6;
    deep.stride = 2, deep.pad = 1;
    pc::BilinearSpec dw = conv;
    dw.kind = pc::BilinearKind::depthwise_conv2d;
    dw.out_ch = dw.in_ch, dw.stride = 2;
    for (const pc::BilinearSpec& sp : {conv, deep, dw}) {
      const pc::RingVec x = random_ring(prng, sp.na(), rc);
      const pc::RingVec w = random_ring(prng, sp.nb(), rc);
      pc::BilinearRound r;
      r.stage(ctx, pc::share(x, prng, rc), pc::share(w, prng, rc), sp);
      ctx.round_buffer().flush();
      EXPECT_EQ(pc::reconstruct(r.finish(rc), rc), direct_conv(x, w, sp, rc))
          << "bits=" << bits << " depthwise=" << (sp.kind == pc::BilinearKind::depthwise_conv2d)
          << " in=" << sp.in_ch << "x" << sp.in_h << "x" << sp.in_w;
    }
    // Linear layers: (batch × in) · (in × out), wide and skinny outputs.
    for (const auto& [m, k, n] : {std::array<std::size_t, 3>{1, 64, 10},
                                  std::array<std::size_t, 3>{4, 33, 1},
                                  std::array<std::size_t, 3>{3, 7, 5}}) {
      const pc::RingVec x = random_ring(prng, m * k, rc);
      const pc::RingVec y = random_ring(prng, k * n, rc);
      pc::MatmulRound r;
      r.stage(ctx, pc::share(x, prng, rc), pc::share(y, prng, rc), m, k, n);
      ctx.round_buffer().flush();
      pc::RingVec want(m * n, 0);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          for (std::size_t p = 0; p < k; ++p) want[i * n + j] += x[i * k + p] * y[p * n + j];
          want[i * n + j] &= rc.mask();
        }
      }
      EXPECT_EQ(pc::reconstruct(r.finish(rc), rc), want)
          << "bits=" << bits << " linear " << m << "x" << k << "x" << n;
    }
  }
}

TEST(OpenProtocol, ReconstructsOverChannel) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(16);
  pc::RingVec x{42, 0xFFFF, 7};
  const auto sx = pc::share(x, prng, ctx.ring());
  EXPECT_EQ(pc::open(ctx, sx), x);
  EXPECT_GT(ctx.stats().total_bytes(), 0u);
}

// Property sweep: Beaver multiplication is exact over the raw ring
// (no truncation) for random inputs across sizes.
class MulProperty : public ::testing::TestWithParam<int> {};

TEST_P(MulProperty, ExactOverRing) {
  const int n = GetParam();
  pc::TwoPartyContext ctx(pc::RingConfig{32, 0}, 77 + n);
  pc::Prng prng(21 + n);
  pc::RingVec x(n), y(n);
  for (auto& e : x) e = prng.next_u64() & ctx.ring().mask();
  for (auto& e : y) e = prng.next_u64() & ctx.ring().mask();
  const auto sx = pc::share(x, prng, ctx.ring());
  const auto sy = pc::share(y, prng, ctx.ring());
  const auto prod = pc::mul_elem(ctx, sx, sy);
  EXPECT_EQ(pc::reconstruct(prod, ctx.ring()), pc::mul_vec(x, y, ctx.ring()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MulProperty, ::testing::Values(1, 2, 17, 64, 255, 1024));
