// Operator-level 2PC tests.  Every communicating operator runs through
// the IR executor as a one-op program (support/test_models.hpp
// single_op_program) and is checked against its plaintext layer; the
// local operators and the argmax terminal are called directly.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.hpp"
#include "proto/secure_ops.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

using pasnet::testing::run_single_op;

namespace {

/// Max absolute elementwise difference between two tensors.
float max_abs_diff(const nn::Tensor& a, const nn::Tensor& b) {
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

nn::Tensor random_tensor(std::vector<int> shape, std::uint64_t seed, float scale = 1.0f) {
  pc::Prng prng(seed);
  return nn::Tensor::randn(std::move(shape), prng, scale);
}

/// An IR op of `kind` with its batch-1 geometry taken from NCHW (or
/// [N, features]) input/output shapes.
ir::Op shaped_op(ir::OpKind kind, const std::vector<int>& in, const std::vector<int>& out) {
  ir::Op op;
  op.kind = kind;
  const auto geometry = [](const std::vector<int>& s, int& c, int& h, int& w) {
    c = s[1];
    h = s.size() == 4 ? s[2] : 1;
    w = s.size() == 4 ? s[3] : 1;
  };
  geometry(in, op.in_ch, op.in_h, op.in_w);
  geometry(out, op.out_ch, op.out_h, op.out_w);
  op.in_features = static_cast<int>(op.input_elems());
  op.out_features = static_cast<int>(op.output_elems());
  return op;
}

/// A (depthwise) convolution op carrying the plaintext layer's weights.
ir::Op conv_op(ir::OpKind kind, const nn::Tensor& x, const nn::Tensor& want,
               const nn::Tensor& weight, const nn::Tensor* bias, int kernel, int stride, int pad) {
  ir::Op op = shaped_op(kind, x.shape(), want.shape());
  op.kernel = kernel;
  op.stride = stride;
  op.pad = pad;
  op.weight = weight.to_doubles();
  if (bias != nullptr) {
    op.bias = bias->to_doubles();
    op.has_bias = true;
  }
  return op;
}

ir::Op x2act_op(const nn::Tensor& x, double a_coeff, double w2, double b) {
  ir::Op op = shaped_op(ir::OpKind::x2act, x.shape(), x.shape());
  op.a_coeff = a_coeff;
  op.act_w2 = w2;
  op.act_b = b;
  return op;
}

ir::Op maxpool_op(const nn::Tensor& x, const nn::Tensor& want, int kernel, int stride, int pad) {
  ir::Op op = shaped_op(ir::OpKind::maxpool, x.shape(), want.shape());
  op.kernel = kernel;
  op.stride = stride;
  op.pad = pad;
  return op;
}

}  // namespace

TEST(SecureTensor, ShareReconstructRoundTrip) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(1);
  const auto x = random_tensor({2, 3, 4, 4}, 2);
  const auto st = proto::share_tensor(x, prng, ctx.ring());
  const auto back = proto::reconstruct_tensor(st, ctx.ring());
  EXPECT_LT(max_abs_diff(x, back), 1e-3f);
  EXPECT_EQ(st.shape, x.shape());
}

TEST(SecureConv, MatchesPlaintextConv) {
  pc::TwoPartyContext ctx;
  pc::Prng wprng(4);
  nn::Conv2d conv(2, 4, 3, 1, 1, wprng);
  const auto x = random_tensor({1, 2, 6, 6}, 5, 0.5f);
  const auto want = conv.forward(x, false);

  const auto out = run_single_op(
      ctx, conv_op(ir::OpKind::conv, x, want, conv.weight(), nullptr, 3, 1, 1), x);
  EXPECT_EQ(out.shape(), want.shape());
  EXPECT_LT(max_abs_diff(out, want), 0.05f);
}

TEST(SecureConv, StridedWithBias) {
  pc::TwoPartyContext ctx;
  pc::Prng wprng(7);
  nn::Conv2d conv(3, 2, 3, 2, 1, wprng, /*bias=*/true);
  conv.bias()[0] = 0.5f;
  conv.bias()[1] = -0.25f;
  const auto x = random_tensor({2, 3, 8, 8}, 8, 0.5f);
  const auto want = conv.forward(x, false);

  const auto out = run_single_op(
      ctx, conv_op(ir::OpKind::conv, x, want, conv.weight(), &conv.bias(), 3, 2, 1), x);
  EXPECT_EQ(out.shape(), want.shape());
  EXPECT_LT(max_abs_diff(out, want), 0.05f);
}

TEST(SecureDepthwiseConv, MatchesPlaintext) {
  pc::TwoPartyContext ctx;
  pc::Prng wprng(10);
  nn::DepthwiseConv2d dw(3, 3, 1, 1, wprng);
  const auto x = random_tensor({1, 3, 5, 5}, 11, 0.5f);
  const auto want = dw.forward(x, false);

  const auto out = run_single_op(
      ctx, conv_op(ir::OpKind::depthwise_conv, x, want, dw.weight(), nullptr, 3, 1, 1), x);
  EXPECT_EQ(out.shape(), want.shape());
  EXPECT_LT(max_abs_diff(out, want), 0.05f);
}

TEST(SecureLinear, MatchesPlaintext) {
  pc::TwoPartyContext ctx;
  pc::Prng wprng(13);
  nn::Linear fc(10, 4, wprng);
  const auto x = random_tensor({3, 10}, 14, 0.5f);
  const auto want = fc.forward(x, false);

  ir::Op op = shaped_op(ir::OpKind::linear, x.shape(), want.shape());
  op.weight = fc.weight().to_doubles();
  op.bias = fc.bias().to_doubles();
  op.has_bias = true;
  const auto out = run_single_op(ctx, std::move(op), x);
  EXPECT_EQ(out.shape(), want.shape());
  EXPECT_LT(max_abs_diff(out, want), 0.05f);
}

TEST(SecureX2act, MatchesPlaintextPolynomial) {
  pc::TwoPartyContext ctx;
  nn::X2Act act(0.4f, 0.9f, 0.1f);
  const auto x = random_tensor({2, 2, 3, 3}, 16, 0.8f);
  const auto want = act.forward(x, false);

  const double a = act.effective_quadratic_coeff(2 * 3 * 3);
  const auto out = run_single_op(ctx, x2act_op(x, a, act.w2(), act.b()), x);
  EXPECT_LT(max_abs_diff(out, want), 0.05f);
}

TEST(SecureX2act, StpaiIdentityPassthrough) {
  pc::TwoPartyContext ctx;
  const auto x = random_tensor({1, 4}, 18);
  const auto out = run_single_op(ctx, x2act_op(x, 0.0, 1.0, 0.0), x);
  EXPECT_LT(max_abs_diff(out, x), 2e-3f);
}

TEST(SecureRelu, MatchesPlaintextBothOtModes) {
  for (const auto mode : {pc::OtMode::dh_masked, pc::OtMode::correlated}) {
    pc::TwoPartyContext ctx;
    nn::Relu relu;
    const auto x = random_tensor({1, 2, 4, 4}, 20, 2.0f);
    const auto want = relu.forward(x, false);
    const auto out = run_single_op(ctx, shaped_op(ir::OpKind::relu, x.shape(), x.shape()), x,
                                   proto::SecureConfig{mode});
    EXPECT_LT(max_abs_diff(out, want), 2e-3f);
  }
}

TEST(SecureMaxpool, MatchesPlaintextOnPositiveInputs) {
  pc::TwoPartyContext ctx;
  nn::MaxPool2d pool(2, 2);
  auto x = random_tensor({1, 2, 4, 4}, 22);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::abs(x[i]);  // post-ReLU regime
  const auto want = pool.forward(x, false);
  const auto out = run_single_op(ctx, maxpool_op(x, want, 2, 2, 0), x);
  EXPECT_EQ(out.shape(), want.shape());
  EXPECT_LT(max_abs_diff(out, want), 5e-3f);
}

TEST(SecureMaxpool, ThreeByThreeWindowTree) {
  pc::TwoPartyContext ctx;
  nn::MaxPool2d pool(3, 2, 1);
  auto x = random_tensor({1, 1, 7, 7}, 24);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::abs(x[i]);
  const auto want = pool.forward(x, false);
  const auto out = run_single_op(ctx, maxpool_op(x, want, 3, 2, 1), x);
  EXPECT_EQ(out.shape(), want.shape());
  EXPECT_LT(max_abs_diff(out, want), 5e-3f);
}

TEST(SecureMaxpool, NonzeroPadMatchesPlaintextBothContexts) {
  // Padding positions carry zero shares; on the non-negative post-ReLU
  // regime that is exactly plaintext max pooling with zero padding.
  pc::TwoPartyContext ctx;
  nn::MaxPool2d pool(2, 2, 1);
  auto x = random_tensor({2, 3, 5, 5}, 51);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::abs(x[i]);
  const auto want = pool.forward(x, false);
  const auto out = run_single_op(ctx, maxpool_op(x, want, 2, 2, 1), x);
  EXPECT_EQ(out.shape(), want.shape());
  EXPECT_LT(max_abs_diff(out, want), 5e-3f);
}

TEST(SecureMaxpool, PadWithStrideOneOverlappingWindows) {
  pc::TwoPartyContext ctx;
  nn::MaxPool2d pool(3, 1, 1);
  auto x = random_tensor({1, 2, 6, 6}, 53);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::abs(x[i]);
  const auto want = pool.forward(x, false);
  const auto out = run_single_op(ctx, maxpool_op(x, want, 3, 1, 1), x);
  EXPECT_EQ(out.shape(), want.shape());
  EXPECT_LT(max_abs_diff(out, want), 5e-3f);
}

TEST(SecureArgmax, TieBreaksToLowestIndexBothContexts) {
  // Duplicate maxima: the tournament's [a >= b] selector keeps the earlier
  // (lower-index) entry on equality at every level, so the revealed label
  // is the lowest index holding the maximum.
  pc::TwoPartyContext ctx;
  pc::Prng prng(54);
  nn::Tensor logits({3, 6});
  const float rows[3][6] = {
      {0.25f, 2.5f, -1.0f, 2.5f, 0.0f, 2.5f},      // max at 1, 3 and 5 -> 1
      {-3.0f, -3.0f, -3.0f, -3.0f, -3.0f, -3.0f},  // all equal -> 0
      {1.0f, 1.0f, 4.0f, 4.0f, -2.0f, 0.5f},       // max at 2 and 3 -> 2
  };
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 6; ++c) logits[static_cast<std::size_t>(r * 6 + c)] = rows[r][c];
  }
  const auto sx = proto::share_tensor(logits, prng, ctx.ring());
  const auto got = pasnet::testing::run_argmax(ctx, sx);
  EXPECT_EQ(got, (std::vector<int>{1, 0, 2}));
}

TEST(SecureArgmax, TieAcrossOddTailEntry) {
  // An odd entry count carries the last column through levels unpaired; a
  // tie between the carried entry and an earlier winner must still resolve
  // to the earlier index.
  pc::TwoPartyContext ctx;
  pc::Prng prng(55);
  nn::Tensor logits({1, 5});
  const float vals[5] = {0.0f, 3.0f, -1.0f, 0.5f, 3.0f};  // max at 1 and 4 -> 1
  for (int c = 0; c < 5; ++c) logits[static_cast<std::size_t>(c)] = vals[c];
  const auto sx = proto::share_tensor(logits, prng, ctx.ring());
  EXPECT_EQ(pasnet::testing::run_argmax(ctx, sx), (std::vector<int>{1}));
}

TEST(SecureAvgpool, MatchesPlaintext) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(25);
  nn::AvgPool2d pool(2, 2);
  const auto x = random_tensor({2, 3, 4, 4}, 26);
  const auto want = pool.forward(x, false);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto out = proto::secure_avgpool(ctx, sx, 2, 2);
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 5e-3f);
}

TEST(SecureAvgpool, IsCommunicationFree) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(27);
  const auto sx = proto::share_tensor(random_tensor({1, 2, 4, 4}, 28), prng, ctx.ring());
  ctx.reset_stats();
  (void)proto::secure_avgpool(ctx, sx, 2, 2);
  EXPECT_EQ(ctx.stats().total_bytes(), 0u);  // paper Eq. 15: local only
}

TEST(SecureGlobalAvgpool, MatchesPlaintext) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(29);
  nn::GlobalAvgPool gap;
  const auto x = random_tensor({2, 4, 5, 5}, 30);
  const auto want = gap.forward(x, false);
  const auto sx = proto::share_tensor(x, prng, ctx.ring());
  const auto out = proto::secure_global_avgpool(ctx, sx);
  EXPECT_EQ(out.shape, want.shape());
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), want), 5e-3f);
}

TEST(SecureAdd, MatchesPlaintextAndIsFree) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(31);
  const auto a = random_tensor({1, 2, 3, 3}, 32);
  const auto b = random_tensor({1, 2, 3, 3}, 33);
  const auto sa = proto::share_tensor(a, prng, ctx.ring());
  const auto sb = proto::share_tensor(b, prng, ctx.ring());
  ctx.reset_stats();
  const auto out = proto::secure_add(ctx, sa, sb);
  EXPECT_EQ(ctx.stats().total_bytes(), 0u);
  EXPECT_LT(max_abs_diff(proto::reconstruct_tensor(out, ctx.ring()), nn::add(a, b)), 2e-3f);
}

TEST(SecureFlatten, ReshapesShares) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(34);
  const auto sx = proto::share_tensor(random_tensor({2, 3, 2, 2}, 35), prng, ctx.ring());
  const auto out = proto::secure_flatten(sx);
  EXPECT_EQ(out.shape, (std::vector<int>{2, 12}));
  EXPECT_EQ(out.size(), sx.size());
}

TEST(SecureConv, ReluCommunicationDwarfsConvCommunication) {
  // The motivating observation of the paper, measured on the *real*
  // protocol stack rather than the analytic model.
  const auto x = random_tensor({1, 8, 8, 8}, 37, 0.5f);
  pc::Prng wprng(38);
  nn::Conv2d conv(8, 8, 3, 1, 1, wprng);
  const auto want = conv.forward(x, false);
  // Both ops map 512 elements to 512, so both runs end with the same
  // terminal reveal; subtract it to compare the ops' own traffic.
  const std::uint64_t reveal_bytes = 2u * 4u * x.size();

  pc::TwoPartyContext conv_ctx;
  (void)run_single_op(conv_ctx,
                      conv_op(ir::OpKind::conv, x, want, conv.weight(), nullptr, 3, 1, 1), x);
  const auto conv_bytes = conv_ctx.stats().total_bytes() - reveal_bytes;

  pc::TwoPartyContext relu_ctx;
  (void)run_single_op(relu_ctx, shaped_op(ir::OpKind::relu, x.shape(), x.shape()), x);
  const auto relu_bytes = relu_ctx.stats().total_bytes() - reveal_bytes;
  EXPECT_GT(relu_bytes, 3 * conv_bytes);
}

// Property sweep: secure ReLU equals plaintext ReLU across magnitudes and
// both OT modes (the end-to-end correctness invariant of the comparison
// stack composed with B2A and multiplexing).
struct ReluCase {
  double scale;
  pc::OtMode mode;
};

class SecureReluProperty : public ::testing::TestWithParam<ReluCase> {};

TEST_P(SecureReluProperty, MatchesPlaintext) {
  const auto param = GetParam();
  pc::TwoPartyContext ctx;
  auto x = random_tensor({1, 64}, 41, static_cast<float>(param.scale));
  nn::Relu relu;
  const auto want = relu.forward(x, false);
  const auto out = run_single_op(ctx, shaped_op(ir::OpKind::relu, x.shape(), x.shape()), x,
                                 proto::SecureConfig{param.mode});
  EXPECT_LT(max_abs_diff(out, want), 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndModes, SecureReluProperty,
    ::testing::Values(ReluCase{0.1, pc::OtMode::correlated},
                      ReluCase{1.0, pc::OtMode::correlated},
                      ReluCase{10.0, pc::OtMode::correlated},
                      ReluCase{1.0, pc::OtMode::dh_masked},
                      ReluCase{100.0, pc::OtMode::dh_masked}));
