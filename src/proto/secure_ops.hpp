#pragma once
// The 2PC operator library (paper §III-C): secure convolution, linear,
// polynomial activation, ReLU, max/avg pooling, residual add.
//
// Linear/convolution layers run Beaver matrix multiplications on im2col'd
// shares; X2act uses the square protocol (Eq. 3) plus public-coefficient
// scaling; ReLU and MaxPool go through the OT-based comparison stack of
// src/crypto/compare.  Every operator exchanges real messages over the
// simulated channel, so byte/round statistics are faithful.
//
// The operators that communicate are staged classes the IR executor
// (ir::execute_batch) drives.  The single-round multiplicative ops (conv,
// depthwise conv, linear, x2act) split into stage() — draw triples and
// stage the masked openings on the context's OpenBuffer — and finish() —
// local recombination once the executor has flushed the op's round
// group.  ReLU and MaxPool are resumable comparison machines the executor
// advances phase by phase.  Local ops (pooling by averaging, add,
// flatten) are plain functions, as is the argmax terminal, which runs its
// own exchanges.

#include <memory>

#include "crypto/compare.hpp"
#include "proto/secure_tensor.hpp"

namespace pasnet::proto {

/// Protocol knobs for the secure executor.
struct SecureConfig {
  /// OT instantiation for comparisons: dh_masked is the full cryptographic
  /// path; correlated is the fast ideal-functionality path with identical
  /// transcript sizes (use for large tensors).
  crypto::OtMode ot_mode = crypto::OtMode::correlated;
};

// --- Staged (two-phase) operator forms -------------------------------------

/// Interface the IR executor drives: stage() draws the op's correlated
/// randomness and stages its openings (no communication of its own),
/// finish() computes the result locally once the openings are flushed.
/// Referenced inputs (activation tensors, weights) must outlive the op.
class StagedSecureOp {
 public:
  virtual ~StagedSecureOp() = default;
  virtual void stage(crypto::TwoPartyContext& ctx) = 0;
  [[nodiscard]] virtual SecureTensor finish(crypto::TwoPartyContext& ctx) = 0;
};

/// Staged 2PC convolution (normal or depthwise).  Weight is a shared
/// [OC, IC·K·K] matrix ([C, K·K] depthwise); optional shared bias [OC]
/// broadcast over the spatial output (depthwise bias comes from BN folds).
class StagedConv2d final : public StagedSecureOp {
 public:
  StagedConv2d(const SecureTensor& x, const crypto::Shared& weight,
               const crypto::Shared* bias, int out_ch, int kernel, int stride, int pad,
               bool depthwise);
  void stage(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor finish(crypto::TwoPartyContext& ctx) override;

 private:
  const SecureTensor& x_;
  const crypto::Shared& weight_;
  const crypto::Shared* bias_;
  int out_ch_, kernel_, stride_, pad_;
  bool depthwise_;
  crypto::BilinearRound round_;
};

/// Staged 2PC fully connected layer: weight [out, in], bias [out].
class StagedLinear final : public StagedSecureOp {
 public:
  StagedLinear(const SecureTensor& x, const crypto::Shared& weight,
               const crypto::Shared* bias, int out_features);
  void stage(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor finish(crypto::TwoPartyContext& ctx) override;

 private:
  const SecureTensor& x_;
  const crypto::Shared& weight_;
  const crypto::Shared* bias_;
  int out_features_;
  std::vector<crypto::MatmulRound> rounds_;  // one per sample
};

/// Staged 2PC X2act (paper Eq. 4/14): a·x² + w2·x + b, public coefficients.
class StagedX2act final : public StagedSecureOp {
 public:
  StagedX2act(const SecureTensor& x, double a_coeff, double w2, double b);
  void stage(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor finish(crypto::TwoPartyContext& ctx) override;

 private:
  const SecureTensor& x_;
  double a_, w2_, b_;
  crypto::SquareRound round_;
};

// --- Staged (resumable) comparison operators -------------------------------

/// Interface for multi-round comparison ops the IR executor advances in
/// lockstep: begin() draws ALL of the op's correlated randomness (keeping
/// the dealer request stream program-ordered) and stages its first
/// communication phase on the context buffers; waiting() names the buffer
/// the op needs flushed; step() consumes the flushed round and stages the
/// next phase.  All instances of one round group share each flush — one
/// (1,4)-OT round per digit batch, one exchange per AND-tree level, one
/// opening per B2A/mux phase — however many instances the group holds.
class StagedCompareOp {
 public:
  virtual ~StagedCompareOp() = default;
  virtual void begin(crypto::TwoPartyContext& ctx) = 0;
  [[nodiscard]] virtual crypto::CompareWait waiting() const = 0;
  virtual void step(crypto::TwoPartyContext& ctx) = 0;
  /// The op's output; valid once waiting() == done.
  [[nodiscard]] virtual SecureTensor take(crypto::TwoPartyContext& ctx) = 0;
};

/// Staged 2PC ReLU: one resumable v·DReLU(v) over the whole tensor.
class StagedRelu final : public StagedCompareOp {
 public:
  StagedRelu(const SecureTensor& x, crypto::OtMode mode);
  void begin(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] crypto::CompareWait waiting() const override;
  void step(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor take(crypto::TwoPartyContext& ctx) override;

 private:
  const SecureTensor& x_;
  crypto::OtMode mode_;
  crypto::StagedDreluMux core_;
};

/// Staged 2PC MaxPool: the k²-tap tournament with every level a resumable
/// batched secure max.  All the tournament's correlated randomness is
/// drawn at begin() (level order), so a singleton level — one comparison
/// left — rides the shared group flushes instead of paying private ones.
class StagedMaxPool final : public StagedCompareOp {
 public:
  StagedMaxPool(const SecureTensor& x, int kernel, int stride, int pad,
                crypto::OtMode mode);
  void begin(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] crypto::CompareWait waiting() const override;
  void step(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor take(crypto::TwoPartyContext& ctx) override;

 private:
  void begin_level(crypto::TwoPartyContext& ctx);
  const SecureTensor& x_;
  int kernel_, stride_, pad_;
  crypto::OtMode mode_;
  std::vector<crypto::Shared> taps_;
  std::size_t elems_ = 0;
  std::vector<crypto::DreluMuxMaterial> mats_;
  std::size_t level_ = 0;
  crypto::Shared level_b_;
  crypto::StagedDreluMux mux_;
  bool done_ = false;
};

// --- Local operators and the argmax terminal -------------------------------

/// 2PC AvgPool: local additions and public scaling (Eq. 15).
[[nodiscard]] SecureTensor secure_avgpool(crypto::TwoPartyContext& ctx, const SecureTensor& x,
                                          int kernel, int stride, int pad = 0);

/// 2PC global average pooling: [N,C,H,W] -> [N,C,1,1].
[[nodiscard]] SecureTensor secure_global_avgpool(crypto::TwoPartyContext& ctx,
                                                 const SecureTensor& x);

/// Residual addition (local, paper Eq. 1).
[[nodiscard]] SecureTensor secure_add(crypto::TwoPartyContext& ctx, const SecureTensor& a,
                                      const SecureTensor& b);

/// Flatten (local reshape).
[[nodiscard]] SecureTensor secure_flatten(const SecureTensor& x);

/// Secure argmax over the class dimension of [N, classes] logits: a
/// comparison-tree tournament that keeps (value, one-hot index) pairs
/// secret-shared throughout; only the winning indices are revealed.
/// Stronger output privacy than revealing logits (the client learns the
/// label, nothing else).  Ties break toward the lowest class index.
[[nodiscard]] std::vector<int> secure_argmax(crypto::TwoPartyContext& ctx,
                                             const SecureTensor& logits,
                                             const SecureConfig& cfg);

}  // namespace pasnet::proto
