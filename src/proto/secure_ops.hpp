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
// stage the masked openings on the context's RoundBuffer — and finish() —
// local recombination once the executor has flushed the op's round
// group.  ReLU, MaxPool and the argmax terminal are resumable comparison
// machines the executor advances phase by phase.  Local ops (pooling by
// averaging, add, flatten) are plain functions.

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
/// communication phase on the context's round buffer; waiting() names the
/// phase the op needs flushed; step() consumes the flushed round and
/// stages the next phase.  All instances of one round group share each
/// flush — one (1,4)-OT round per digit batch, one exchange per AND-tree
/// level, one opening per B2A/mux phase — however many instances the group
/// holds.
class StagedCompareOp {
 public:
  virtual ~StagedCompareOp() = default;
  virtual void begin(crypto::TwoPartyContext& ctx) = 0;
  [[nodiscard]] virtual crypto::RoundPhase waiting() const = 0;
  virtual void step(crypto::TwoPartyContext& ctx) = 0;
  /// The op's output; valid once waiting() == done.
  [[nodiscard]] virtual SecureTensor take() = 0;
};

/// Staged 2PC ReLU: one resumable v·DReLU(v) over the whole tensor.
class StagedRelu final : public StagedCompareOp {
 public:
  StagedRelu(const SecureTensor& x, crypto::OtMode mode);
  void begin(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] crypto::RoundPhase waiting() const override;
  void step(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor take() override;

 private:
  const SecureTensor& x_;
  crypto::OtMode mode_;
  crypto::StagedDreluMux core_;
};

/// Resumable max tournament over equal-length taps: each level is one
/// batched secure max over all its pairs, max(a, b) = b + (a-b)·[a >= b],
/// so ties keep the earlier tap; an odd tap carries up unpaired.  Optional
/// payload taps (argmax's class indices) follow their value's selector.
/// All levels' correlated randomness is drawn at begin(), in level order,
/// so a singleton level — one comparison left — rides the shared group
/// flushes instead of paying private ones.
class StagedTournament {
 public:
  /// `payloads` is empty or holds one tap per value tap.
  void begin(crypto::TwoPartyContext& ctx, std::vector<crypto::Shared> taps,
             std::vector<crypto::Shared> payloads, crypto::OtMode mode);
  [[nodiscard]] crypto::RoundPhase waiting() const;
  void step(crypto::TwoPartyContext& ctx);
  /// The winning value and its payload; valid once waiting() == done.
  [[nodiscard]] crypto::Shared& winner() { return taps_[0]; }
  [[nodiscard]] crypto::Shared& payload_winner() { return payloads_[0]; }

 private:
  void begin_level(crypto::TwoPartyContext& ctx);
  std::vector<crypto::Shared> taps_, payloads_;
  crypto::OtMode mode_ = crypto::OtMode::dh_masked;
  std::vector<crypto::DreluMuxMaterial> mats_;
  std::size_t level_ = 0;
  crypto::Shared level_b_, level_pb_;
  crypto::StagedDreluMux mux_;
  bool done_ = true;
};

/// Staged 2PC MaxPool: the k²-tap tournament over the window taps.
class StagedMaxPool final : public StagedCompareOp {
 public:
  StagedMaxPool(const SecureTensor& x, int kernel, int stride, int pad,
                crypto::OtMode mode);
  void begin(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] crypto::RoundPhase waiting() const override;
  void step(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor take() override;

 private:
  const SecureTensor& x_;
  int kernel_, stride_, pad_;
  crypto::OtMode mode_;
  StagedTournament tournament_;
};

/// Staged secure argmax over the class dimension of [N, classes] logits:
/// the tournament over the class columns with each column's index as the
/// payload, so (value, index) pairs stay secret-shared throughout.  The
/// output is the [N, 1] shared winning index; revealing it (the executor's
/// terminal reveal) tells the client the label and nothing else.  Ties
/// break toward the lowest class index.
class StagedArgmax final : public StagedCompareOp {
 public:
  StagedArgmax(const SecureTensor& logits, crypto::OtMode mode);
  void begin(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] crypto::RoundPhase waiting() const override;
  void step(crypto::TwoPartyContext& ctx) override;
  [[nodiscard]] SecureTensor take() override;

 private:
  const SecureTensor& logits_;
  crypto::OtMode mode_;
  StagedTournament tournament_;
};

// --- Local operators --------------------------------------------------------

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

}  // namespace pasnet::proto
