#pragma once
// Two-party execution context and the online multiplicative protocols.
//
// A TwoPartyContext bundles the ring, the duplex channel endpoint(s),
// per-party local randomness, and the trusted dealer.  The protocol
// functions below implement the paper's §II-B equations verbatim,
// exchanging masked values over the channels so that traffic statistics
// match a real deployment message-for-message.
//
// In-process context: both semi-honest servers run on the caller's thread
// in protocol order over an in-process channel pair whose recv throws on
// an empty inbox.  Bit-for-bit deterministic.  Concurrency comes from
// outside the context: a Workload spreads chunks over W worker threads,
// each with its own context, and a remote context (below) runs each party
// in its own process over a real transport.
//
// Round staging: every exchange — a joint ring opening, a joint XOR-share
// opening, a (1,4)-OT batch — is staged on the context's RoundBuffer and
// waits there until a flush() runs its phase for everything pending.  The
// IR executor flushes once per phase of a round group, so a
// multiplication's E and F openings — and the openings of every op in the
// group — share one round.  Staging never reorders dealer or PRNG draws,
// so how ops are grouped changes the round count, never a share.
//
// Remote (two-process) deployment: a context constructed with a local
// party id and a single channel endpoint (src/net's TransportChannel over
// TCP) drives ONE party; the peer party runs the same program in another
// process.  exchange runs only the local party's half, joint openings
// combine the local share with the received peer share, and the per-party
// PRNG and dealer streams keep advancing identically in both processes
// (they are seeded from the shared context seed), which is what keeps a
// two-process run's transcript and logits bit-identical to the in-process
// context.  Genuinely secret values — the DH-OT receiver's blinding
// exponents and sender ephemerals, the OT-extension base secrets, and the
// OT-extension triple-generation half streams — do NOT come from those
// shared streams: they are drawn from role_prng(), which in a remote
// process is a private entropy-seeded stream the peer never sees (in an
// in-process context it aliases the shared ot_prng streams, keeping the
// historical transcripts).  Peer-share slots of local `Shared` values are
// garbage in a remote process; protocol code never mixes shares across
// parties outside channel exchanges, so they are never read.
//
// Honest scope of the remote mode: the share-splitting streams prng(0)/
// prng(1) and the canonical client input PRG are STILL derived from the
// shared context seed in remote contexts — both endpoints can recompute
// them, which is precisely what keeps the two processes' transcripts
// aligned without extra traffic.  A peer that logs openings can therefore
// unmask intermediate sharings, so a remote run is a transcript-faithful
// simulation of the deployment, NOT yet a confidential 2PC execution
// between mutually distrusting endpoints — even under --triples=ot-ext,
// which closes the correlated-randomness (triple) side of that gap but
// not the share-randomness side.  See README "Threat model" and ROADMAP.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "crypto/beaver.hpp"
#include "crypto/channel.hpp"
#include "crypto/prng.hpp"
#include "crypto/ring.hpp"
#include "crypto/secret_share.hpp"
#include "crypto/triple_source.hpp"

namespace pasnet::crypto {

class TwoPartyContext;

/// OT instantiation selector (crypto/ot.hpp implements both):
///  * dh_masked  — Bellare–Micali-style OT over Z_{2^61-1}: a real
///    (toy-strength) cryptographic instantiation that works across two
///    mutually distrusting processes.
///  * correlated — an ideal-functionality simulation with the DH mode's
///    exact transcript shape and byte counts; choices cross the wire in
///    the clear, so it is only meaningful when one process plays both
///    parties (or in tests that opt in explicitly).
enum class OtMode { dh_masked, correlated };

/// Number of OT table entries (2-bit parts -> 1-of-4).
inline constexpr int kOtFanIn = 4;

/// Thrown when an ideal-functionality simulation path (OtMode::correlated)
/// is requested in a remote two-process context without the explicit
/// test-only escape hatch: the simulation provides no obliviousness, so
/// running it between real endpoints would silently void the threat model.
class IdealOtError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Security-relevant knobs of a remote (two-process) context.  The OT mode
/// the protocols will run with must be declared up front so the context can
/// refuse ideal-functionality simulation between real endpoints at
/// construction time (`allow_ideal_ot` is the test-only escape hatch).
struct RemoteContextOptions {
  OtMode ot_mode = OtMode::dh_masked;
  bool allow_ideal_ot = false;
};

/// XOR-shared bit vector (one byte per bit in memory; packed on the wire).
struct BitShared {
  std::vector<std::uint8_t> b0;
  std::vector<std::uint8_t> b1;

  [[nodiscard]] std::size_t size() const noexcept { return b0.size(); }
};

/// The exchange phases a RoundBuffer flush runs, in flush priority order,
/// and what a staged comparison waits on next: a (1,4)-OT leaf dance, a
/// joint XOR-share opening (one AND-tree level), a joint ring opening —
/// or nothing (done).
enum class RoundPhase : std::uint8_t { ot, bits, opens, done };

/// Per-context staging area for every exchange of a round group.  Stages
/// wait, in staging order, until flush() runs ONE phase for all of them.
/// Driven from the context's thread.
///
/// Ring openings stage straight into one slab: a `Shared` whose two
/// shares hold every pending opening back to back, written at stage time
/// (x − mask for a Beaver round's E/F, x itself for the terminal reveal).
/// The flush opens the slab in one exchange and scatters the public words
/// to the outputs.  In process the two share vectors themselves travel
/// through the channel pair (no word is copied in transit), the opened
/// value is summed into the buffer party 0 received, and the two received
/// buffers become the next flush's slab; a remote endpoint serialises its
/// own share from the slab and adds the peer's into it.  Either way the
/// slab keeps its capacity, so once a chunk's largest round group has
/// flushed, staging and flushing allocate nothing but the outputs.  This
/// is the only ring-opening path: the one-shot open() stages and flushes.
class RoundBuffer {
 public:
  explicit RoundBuffer(TwoPartyContext& ctx) : ctx_(ctx) {}
  RoundBuffer(const RoundBuffer&) = delete;
  RoundBuffer& operator=(const RoundBuffer&) = delete;

  /// Stages one batched (1,4)-OT (crypto/ot.hpp); the flush writes the
  /// receiver's per-instance outputs to *out.
  void stage_ot(int sender, std::vector<std::array<std::uint8_t, kOtFanIn>> tables,
                std::vector<std::uint8_t> choices, std::vector<std::uint8_t>* out,
                OtMode mode) {
    ots_.push_back(PendingOt{sender, mode, std::move(tables), std::move(choices), out});
  }
  /// Stages x for a joint XOR opening; the public bits land in *out.
  void stage_bits(BitShared x, std::vector<std::uint8_t>* out) {
    bits_.push_back(PendingBits{std::move(x), out});
  }
  /// Stages x − mask for a joint ring opening (a Beaver round's masked
  /// operand), written straight into the slab; the public value lands in
  /// *out.  Throws std::invalid_argument, staging nothing, on a size
  /// mismatch.
  void stage_open(const Shared& x, const Shared& mask, RingVec* out);
  /// Stages x itself for a joint ring opening (the terminal reveal).
  void stage_open(const Shared& x, RingVec* out);

  /// Runs one phase and returns it: every pending OT batch if there is
  /// one (consecutive stages sharing (sender, mode) merge into one
  /// two-message dance, 2 rounds), else every pending bit opening in one
  /// exchange, else every pending ring opening in one exchange.  Returns
  /// done, sending nothing, when nothing is pending.
  RoundPhase flush();

  /// Drops every pending stage without running it (error-path cleanup:
  /// the staged copies are destroyed, the slab's words forgotten and the
  /// output pointers dropped, so an unwound protocol step cannot leave the
  /// buffer pointing into dead stack frames).
  void discard() noexcept {
    ots_.clear();
    bits_.clear();
    opens_.clear();
    slab_used_ = 0;
  }
  [[nodiscard]] bool has_pending() const noexcept {
    return !ots_.empty() || !bits_.empty() || !opens_.empty();
  }

 private:
  void flush_ots();
  void flush_bits();
  void flush_opens();
  /// Claims the next n words of both slab shares; returns their offset.
  std::size_t claim_slab(std::size_t n);

  struct PendingOt {
    int sender;
    OtMode mode;
    std::vector<std::array<std::uint8_t, kOtFanIn>> tables;
    std::vector<std::uint8_t> choices;
    std::vector<std::uint8_t>* out;
  };
  struct PendingBits {
    BitShared x;
    std::vector<std::uint8_t>* out;
  };
  struct PendingOpen {
    std::size_t n;  // words at the next offset of the slab
    RingVec* out;
  };
  TwoPartyContext& ctx_;
  std::vector<PendingOt> ots_;
  std::vector<PendingBits> bits_;
  std::vector<PendingOpen> opens_;
  /// Pending ring openings, back to back in [0, slab_used_).  The vectors
  /// keep the size of the last flush, so a group no larger than the one
  /// before overwrites words in place without zero-filling them first.
  Shared slab_;
  std::size_t slab_used_ = 0;
};

/// Everything the online phase of a 2PC evaluation needs.
class TwoPartyContext {
 public:
  /// `round_delay` simulates wire latency per protocol round (see
  /// ChannelOptions); batched inference inherits it per query, so worker
  /// pairs overlap their modeled network waits.
  explicit TwoPartyContext(RingConfig rc = RingConfig{}, std::uint64_t seed = 42,
                           std::chrono::microseconds round_delay = std::chrono::microseconds{0});
  /// Remote (two-process) context: drives `local_party` only, over the
  /// given channel endpoint (the peer party runs in another process on the
  /// other end).  The channel is borrowed, not owned — a deployment keeps
  /// one connection per party pair and runs a fresh per-query context over
  /// it, mirroring the in-process batch path's fresh per-query contexts.
  /// Both processes must construct with the same ring and seed so their
  /// transcript-shaping PRNG/dealer streams stay aligned; role-secret
  /// draws go through role_prng(), which is private per process.  Throws
  /// IdealOtError when `options` declares OtMode::correlated without the
  /// allow_ideal_ot escape hatch (see RemoteContextOptions).
  TwoPartyContext(RingConfig rc, std::uint64_t seed, int local_party, Channel& channel,
                  RemoteContextOptions options = {});
  TwoPartyContext(const TwoPartyContext&) = delete;
  TwoPartyContext& operator=(const TwoPartyContext&) = delete;

  [[nodiscard]] const RingConfig& ring() const noexcept { return rc_; }
  [[nodiscard]] TripleDealer& dealer() noexcept { return dealer_; }

  /// Where the online protocols pull correlated randomness from.  Defaults
  /// to the context's own dealer (fused baseline); a preprocessing layer
  /// installs a store-backed source instead.
  [[nodiscard]] TripleSource& triples() noexcept { return *triple_source_; }
  /// Installs an external triple source (non-owning; must outlive its use).
  /// Pass nullptr to revert to the dealer-backed default.  Not thread-safe
  /// against in-flight protocol steps — set it between queries.
  void set_triple_source(TripleSource* source) noexcept {
    triple_source_ = source != nullptr ? source : &dealer_source_;
    // A traced context traces whatever source is installed on it — this is
    // what keeps per-lane sources (swapped in by the batched executor)
    // feeding the same tracer.
    if (tracer_ != nullptr) triple_source_->set_tracer(tracer_);
  }
  /// The source installed via set_triple_source, or nullptr when the
  /// context serves from its own dealer (the default).  Lets a caller
  /// save/restore the installation around a scoped override — the batched
  /// executor swaps per-lane sources around each op's randomness draws.
  [[nodiscard]] TripleSource* installed_triple_source() const noexcept {
    return triple_source_ == &dealer_source_ ? nullptr : triple_source_;
  }
  [[nodiscard]] Channel& chan(int party) {
    if (remote_chan_ != nullptr) {
      if (party != local_party_) {
        throw std::logic_error("TwoPartyContext::chan: peer channel not addressable in a "
                               "remote (single-party) context");
      }
      return *remote_chan_;
    }
    return party == 0 ? *chan0_ : *chan1_;
  }
  /// The per-party share-randomness streams: every draw here lands in a
  /// secret share (millionaire leaf masks and the like), so the sequence of
  /// draws pins the share split — and with it the ±1-LSB truncation noise —
  /// of everything downstream.  The batched executor overrides these with
  /// per-lane streams (seeded exactly like a fresh per-query context) so
  /// each lane of a single-context chunk replays the draw sequence of its
  /// own independent run.
  [[nodiscard]] Prng& prng(int party) noexcept {
    Prng* const o = party == 0 ? prng_override0_ : prng_override1_;
    if (o != nullptr) return *o;
    return party == 0 ? prng0_ : prng1_;
  }
  /// Installs per-party replacement streams for prng() (non-owning; pass
  /// nullptrs to restore the context's own streams).  Not thread-safe
  /// against in-flight protocol steps — the batched executor swaps lanes
  /// between staging calls on the context's thread.
  void set_prng_override(Prng* p0, Prng* p1) noexcept {
    prng_override0_ = p0;
    prng_override1_ = p1;
  }
  [[nodiscard]] Prng* prng_override(int party) const noexcept {
    return party == 0 ? prng_override0_ : prng_override1_;
  }
  /// Dedicated streams for the DH OT dance (receiver blinding exponents,
  /// sender ephemerals).  Those values are transcript-only — the derived
  /// pads cancel, so shares never depend on them — but the dance draws at
  /// FLUSH time, where merged batches span comparison instances (and,
  /// batched, lanes).  Keeping them off the share streams means round
  /// grouping can never shift a share-affecting draw, which is what lets
  /// per-op, grouped and batched transcripts stay share-identical in
  /// dh_masked mode too.  Seeded from the context seed, so remote
  /// processes agree.
  [[nodiscard]] Prng& ot_prng(int party) noexcept { return party == 0 ? ot_prng0_ : ot_prng1_; }
  /// The stream ROLE-SECRET values are drawn from: DH-OT blinding
  /// exponents / sender ephemerals, OT-extension base secrets, and the
  /// OT-extension triple-generation half-stream seeds — values whose
  /// secrecy against the *peer* is what the protocol's security rests on.
  /// In an in-process context (both parties in one process) this aliases
  /// ot_prng(party), so transcripts are unchanged there; in a
  /// remote process it is a private entropy-seeded stream, and asking for
  /// the PEER's role stream throws — the peer's secrets do not exist in
  /// this process.
  [[nodiscard]] Prng& role_prng(int party) {
    if (local_party_ < 0) return ot_prng(party);
    if (party != local_party_) {
      throw std::logic_error("TwoPartyContext::role_prng: peer role secrets are not "
                             "available in a remote (single-party) context");
    }
    return role_prng_;
  }
  /// Whether the ideal-functionality OT simulation may run on this
  /// context: always in an in-process context, only with the
  /// explicit RemoteContextOptions::allow_ideal_ot hatch in a remote one.
  [[nodiscard]] bool ideal_ot_allowed() const noexcept {
    return local_party_ < 0 || allow_ideal_ot_;
  }
  [[nodiscard]] std::chrono::microseconds round_delay() const noexcept { return round_delay_; }

  /// The party this context drives: -1 when both run in-process, 0 or 1
  /// for a remote two-process context.
  [[nodiscard]] int local_party() const noexcept { return local_party_; }
  /// Whether this context executes `party`'s side of the protocol.  The
  /// protocol implementations gate channel operations and role-specific
  /// compute on this; transcript-shaping PRNG and dealer draws stay
  /// ungated so both processes' shared randomness streams remain aligned,
  /// while role_prng() draws are gated with the compute they feed.
  [[nodiscard]] bool runs(int party) const noexcept {
    return local_party_ < 0 || local_party_ == party;
  }

  /// The context's staging buffer (see RoundBuffer).
  [[nodiscard]] RoundBuffer& round_buffer() noexcept { return round_buffer_; }

  /// One symmetric communication round: both parties send, then both
  /// receive.  In process this runs send0, send1, recv0, recv1 on the
  /// caller's thread; a remote context runs only its own party's send and
  /// recv.  The whole exchange is bracketed as ONE round in the traffic
  /// stats (both directions in flight together).
  void exchange(const std::function<void()>& send0, const std::function<void()>& send1,
                const std::function<void()>& recv0, const std::function<void()>& recv1);

  /// Modeled on-wire bytes per ring element (4 for the paper's 32-bit ring).
  [[nodiscard]] int wire_bytes() const noexcept { return (rc_.wire_bits + 7) / 8; }

  [[nodiscard]] const TrafficStats& stats() const noexcept { return local_chan().stats(); }
  void reset_stats() { local_chan().reset_stats(); }

  /// Attaches a tracer (nullptr detaches): the context records exchange
  /// round spans and the round buffer its flush counters, and the
  /// attachment is forwarded to the metered channel so wire bytes, rounds
  /// and wait time land in the same tracer.  Non-owning; the tracer must
  /// outlive the attachment and is shared with every protocol layer on
  /// this context — obs::Tracer is thread-safe.
  void set_tracer(obs::Tracer* tracer) noexcept {
    tracer_ = tracer;
    local_chan().set_tracer(tracer);
    triple_source_->set_tracer(tracer);
  }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  /// The endpoint this context meters: party 0's for an in-process context
  /// (the pair shares one meter), the borrowed endpoint for a remote
  /// context.
  [[nodiscard]] Channel& local_chan() const noexcept {
    return remote_chan_ != nullptr ? *remote_chan_ : *chan0_;
  }

  RingConfig rc_;
  int local_party_ = -1;
  Channel* remote_chan_ = nullptr;  // borrowed (remote contexts only)
  std::chrono::microseconds round_delay_;
  std::unique_ptr<Channel> chan0_;
  std::unique_ptr<Channel> chan1_;
  TripleDealer dealer_;
  DealerTripleSource dealer_source_;
  TripleSource* triple_source_ = &dealer_source_;
  Prng prng0_;
  Prng prng1_;
  Prng ot_prng0_;
  Prng ot_prng1_;
  Prng role_prng_{0};  // remote contexts only: entropy-seeded, peer-private
  bool allow_ideal_ot_ = false;
  Prng* prng_override0_ = nullptr;  // non-owning; see set_prng_override
  Prng* prng_override1_ = nullptr;
  RoundBuffer round_buffer_;
  obs::Tracer* tracer_ = nullptr;  // non-owning; see set_tracer
};

/// Jointly reconstruct a shared vector: both parties exchange their shares
/// (one parallel round) and locally add.  Returns the public value.  Runs
/// through the round buffer (stage + flush), which must have nothing
/// pending (std::logic_error otherwise).
[[nodiscard]] RingVec open(TwoPartyContext& ctx, const Shared& x);

// --- Staged (two-phase) protocol rounds ------------------------------------
//
// Each *Round splits one multiplicative protocol into stage() — draw the
// correlated randomness and stage the masked openings on the context's
// round buffer — and finish() — recombine once the openings are public.
// The one-shot functions below are stage + flush + finish; the IR executor
// stages several independent rounds and flushes them in one exchange.  Both paths
// share the same arithmetic and the same draw order, which is what makes
// their results bit-identical.

/// Beaver elementwise multiplication (paper Eq. 2), staged.
class MulRound {
 public:
  void stage(TwoPartyContext& ctx, Shared x, Shared y);
  /// Same, with a caller-drawn triple — used by the staged comparison
  /// phases, which draw all of an instance's correlated randomness up
  /// front so the request stream stays program-ordered however the phases
  /// interleave.
  void stage(TwoPartyContext& ctx, Shared x, Shared y, ElemTriple t);
  [[nodiscard]] Shared finish(const RingConfig& rc);

 private:
  ElemTriple t_;
  Shared x_, y_;
  RingVec e_, f_;
};

/// Square via a square pair (paper Eq. 3), staged.
class SquareRound {
 public:
  void stage(TwoPartyContext& ctx, const Shared& x);
  [[nodiscard]] Shared finish(const RingConfig& rc);

 private:
  SquarePair p_;
  RingVec e_;
};

/// Beaver matrix product (m×k)·(k×n), staged.
class MatmulRound {
 public:
  void stage(TwoPartyContext& ctx, Shared x, Shared y, std::size_t m, std::size_t k,
             std::size_t n);
  [[nodiscard]] Shared finish(const RingConfig& rc);

 private:
  MatmulTriple t_;
  Shared x_, y_;
  RingVec e_, f_;
  std::size_t m_ = 0, k_ = 0, n_ = 0;
};

/// Convolution-shaped bilinear product Z = f(X, W), staged.  E = W - B
/// opens in weight space, F = X - A in input space (paper COMM_conv).
class BilinearRound {
 public:
  void stage(TwoPartyContext& ctx, const Shared& x, const Shared& weight,
             const BilinearSpec& spec);
  [[nodiscard]] Shared finish(const RingConfig& rc);

 private:
  BilinearTriple t_;
  BilinearMap map_;
  RingVec e_, f_;
};

/// Elementwise Beaver multiplication JRK = JXK ⊙ JYK (paper Eq. 2).
[[nodiscard]] Shared mul_elem(TwoPartyContext& ctx, const Shared& x, const Shared& y);

/// Elementwise square JRK = JXK ⊙ JXK using a square pair (paper Eq. 3).
[[nodiscard]] Shared square_elem(TwoPartyContext& ctx, const Shared& x);

/// Matrix product JRK = JXK · JYK with X m×k and Y k×n (row-major).
[[nodiscard]] Shared matmul(TwoPartyContext& ctx, const Shared& x, const Shared& y,
                            std::size_t m, std::size_t k, std::size_t n);

/// Fixed-point multiply: Beaver multiplication followed by local truncation
/// so the result returns to f fraction bits.
[[nodiscard]] Shared mul_fixed(TwoPartyContext& ctx, const Shared& x, const Shared& y);

}  // namespace pasnet::crypto
