#pragma once
// Vectorized ring-kernel layer: the local share-arithmetic hot path.
//
// Every multiplicative 2PC operator ends in *local* uint64 ring arithmetic —
// Beaver recombination, share truncation, im2col + matrix products for the
// convolution-shaped correlations.  Those inner loops dominate online
// latency once rounds and bytes are already optimal (the protocol layer
// coalesces them), so they live here as flat-span kernels with
// runtime-dispatched SIMD backends:
//
//  - scalar: portable C++ loops, always compiled, the reference semantics.
//  - avx2:   x86-64 intrinsics compiled via the GCC/Clang `target("avx2")`
//            function attribute and selected at runtime with
//            __builtin_cpu_supports, so no global -march flag is needed.
//            64-bit lane products are synthesized from 32x32 multiplies.
//  - avx512: 8-lane kernels using the native 64-bit multiply (vpmullq,
//            AVX-512DQ) and masked tails; preferred over avx2 when the CPU
//            has it.
//  - neon:   aarch64 intrinsics for the additive kernels (64x64 multiplies
//            stay scalar on NEON — there is no 64-bit lane multiply).
//
// Build-time gate: configuring with -DPASNET_NATIVE=OFF defines
// PASNET_FORCE_SCALAR and compiles the portable path only.  Runtime gate:
// the PASNET_KERNEL environment variable (scalar|avx2|avx512|neon|auto) or
// set_backend() forces a backend, which is how CI proves the vectorized
// and scalar builds produce bit-identical logits.
//
// Bit-identity contract: Z_{2^k} arithmetic is the image of native uint64
// (mod 2^64) arithmetic under masking, and wrapping addition is associative
// and commutative — so lazy reduction, re-blocking, and vectorization are
// all transcript-invariant.  Every kernel here returns exactly the bytes
// the naive per-element masked loop returns, for every ring width 8..64;
// tests/test_ring_kernels.cpp sweeps that property.
//
// All kernels accept raw spans; `dst` may alias `a`/`b` element-for-element
// (in-place update), never partially overlap.

#include <cstddef>
#include <cstdint>

namespace pasnet::crypto::kern {

enum class Backend : std::uint8_t { scalar = 0, avx2 = 1, neon = 2, avx512 = 3 };

/// The backend the dispatcher currently resolves to.  First use reads the
/// PASNET_KERNEL environment variable (scalar|avx2|avx512|neon|auto; auto
/// picks the best ISA the CPU supports).
[[nodiscard]] Backend active_backend() noexcept;
[[nodiscard]] const char* backend_name(Backend b) noexcept;

/// Forces a backend (tests/benches compare paths head-to-head).  Returns
/// false — leaving the selection unchanged — when this build or CPU cannot
/// run `b`.  Not thread-safe against concurrently running kernels; flip it
/// only between protocol runs.
bool set_backend(Backend b) noexcept;

// --- element-wise kernels ---------------------------------------------------
// `mask` is RingConfig::mask(): kernels reduce once per element on the way
// out instead of once per intermediate term.

/// dst = (a + b) & mask
void add(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept;
/// dst = (a - b) & mask
void sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept;
/// dst = (a ⊙ b) & mask
void mul(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept;
/// dst = a & mask
void reduce(std::uint64_t* dst, const std::uint64_t* a, std::size_t n,
            std::uint64_t mask) noexcept;
/// dst = (a · c) & mask  (public-scalar multiply)
void scale(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
           std::uint64_t mask) noexcept;
/// dst = (a · c + b) & mask  (fused axpy)
void scale_add(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
               const std::uint64_t* b, std::size_t n, std::uint64_t mask) noexcept;
/// dst = (a + c) & mask  (broadcast-add a ring constant, e.g. a bias lane)
void add_const(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
               std::uint64_t mask) noexcept;
/// dst = (dst - a ⊙ b) & mask  (fused mask-and-accumulate, subtractive)
void mul_sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
             std::uint64_t mask) noexcept;

/// Beaver recombination (paper Eq. 2), fused:
///   dst = (x ⊙ f + e ⊙ y + z) & mask
void beaver_combine(std::uint64_t* dst, const std::uint64_t* x, const std::uint64_t* f,
                    const std::uint64_t* e, const std::uint64_t* y, const std::uint64_t* z,
                    std::size_t n, std::uint64_t mask) noexcept;

/// Square recombination (paper Eq. 3), fused:
///   dst = (z + 2·e ⊙ a [+ e ⊙ e]) & mask   (the e² term is party 0's only)
void square_combine(std::uint64_t* dst, const std::uint64_t* z, const std::uint64_t* e,
                    const std::uint64_t* a, bool add_e2, std::size_t n,
                    std::uint64_t mask) noexcept;

/// SecureML local truncation, party-0 form: two's-complement arithmetic
/// shift of the masked value by `frac` inside a `bits`-wide ring.
///   dst = (sext_bits(a) >> frac) & mask
void trunc(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits, int frac,
           std::uint64_t mask) noexcept;
/// Party-1 form: dst = (-((sext_bits(-a)) >> frac)) & mask.
void trunc_neg(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits, int frac,
               std::uint64_t mask) noexcept;

/// Strided gather: dst[i] = src[i * src_stride]  (stride 1 == memcpy).
/// The pooling/im2col tap loops use this instead of per-element bounds math.
void copy_strided(std::uint64_t* dst, const std::uint64_t* src, std::size_t n,
                  std::size_t src_stride) noexcept;

// --- blocked GEMM + im2col lowering ----------------------------------------

/// out = A · B & mask with A m×k, B k×n, out m×n, all row-major.  Blocked
/// and tiled over k and n; accumulation is lazy (mod 2^64) with one masked
/// pass at the end — bit-identical to the naive masked triple loop.
/// Skinny products (n < 8, the deep conv layers' spatial extent) run as
/// blocked dot products against a transposed B panel on the stack; wider
/// ones as a 4×32 register tile (avx512) or row-axpy updates.
void gemm(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t m,
          std::size_t k, std::size_t n, std::uint64_t mask) noexcept;

/// out += A · B, UNREDUCED (mod 2^64): callers fuse several products into
/// one accumulator and apply reduce() once.  Beaver matrix recombination
/// (Z + X·F + E·Y) is two of these on a Z-seeded accumulator plus one
/// masked pass.
void gemm_acc(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t m,
              std::size_t k, std::size_t n) noexcept;

/// im2col gather for one sample of an NCHW tensor: writes the
/// (c·kernel·kernel) × (oh·ow) patch matrix (row-major) into `cols`,
/// zero-filling padding taps.  A pure data movement, hence share-local.
void im2col(std::uint64_t* cols, const std::uint64_t* data, int c, int h, int w, int sample,
            int kernel, int stride, int pad, int oh, int ow) noexcept;

}  // namespace pasnet::crypto::kern
