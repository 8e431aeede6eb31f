#include "crypto/ring_kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && !defined(PASNET_FORCE_SCALAR) && \
    (defined(__GNUC__) || defined(__clang__))
#define PASNET_KERN_AVX2 1
#include <immintrin.h>
#endif
#if defined(__aarch64__) && !defined(PASNET_FORCE_SCALAR)
#define PASNET_KERN_NEON 1
#include <arm_neon.h>
#endif

namespace pasnet::crypto::kern {

// ---------------------------------------------------------------------------
// Scalar reference backend.  The loops keep the mask hoisted and reduce once
// per element — the compiler auto-vectorizes most of them even at the
// portable baseline, and they define the semantics the SIMD paths must hit
// bit-for-bit.
// ---------------------------------------------------------------------------

namespace sc {

void add(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] + b[i]) & mask;
}

void sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] - b[i]) & mask;
}

void mul(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] * b[i]) & mask;
}

void reduce(std::uint64_t* dst, const std::uint64_t* a, std::size_t n,
            std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] & mask;
}

void scale(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
           std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] * c) & mask;
}

void scale_add(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
               const std::uint64_t* b, std::size_t n, std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] * c + b[i]) & mask;
}

void add_const(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
               std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] + c) & mask;
}

void mul_sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
             std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (dst[i] - a[i] * b[i]) & mask;
}

void beaver_combine(std::uint64_t* dst, const std::uint64_t* x, const std::uint64_t* f,
                    const std::uint64_t* e, const std::uint64_t* y, const std::uint64_t* z,
                    std::size_t n, std::uint64_t mask) noexcept {
  for (std::size_t i = 0; i < n; ++i) dst[i] = (x[i] * f[i] + e[i] * y[i] + z[i]) & mask;
}

void square_combine(std::uint64_t* dst, const std::uint64_t* z, const std::uint64_t* e,
                    const std::uint64_t* a, bool add_e2, std::size_t n,
                    std::uint64_t mask) noexcept {
  if (add_e2) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = (z[i] + 2 * (e[i] * a[i]) + e[i] * e[i]) & mask;
  } else {
    for (std::size_t i = 0; i < n; ++i) dst[i] = (z[i] + 2 * (e[i] * a[i])) & mask;
  }
}

void trunc(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits, int frac,
           std::uint64_t mask) noexcept {
  // sext_bits(v) >> frac == (int64(v << s)) >> (s + frac) with s = 64-bits:
  // sequential arithmetic shifts compose, so the sign extension and the
  // fraction shift fuse into one.
  const int s = 64 - bits;
  const int sh = s + frac;
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(a[i] << s) >> sh) & mask;
  }
}

void trunc_neg(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits, int frac,
               std::uint64_t mask) noexcept {
  const int s = 64 - bits;
  const int sh = s + frac;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t neg = (0 - a[i]) & mask;
    const std::uint64_t t =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(neg << s) >> sh) & mask;
    dst[i] = (0 - t) & mask;
  }
}

void axpy_acc(std::uint64_t* dst, const std::uint64_t* b, std::uint64_t c,
              std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) dst[j] += c * b[j];
}

/// out[r·n + j] += Σ_p a[r·lda + p] · bt[j·kw + p] for R rows of A against
/// every row of the transposed panel bt — the skinny-GEMM block.
template <int R>
static inline void dot_rows(std::uint64_t* out, const std::uint64_t* a, std::size_t lda,
                            const std::uint64_t* bt, std::size_t kw, std::size_t n) noexcept {
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t* bj = bt + j * kw;
    std::uint64_t s[R] = {};
    for (std::size_t p = 0; p < kw; ++p) {
      for (int r = 0; r < R; ++r) s[r] += a[r * lda + p] * bj[p];
    }
    for (int r = 0; r < R; ++r) out[r * n + j] += s[r];
  }
}

void dot_panel(std::uint64_t* out, const std::uint64_t* a, std::size_t lda,
               const std::uint64_t* bt, std::size_t kw, std::size_t m, std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) dot_rows<4>(out + i * n, a + i * lda, lda, bt, kw, n);
  for (; i < m; ++i) dot_rows<1>(out + i * n, a + i * lda, lda, bt, kw, n);
}

}  // namespace sc

// ---------------------------------------------------------------------------
// AVX2 backend: compiled with the per-function target attribute so no global
// -march flag is needed; selected at runtime only when the CPU reports AVX2.
// 64-bit lane multiplies are synthesized from _mm256_mul_epu32 cross terms
// (lo·lo + ((lo·hi + hi·lo) << 32)), exact mod 2^64.
// ---------------------------------------------------------------------------

#if PASNET_KERN_AVX2

namespace avx2 {

#define PASNET_TGT __attribute__((target("avx2")))

PASNET_TGT static inline __m256i mul64(__m256i a, __m256i b) noexcept {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i ah = _mm256_srli_epi64(a, 32);
  const __m256i bh = _mm256_srli_epi64(b, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, bh), _mm256_mul_epu32(ah, b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

/// Arithmetic shift right by a runtime count c in [0, 63].
PASNET_TGT static inline __m256i asr64(__m256i x, int c) noexcept {
  const __m128i cnt = _mm_cvtsi32_si128(c);
  const __m128i inv = _mm_cvtsi32_si128(64 - c);
  const __m256i logical = _mm256_srl_epi64(x, cnt);
  const __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), x);
  // c == 0: sll by 64 yields zero, leaving the logical shift (== x) intact.
  return _mm256_or_si256(logical, _mm256_sll_epi64(neg, inv));
}

PASNET_TGT void add(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n, std::uint64_t mask) noexcept {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(_mm256_add_epi64(va, vb), vm));
  }
  for (; i < n; ++i) dst[i] = (a[i] + b[i]) & mask;
}

PASNET_TGT void sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n, std::uint64_t mask) noexcept {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(_mm256_sub_epi64(va, vb), vm));
  }
  for (; i < n; ++i) dst[i] = (a[i] - b[i]) & mask;
}

PASNET_TGT void mul(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n, std::uint64_t mask) noexcept {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(mul64(va, vb), vm));
  }
  for (; i < n; ++i) dst[i] = (a[i] * b[i]) & mask;
}

PASNET_TGT void reduce(std::uint64_t* dst, const std::uint64_t* a, std::size_t n,
                       std::uint64_t mask) noexcept {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_and_si256(va, vm));
  }
  for (; i < n; ++i) dst[i] = a[i] & mask;
}

PASNET_TGT void scale(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
                      std::size_t n, std::uint64_t mask) noexcept {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(c));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(mul64(va, vc), vm));
  }
  for (; i < n; ++i) dst[i] = (a[i] * c) & mask;
}

PASNET_TGT void scale_add(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
                          const std::uint64_t* b, std::size_t n, std::uint64_t mask) noexcept {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(c));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(_mm256_add_epi64(mul64(va, vc), vb), vm));
  }
  for (; i < n; ++i) dst[i] = (a[i] * c + b[i]) & mask;
}

PASNET_TGT void add_const(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
                          std::size_t n, std::uint64_t mask) noexcept {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(c));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(_mm256_add_epi64(va, vc), vm));
  }
  for (; i < n; ++i) dst[i] = (a[i] + c) & mask;
}

PASNET_TGT void mul_sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n, std::uint64_t mask) noexcept {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vd = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(_mm256_sub_epi64(vd, mul64(va, vb)), vm));
  }
  for (; i < n; ++i) dst[i] = (dst[i] - a[i] * b[i]) & mask;
}

PASNET_TGT void beaver_combine(std::uint64_t* dst, const std::uint64_t* x,
                               const std::uint64_t* f, const std::uint64_t* e,
                               const std::uint64_t* y, const std::uint64_t* z, std::size_t n,
                               std::uint64_t mask) noexcept {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vx = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vf = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(f + i));
    const __m256i ve = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(e + i));
    const __m256i vy = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i vz = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z + i));
    const __m256i acc =
        _mm256_add_epi64(_mm256_add_epi64(mul64(vx, vf), mul64(ve, vy)), vz);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_and_si256(acc, vm));
  }
  for (; i < n; ++i) dst[i] = (x[i] * f[i] + e[i] * y[i] + z[i]) & mask;
}

PASNET_TGT void square_combine(std::uint64_t* dst, const std::uint64_t* z,
                               const std::uint64_t* e, const std::uint64_t* a, bool add_e2,
                               std::size_t n, std::uint64_t mask) noexcept {
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i vz = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(z + i));
    const __m256i ve = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(e + i));
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i acc = _mm256_add_epi64(vz, _mm256_slli_epi64(mul64(ve, va), 1));
    if (add_e2) acc = _mm256_add_epi64(acc, mul64(ve, ve));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_and_si256(acc, vm));
  }
  for (; i < n; ++i) {
    std::uint64_t v = z[i] + 2 * (e[i] * a[i]);
    if (add_e2) v += e[i] * e[i];
    dst[i] = v & mask;
  }
}

PASNET_TGT void trunc(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits,
                      int frac, std::uint64_t mask) noexcept {
  const int s = 64 - bits;
  const int sh = s + frac;
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m128i vs = _mm_cvtsi32_si128(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i shifted = asr64(_mm256_sll_epi64(va, vs), sh);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_and_si256(shifted, vm));
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<std::uint64_t>(static_cast<std::int64_t>(a[i] << s) >> sh) & mask;
  }
}

PASNET_TGT void trunc_neg(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits,
                          int frac, std::uint64_t mask) noexcept {
  const int s = 64 - bits;
  const int sh = s + frac;
  const __m256i vm = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i zero = _mm256_setzero_si256();
  const __m128i vs = _mm_cvtsi32_si128(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i neg = _mm256_and_si256(_mm256_sub_epi64(zero, va), vm);
    const __m256i t = _mm256_and_si256(asr64(_mm256_sll_epi64(neg, vs), sh), vm);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(_mm256_sub_epi64(zero, t), vm));
  }
  for (; i < n; ++i) {
    const std::uint64_t neg = (0 - a[i]) & mask;
    const std::uint64_t t =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(neg << s) >> sh) & mask;
    dst[i] = (0 - t) & mask;
  }
}

/// dst[j] += c * b[j], unreduced — the GEMM micro-kernel.
PASNET_TGT void axpy_acc(std::uint64_t* dst, const std::uint64_t* b, std::uint64_t c,
                         std::size_t n) noexcept {
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(c));
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i b1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j + 4));
    const __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + j));
    const __m256i d1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + j + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j),
                        _mm256_add_epi64(d0, mul64(vc, b0)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j + 4),
                        _mm256_add_epi64(d1, mul64(vc, b1)));
  }
  for (; j + 4 <= n; j += 4) {
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i vd = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + j));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + j),
                        _mm256_add_epi64(vd, mul64(vc, vb)));
  }
  for (; j < n; ++j) dst[j] += c * b[j];
}

#undef PASNET_TGT

}  // namespace avx2

#endif  // PASNET_KERN_AVX2

// ---------------------------------------------------------------------------
// AVX-512 backend: 8 lanes with the native 64-bit lane multiply (vpmullq,
// AVX-512DQ) and mask-register tails — no scalar remainder loops at all.
// Preferred over avx2 whenever the CPU reports F+DQ.
// ---------------------------------------------------------------------------

#if PASNET_KERN_AVX2
#define PASNET_KERN_AVX512 1

// GCC's shift intrinsics pass _mm512_undefined_epi32() as the masked-off
// source, which -Wmaybe-uninitialized flags through the always_inline header
// (a known false positive); the lanes are fully overwritten (mask = -1).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace av512 {

#define PASNET_TGT __attribute__((target("avx512f,avx512dq")))

PASNET_TGT static inline __mmask8 lane_mask(std::size_t rem) noexcept {
  return rem >= 8 ? static_cast<__mmask8>(0xFF)
                  : static_cast<__mmask8>((1u << rem) - 1);
}

PASNET_TGT void add(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n, std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(k, b + i);
    _mm512_mask_storeu_epi64(dst + i, k, _mm512_and_epi64(_mm512_add_epi64(va, vb), vm));
  }
}

PASNET_TGT void sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n, std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(k, b + i);
    _mm512_mask_storeu_epi64(dst + i, k, _mm512_and_epi64(_mm512_sub_epi64(va, vb), vm));
  }
}

PASNET_TGT void mul(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n, std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(k, b + i);
    _mm512_mask_storeu_epi64(dst + i, k,
                             _mm512_and_epi64(_mm512_mullo_epi64(va, vb), vm));
  }
}

PASNET_TGT void reduce(std::uint64_t* dst, const std::uint64_t* a, std::size_t n,
                       std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    _mm512_mask_storeu_epi64(dst + i, k, _mm512_and_epi64(va, vm));
  }
}

PASNET_TGT void scale(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
                      std::size_t n, std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m512i vc = _mm512_set1_epi64(static_cast<long long>(c));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    _mm512_mask_storeu_epi64(dst + i, k,
                             _mm512_and_epi64(_mm512_mullo_epi64(va, vc), vm));
  }
}

PASNET_TGT void scale_add(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
                          const std::uint64_t* b, std::size_t n, std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m512i vc = _mm512_set1_epi64(static_cast<long long>(c));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(k, b + i);
    _mm512_mask_storeu_epi64(
        dst + i, k,
        _mm512_and_epi64(_mm512_add_epi64(_mm512_mullo_epi64(va, vc), vb), vm));
  }
}

PASNET_TGT void add_const(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
                          std::size_t n, std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m512i vc = _mm512_set1_epi64(static_cast<long long>(c));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    _mm512_mask_storeu_epi64(dst + i, k, _mm512_and_epi64(_mm512_add_epi64(va, vc), vm));
  }
}

PASNET_TGT void mul_sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n, std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi64(k, b + i);
    const __m512i vd = _mm512_maskz_loadu_epi64(k, dst + i);
    _mm512_mask_storeu_epi64(
        dst + i, k,
        _mm512_and_epi64(_mm512_sub_epi64(vd, _mm512_mullo_epi64(va, vb)), vm));
  }
}

PASNET_TGT void beaver_combine(std::uint64_t* dst, const std::uint64_t* x,
                               const std::uint64_t* f, const std::uint64_t* e,
                               const std::uint64_t* y, const std::uint64_t* z, std::size_t n,
                               std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i vx = _mm512_maskz_loadu_epi64(k, x + i);
    const __m512i vf = _mm512_maskz_loadu_epi64(k, f + i);
    const __m512i ve = _mm512_maskz_loadu_epi64(k, e + i);
    const __m512i vy = _mm512_maskz_loadu_epi64(k, y + i);
    const __m512i vz = _mm512_maskz_loadu_epi64(k, z + i);
    const __m512i acc = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_mullo_epi64(vx, vf), _mm512_mullo_epi64(ve, vy)), vz);
    _mm512_mask_storeu_epi64(dst + i, k, _mm512_and_epi64(acc, vm));
  }
}

PASNET_TGT void square_combine(std::uint64_t* dst, const std::uint64_t* z,
                               const std::uint64_t* e, const std::uint64_t* a, bool add_e2,
                               std::size_t n, std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i vz = _mm512_maskz_loadu_epi64(k, z + i);
    const __m512i ve = _mm512_maskz_loadu_epi64(k, e + i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    __m512i acc =
        _mm512_add_epi64(vz, _mm512_slli_epi64(_mm512_mullo_epi64(ve, va), 1));
    if (add_e2) acc = _mm512_add_epi64(acc, _mm512_mullo_epi64(ve, ve));
    _mm512_mask_storeu_epi64(dst + i, k, _mm512_and_epi64(acc, vm));
  }
}

PASNET_TGT void trunc(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits,
                      int frac, std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m128i vs = _mm_cvtsi32_si128(64 - bits);
  const __m128i vsh = _mm_cvtsi32_si128((64 - bits) + frac);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    const __m512i t = _mm512_sra_epi64(_mm512_sll_epi64(va, vs), vsh);
    _mm512_mask_storeu_epi64(dst + i, k, _mm512_and_epi64(t, vm));
  }
}

PASNET_TGT void trunc_neg(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits,
                          int frac, std::uint64_t mask) noexcept {
  const __m512i vm = _mm512_set1_epi64(static_cast<long long>(mask));
  const __m512i zero = _mm512_setzero_si512();
  const __m128i vs = _mm_cvtsi32_si128(64 - bits);
  const __m128i vsh = _mm_cvtsi32_si128((64 - bits) + frac);
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 k = lane_mask(n - i);
    const __m512i va = _mm512_maskz_loadu_epi64(k, a + i);
    const __m512i neg = _mm512_and_epi64(_mm512_sub_epi64(zero, va), vm);
    const __m512i t =
        _mm512_and_epi64(_mm512_sra_epi64(_mm512_sll_epi64(neg, vs), vsh), vm);
    _mm512_mask_storeu_epi64(dst + i, k,
                             _mm512_and_epi64(_mm512_sub_epi64(zero, t), vm));
  }
}

/// Full register-blocked GEMM accumulate (out += A·B mod 2^64).  A 4-row by
/// 32-column output tile lives in sixteen zmm accumulators across the entire
/// k loop: destination traffic drops to one load + one store per tile
/// (instead of one per k-step as in the axpy formulation), each B load is
/// reused by four rows, and sixteen independent multiply chains cover the
/// vpmullq latency — the loop then runs near the multiplier's throughput.
/// Wrapping addition commutes, so every schedule here is bit-identical to
/// the naive triple loop.
PASNET_TGT void gemm_acc(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t m, std::size_t k, std::size_t n) noexcept {
  std::size_t j = 0;
  for (; j + 32 <= n; j += 32) {
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      __m512i c[4][4];
      for (int r = 0; r < 4; ++r) {
        for (int q = 0; q < 4; ++q) {
          c[r][q] = _mm512_loadu_si512(out + (i + r) * n + j + 8 * q);
        }
      }
      const std::uint64_t* bp = b + j;
      for (std::size_t p = 0; p < k; ++p, bp += n) {
        const __m512i b0 = _mm512_loadu_si512(bp);
        const __m512i b1 = _mm512_loadu_si512(bp + 8);
        const __m512i b2 = _mm512_loadu_si512(bp + 16);
        const __m512i b3 = _mm512_loadu_si512(bp + 24);
        for (int r = 0; r < 4; ++r) {
          const __m512i va = _mm512_set1_epi64(static_cast<long long>(a[(i + r) * k + p]));
          c[r][0] = _mm512_add_epi64(c[r][0], _mm512_mullo_epi64(va, b0));
          c[r][1] = _mm512_add_epi64(c[r][1], _mm512_mullo_epi64(va, b1));
          c[r][2] = _mm512_add_epi64(c[r][2], _mm512_mullo_epi64(va, b2));
          c[r][3] = _mm512_add_epi64(c[r][3], _mm512_mullo_epi64(va, b3));
        }
      }
      for (int r = 0; r < 4; ++r) {
        for (int q = 0; q < 4; ++q) {
          _mm512_storeu_si512(out + (i + r) * n + j + 8 * q, c[r][q]);
        }
      }
    }
    for (; i < m; ++i) {
      std::uint64_t* orow = out + i * n + j;
      const std::uint64_t* arow = a + i * k;
      __m512i c0 = _mm512_loadu_si512(orow);
      __m512i c1 = _mm512_loadu_si512(orow + 8);
      __m512i c2 = _mm512_loadu_si512(orow + 16);
      __m512i c3 = _mm512_loadu_si512(orow + 24);
      const std::uint64_t* bp = b + j;
      for (std::size_t p = 0; p < k; ++p, bp += n) {
        const __m512i va = _mm512_set1_epi64(static_cast<long long>(arow[p]));
        c0 = _mm512_add_epi64(c0, _mm512_mullo_epi64(va, _mm512_loadu_si512(bp)));
        c1 = _mm512_add_epi64(c1, _mm512_mullo_epi64(va, _mm512_loadu_si512(bp + 8)));
        c2 = _mm512_add_epi64(c2, _mm512_mullo_epi64(va, _mm512_loadu_si512(bp + 16)));
        c3 = _mm512_add_epi64(c3, _mm512_mullo_epi64(va, _mm512_loadu_si512(bp + 24)));
      }
      _mm512_storeu_si512(orow, c0);
      _mm512_storeu_si512(orow + 8, c1);
      _mm512_storeu_si512(orow + 16, c2);
      _mm512_storeu_si512(orow + 24, c3);
    }
  }
  for (; j < n; j += 8) {
    const __mmask8 km = lane_mask(n - j);
    for (std::size_t i = 0; i < m; ++i) {
      std::uint64_t* orow = out + i * n + j;
      const std::uint64_t* arow = a + i * k;
      __m512i c0 = _mm512_maskz_loadu_epi64(km, orow);
      const std::uint64_t* bp = b + j;
      for (std::size_t p = 0; p < k; ++p, bp += n) {
        const __m512i va = _mm512_set1_epi64(static_cast<long long>(arow[p]));
        c0 = _mm512_add_epi64(c0, _mm512_mullo_epi64(va, _mm512_maskz_loadu_epi64(km, bp)));
      }
      _mm512_mask_storeu_epi64(orow, km, c0);
    }
  }
}

/// Wrapping horizontal sum.  (GCC's _mm512_reduce_add_epi64 adds signed
/// lanes, which UBSan rightly reports as overflow.)
PASNET_TGT static inline std::uint64_t hsum(__m512i v) noexcept {
  const __m256i h =
      _mm256_add_epi64(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64(v, 1));
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(s)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

/// sc::dot_rows with one 8-lane vpmullq accumulator per row.
template <int R>
PASNET_TGT static inline void dot_rows(std::uint64_t* out, const std::uint64_t* a,
                                       std::size_t lda, const std::uint64_t* bt, std::size_t kw,
                                       std::size_t n) noexcept {
  const std::size_t kv = kw & ~std::size_t{7};
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t* bj = bt + j * kw;
    __m512i c[R];
    for (int r = 0; r < R; ++r) c[r] = _mm512_setzero_si512();
    for (std::size_t p = 0; p < kv; p += 8) {
      const __m512i vb = _mm512_loadu_si512(bj + p);
      for (int r = 0; r < R; ++r) {
        c[r] = _mm512_add_epi64(c[r],
                                _mm512_mullo_epi64(_mm512_loadu_si512(a + r * lda + p), vb));
      }
    }
    for (int r = 0; r < R; ++r) {
      std::uint64_t s = hsum(c[r]);
      for (std::size_t p = kv; p < kw; ++p) s += a[r * lda + p] * bj[p];
      out[r * n + j] += s;
    }
  }
}

PASNET_TGT void dot_panel(std::uint64_t* out, const std::uint64_t* a, std::size_t lda,
                          const std::uint64_t* bt, std::size_t kw, std::size_t m,
                          std::size_t n) noexcept {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) dot_rows<4>(out + i * n, a + i * lda, lda, bt, kw, n);
  for (; i < m; ++i) dot_rows<1>(out + i * n, a + i * lda, lda, bt, kw, n);
}

#undef PASNET_TGT

}  // namespace av512

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // PASNET_KERN_AVX512

// ---------------------------------------------------------------------------
// NEON backend (aarch64): additive kernels only — there is no 64-bit lane
// multiply, so multiplicative kernels fall through to the scalar loops
// (which the compiler already auto-vectorizes where profitable).
// ---------------------------------------------------------------------------

#if PASNET_KERN_NEON

namespace neon {

void add(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  const uint64x2_t vm = vdupq_n_u64(mask);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vandq_u64(vaddq_u64(vld1q_u64(a + i), vld1q_u64(b + i)), vm));
  }
  for (; i < n; ++i) dst[i] = (a[i] + b[i]) & mask;
}

void sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  const uint64x2_t vm = vdupq_n_u64(mask);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vandq_u64(vsubq_u64(vld1q_u64(a + i), vld1q_u64(b + i)), vm));
  }
  for (; i < n; ++i) dst[i] = (a[i] - b[i]) & mask;
}

void reduce(std::uint64_t* dst, const std::uint64_t* a, std::size_t n,
            std::uint64_t mask) noexcept {
  const uint64x2_t vm = vdupq_n_u64(mask);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) vst1q_u64(dst + i, vandq_u64(vld1q_u64(a + i), vm));
  for (; i < n; ++i) dst[i] = a[i] & mask;
}

void add_const(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
               std::uint64_t mask) noexcept {
  const uint64x2_t vm = vdupq_n_u64(mask);
  const uint64x2_t vc = vdupq_n_u64(c);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vandq_u64(vaddq_u64(vld1q_u64(a + i), vc), vm));
  }
  for (; i < n; ++i) dst[i] = (a[i] + c) & mask;
}

}  // namespace neon

#endif  // PASNET_KERN_NEON

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

namespace {

bool backend_supported(Backend b) noexcept {
  switch (b) {
    case Backend::scalar:
      return true;
    case Backend::avx2:
#if PASNET_KERN_AVX2
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Backend::avx512:
#if PASNET_KERN_AVX512
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
#else
      return false;
#endif
    case Backend::neon:
#if PASNET_KERN_NEON
      return true;
#else
      return false;
#endif
  }
  return false;
}

Backend best_backend() noexcept {
#if PASNET_KERN_AVX512
  if (backend_supported(Backend::avx512)) return Backend::avx512;
#endif
#if PASNET_KERN_AVX2
  if (__builtin_cpu_supports("avx2")) return Backend::avx2;
#endif
#if PASNET_KERN_NEON
  return Backend::neon;
#else
  return Backend::scalar;
#endif
}

Backend resolve_initial() noexcept {
  if (const char* env = std::getenv("PASNET_KERNEL")) {
    if (std::strcmp(env, "scalar") == 0) return Backend::scalar;
    if (std::strcmp(env, "avx2") == 0 && backend_supported(Backend::avx2)) return Backend::avx2;
    if (std::strcmp(env, "avx512") == 0 && backend_supported(Backend::avx512)) {
      return Backend::avx512;
    }
    if (std::strcmp(env, "neon") == 0 && backend_supported(Backend::neon)) return Backend::neon;
    // "auto", unknown values, or an unsupported request fall through.
  }
  return best_backend();
}

// -1 = unresolved; benign racy lazy init (resolution is idempotent).
std::atomic<int> g_backend{-1};

}  // namespace

Backend active_backend() noexcept {
  int b = g_backend.load(std::memory_order_relaxed);
  if (b < 0) {
    b = static_cast<int>(resolve_initial());
    g_backend.store(b, std::memory_order_relaxed);
  }
  return static_cast<Backend>(b);
}

const char* backend_name(Backend b) noexcept {
  switch (b) {
    case Backend::scalar:
      return "scalar";
    case Backend::avx2:
      return "avx2";
    case Backend::avx512:
      return "avx512";
    case Backend::neon:
      return "neon";
  }
  return "?";
}

bool set_backend(Backend b) noexcept {
  if (!backend_supported(b)) return false;
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
  return true;
}

#if PASNET_KERN_AVX2
#define PASNET_DISPATCH(fn, ...)                        \
  do {                                                  \
    switch (active_backend()) {                         \
      case Backend::avx512:                             \
        av512::fn(__VA_ARGS__);                         \
        return;                                         \
      case Backend::avx2:                               \
        avx2::fn(__VA_ARGS__);                          \
        return;                                         \
      default:                                          \
        sc::fn(__VA_ARGS__);                            \
        return;                                         \
    }                                                   \
  } while (0)
#define PASNET_DISPATCH_ADDITIVE PASNET_DISPATCH
#elif PASNET_KERN_NEON
#define PASNET_DISPATCH(fn, ...) sc::fn(__VA_ARGS__)
#define PASNET_DISPATCH_ADDITIVE(fn, ...)               \
  do {                                                  \
    if (active_backend() == Backend::neon) {            \
      neon::fn(__VA_ARGS__);                            \
      return;                                           \
    }                                                   \
    sc::fn(__VA_ARGS__);                                \
  } while (0)
#else
#define PASNET_DISPATCH(fn, ...) sc::fn(__VA_ARGS__)
#define PASNET_DISPATCH_ADDITIVE PASNET_DISPATCH
#endif

void add(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  PASNET_DISPATCH_ADDITIVE(add, dst, a, b, n, mask);
}

void sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  PASNET_DISPATCH_ADDITIVE(sub, dst, a, b, n, mask);
}

void mul(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
         std::uint64_t mask) noexcept {
  PASNET_DISPATCH(mul, dst, a, b, n, mask);
}

void reduce(std::uint64_t* dst, const std::uint64_t* a, std::size_t n,
            std::uint64_t mask) noexcept {
  PASNET_DISPATCH_ADDITIVE(reduce, dst, a, n, mask);
}

void scale(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
           std::uint64_t mask) noexcept {
  PASNET_DISPATCH(scale, dst, a, c, n, mask);
}

void scale_add(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c,
               const std::uint64_t* b, std::size_t n, std::uint64_t mask) noexcept {
  PASNET_DISPATCH(scale_add, dst, a, c, b, n, mask);
}

void add_const(std::uint64_t* dst, const std::uint64_t* a, std::uint64_t c, std::size_t n,
               std::uint64_t mask) noexcept {
  PASNET_DISPATCH_ADDITIVE(add_const, dst, a, c, n, mask);
}

void mul_sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b, std::size_t n,
             std::uint64_t mask) noexcept {
  PASNET_DISPATCH(mul_sub, dst, a, b, n, mask);
}

void beaver_combine(std::uint64_t* dst, const std::uint64_t* x, const std::uint64_t* f,
                    const std::uint64_t* e, const std::uint64_t* y, const std::uint64_t* z,
                    std::size_t n, std::uint64_t mask) noexcept {
  PASNET_DISPATCH(beaver_combine, dst, x, f, e, y, z, n, mask);
}

void square_combine(std::uint64_t* dst, const std::uint64_t* z, const std::uint64_t* e,
                    const std::uint64_t* a, bool add_e2, std::size_t n,
                    std::uint64_t mask) noexcept {
  PASNET_DISPATCH(square_combine, dst, z, e, a, add_e2, n, mask);
}

void trunc(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits, int frac,
           std::uint64_t mask) noexcept {
  PASNET_DISPATCH(trunc, dst, a, n, bits, frac, mask);
}

void trunc_neg(std::uint64_t* dst, const std::uint64_t* a, std::size_t n, int bits, int frac,
               std::uint64_t mask) noexcept {
  PASNET_DISPATCH(trunc_neg, dst, a, n, bits, frac, mask);
}

void copy_strided(std::uint64_t* dst, const std::uint64_t* src, std::size_t n,
                  std::size_t src_stride) noexcept {
  if (src_stride == 1) {
    if (n > 0) std::memcpy(dst, src, n * sizeof(std::uint64_t));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i * src_stride];
}

namespace {

using AxpyFn = void (*)(std::uint64_t*, const std::uint64_t*, std::uint64_t,
                        std::size_t) noexcept;
using DotPanelFn = void (*)(std::uint64_t*, const std::uint64_t*, std::size_t,
                            const std::uint64_t*, std::size_t, std::size_t,
                            std::size_t) noexcept;

/// Stack budget of the skinny schedule's transposed B panel, in elements
/// (8 KiB): gemm_acc is noexcept and heap-free, and the panel plus four A
/// rows of one k-block stay inside L1.
constexpr std::size_t kSkinnyPanel = 1024;

/// Skinny schedule (n < 8): a per-row axpy would touch under one vector of
/// output per A element.  Instead transpose each k-block of B into a
/// k-contiguous n×kw panel and take every output as a dot product of an A
/// row with a panel row, four A rows at a time (`dot`).
void gemm_acc_skinny(DotPanelFn dot, std::uint64_t* out, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t m, std::size_t k,
                     std::size_t n) noexcept {
  std::uint64_t panel[kSkinnyPanel];
  const std::size_t kc = (kSkinnyPanel / n) & ~std::size_t{7};
  for (std::size_t pc = 0; pc < k; pc += kc) {
    const std::size_t kw = k - pc < kc ? k - pc : kc;
    for (std::size_t p = 0; p < kw; ++p) {
      for (std::size_t j = 0; j < n; ++j) panel[j * kw + p] = b[(pc + p) * n + j];
    }
    dot(out, a + pc, k, panel, kw, m, n);
  }
}

/// Rank-1-update schedule blocked over k and n: for each (n-block, k-block)
/// pair, stream the B panel once across all rows of A so it stays hot in
/// L1/L2.
void gemm_acc_axpy(AxpyFn axpy, std::uint64_t* out, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t m, std::size_t k,
                   std::size_t n) noexcept {
  constexpr std::size_t kNc = 512;   // columns of B per panel (4 KiB rows)
  constexpr std::size_t kKc = 128;   // rows of B per panel
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t jw = n - jc < kNc ? n - jc : kNc;
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t pw = k - pc < kKc ? k - pc : kKc;
      for (std::size_t i = 0; i < m; ++i) {
        std::uint64_t* const orow = out + i * n + jc;
        const std::uint64_t* const arow = a + i * k + pc;
        for (std::size_t p = 0; p < pw; ++p) {
          const std::uint64_t aip = arow[p];
          if (aip == 0) continue;  // padded im2col rows are zero-heavy
          axpy(orow, b + (pc + p) * n + jc, aip, jw);
        }
      }
    }
  }
}

}  // namespace

void gemm_acc(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t m,
              std::size_t k, std::size_t n) noexcept {
  if (m == 0 || k == 0 || n == 0) return;
  // One backend resolution per call.  Wrapping addition is associative and
  // commutative, so every schedule below yields the bytes the naive triple
  // loop yields.
  [[maybe_unused]] const Backend be = active_backend();
  DotPanelFn dot = sc::dot_panel;
  AxpyFn axpy = sc::axpy_acc;
#if PASNET_KERN_AVX512
  if (be == Backend::avx512) {
    // Enough registers to keep a 4x32 output tile resident across the whole
    // k loop, which beats the axpy schedule outright once n fills a vector.
    if (n >= 8) {
      av512::gemm_acc(out, a, b, m, k, n);
      return;
    }
    dot = av512::dot_panel;
  }
#endif
#if PASNET_KERN_AVX2
  // AVX2 lacks a 64-bit multiply, so its skinny products keep the scalar
  // dot kernel, which the compiler already unrolls well.
  if (be == Backend::avx2) axpy = avx2::axpy_acc;
#endif
  if (n < 8) {
    gemm_acc_skinny(dot, out, a, b, m, k, n);
  } else {
    gemm_acc_axpy(axpy, out, a, b, m, k, n);
  }
}

void gemm(std::uint64_t* out, const std::uint64_t* a, const std::uint64_t* b, std::size_t m,
          std::size_t k, std::size_t n, std::uint64_t mask) noexcept {
  if (m * n > 0) std::memset(out, 0, m * n * sizeof(std::uint64_t));
  gemm_acc(out, a, b, m, k, n);
  if (mask != ~0ULL) reduce(out, out, m * n, mask);
}

void im2col(std::uint64_t* cols, const std::uint64_t* data, int c, int h, int w, int sample,
            int kernel, int stride, int pad, int oh, int ow) noexcept {
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  std::size_t row = 0;
  for (int ch = 0; ch < c; ++ch) {
    const std::uint64_t* const plane =
        data + (static_cast<std::size_t>(sample) * c + ch) * h * w;
    for (int kh = 0; kh < kernel; ++kh) {
      for (int kw = 0; kw < kernel; ++kw, ++row) {
        // Valid output-x range [x0, x1): 0 <= x*stride + kw - pad < w.  The
        // inner copy is then a bounds-free strided gather per output row,
        // and only the padding fringe outside [x0, x1) is zero-filled —
        // cheaper than blanket-zeroing the whole patch matrix up front.
        const int off = kw - pad;
        const int x0 = off >= 0 ? 0 : (-off + stride - 1) / stride;
        int x1 = w - off <= 0 ? 0 : (w - off + stride - 1) / stride;
        if (x1 > ow) x1 = ow;
        const bool any_x = x1 > x0;
        std::uint64_t* const crow = cols + row * spatial;
        for (int y = 0; y < oh; ++y) {
          const int in_y = y * stride + kh - pad;
          std::uint64_t* const drow = crow + static_cast<std::size_t>(y) * ow;
          if (in_y < 0 || in_y >= h || !any_x) {
            std::memset(drow, 0, static_cast<std::size_t>(ow) * sizeof(std::uint64_t));
            continue;
          }
          if (x0 > 0) std::memset(drow, 0, static_cast<std::size_t>(x0) * sizeof(std::uint64_t));
          copy_strided(drow + x0,
                       plane + static_cast<std::size_t>(in_y) * w + x0 * stride + off,
                       static_cast<std::size_t>(x1 - x0), static_cast<std::size_t>(stride));
          if (x1 < ow) {
            std::memset(drow + x1, 0,
                        static_cast<std::size_t>(ow - x1) * sizeof(std::uint64_t));
          }
        }
      }
    }
  }
}

#undef PASNET_DISPATCH
#undef PASNET_DISPATCH_ADDITIVE

}  // namespace pasnet::crypto::kern
