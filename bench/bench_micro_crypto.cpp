// Micro-benchmarks of the 2PC protocol stack: throughput of the simulator
// itself (not the modeled FPGA).  Useful for spotting regressions in the
// cryptographic substrate.  Run with --json=PATH to record the numbers in
// google-benchmark's JSON schema (items_per_second == elements/sec,
// bytes_per_second over the 8-byte ring elements produced).

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "crypto/compare.hpp"
#include "crypto/ring_kernels.hpp"
#include "nn/layers.hpp"
#include "support/test_models.hpp"

namespace ir = pasnet::ir;
namespace nn = pasnet::nn;
namespace pc = pasnet::crypto;
namespace kern = pasnet::crypto::kern;

namespace {

void bm_share_reconstruct(benchmark::State& state) {
  pc::RingConfig rc;
  pc::Prng prng(1);
  pc::RingVec x(static_cast<std::size_t>(state.range(0)));
  for (auto& e : x) e = prng.next_u64() & rc.mask();
  for (auto _ : state) {
    const auto sh = pc::share(x, prng, rc);
    benchmark::DoNotOptimize(pc::reconstruct(sh, rc)[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_share_reconstruct)->Arg(1024)->Arg(16384);

void bm_beaver_mul(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(2);
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto x = pc::share_reals(std::vector<double>(len, 1.5), prng, ctx.ring());
  const auto y = pc::share_reals(std::vector<double>(len, -2.0), prng, ctx.ring());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::mul_elem(ctx, x, y).s0[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_beaver_mul)->Arg(1024)->Arg(16384);

void bm_square(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(3);
  const auto x = pc::share_reals(std::vector<double>(static_cast<std::size_t>(state.range(0)), 1.5),
                                 prng, ctx.ring());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::square_elem(ctx, x).s0[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_square)->Arg(16384);

void bm_round_flush(benchmark::State& state) {
  // One masked round group of n words per iteration: four x − mask stages
  // of n/4 words (one per lane of a K = 4 chunk) staged into the round
  // buffer and opened by one flush into fresh outputs, as a Beaver round's
  // E/F would be.  n = 147,712 is the K = 4 group size of the poly_batch
  // serving workload.
  pc::TwoPartyContext ctx;
  const pc::RingConfig& rc = ctx.ring();
  pc::Prng prng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kStages = 4;
  std::vector<pc::Shared> xs, masks;
  for (std::size_t i = 0; i < kStages; ++i) {
    pc::RingVec x(n / kStages), mask(n / kStages);
    for (auto& e : x) e = prng.next_u64() & rc.mask();
    for (auto& e : mask) e = prng.next_u64() & rc.mask();
    xs.push_back(pc::share(x, prng, rc));
    masks.push_back(pc::share(mask, prng, rc));
  }
  pc::RoundBuffer& buf = ctx.round_buffer();
  for (auto _ : state) {
    std::vector<pc::RingVec> out(kStages);
    for (std::size_t i = 0; i < kStages; ++i) buf.stage_open(xs[i], masks[i], &out[i]);
    buf.flush();
    benchmark::DoNotOptimize(out.back().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["words_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_round_flush)->Arg(4096)->Arg(147712);

void bm_drelu_correlated(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(4);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = (i % 2 == 0) ? 1.0 : -1.0;
  const auto x = pc::share_reals(xs, prng, ctx.ring());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::drelu(ctx, x, pc::OtMode::correlated).b0[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_drelu_correlated)->Arg(256)->Arg(4096);

void bm_drelu_dh_masked(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  pc::Prng prng(5);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)), 0.5);
  const auto x = pc::share_reals(xs, prng, ctx.ring());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::drelu(ctx, x, pc::OtMode::dh_masked).b0[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_drelu_dh_masked)->Arg(256);

/// A `channels`-channel 16x16 op of `kind` with same-shaped input and output.
ir::Op square_op(ir::OpKind kind, int channels) {
  ir::Op op;
  op.kind = kind;
  op.in_ch = op.out_ch = channels;
  op.in_h = op.in_w = op.out_h = op.out_w = 16;
  return op;
}

/// One query of a one-op program through the executor: input sharing, the
/// op's staged protocol and the terminal reveal of its output.
void run_single_op_bench(benchmark::State& state, ir::Op op, const nn::Tensor& x) {
  const ir::SecureProgram p = pasnet::testing::single_op_program(std::move(op));
  pc::TwoPartyContext ctx;
  pc::Prng wprng(8);
  const ir::CompiledParams params = ir::share_parameters(p, wprng, ctx.ring());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ir::execute(p, params, ctx, x).logits.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(x.size()));
  // The context meters every iteration, so its total is the bench's bytes.
  state.SetBytesProcessed(static_cast<long long>(ctx.stats().total_bytes()));
}

void bm_single_op_relu(benchmark::State& state) {
  pc::Prng prng(6);
  const nn::Tensor x = nn::Tensor::randn({1, 16, 16, 16}, prng, 1.0f);
  run_single_op_bench(state, square_op(ir::OpKind::relu, 16), x);
}
BENCHMARK(bm_single_op_relu)->Unit(benchmark::kMillisecond);

void bm_single_op_conv(benchmark::State& state) {
  pc::Prng prng(7), wprng(8);
  nn::Conv2d conv(8, 8, 3, 1, 1, wprng);
  const nn::Tensor x = nn::Tensor::randn({1, 8, 16, 16}, prng, 0.5f);
  ir::Op op = square_op(ir::OpKind::conv, 8);
  op.kernel = 3;
  op.pad = 1;
  op.weight = conv.weight().to_doubles();
  run_single_op_bench(state, std::move(op), x);
}
BENCHMARK(bm_single_op_conv)->Unit(benchmark::kMillisecond);

// -- ring-kernel layer (scalar vs SIMD vs GEMM lowering) ---------------------
// Each kernel bench runs twice: Arg(...,0) forces the scalar reference
// backend, Arg(...,1) the best SIMD backend this build/CPU offers (skipped
// on pure-scalar builds).  The conv pair is the headline: the naive 4-deep
// masked loop vs the im2col + blocked-GEMM lowering on the same shapes.

/// Forces the requested backend; restores best-available afterwards.
bool select_backend(benchmark::State& state, bool simd) {
  if (!simd) return kern::set_backend(kern::Backend::scalar);
  if (kern::set_backend(kern::Backend::avx512) || kern::set_backend(kern::Backend::avx2) ||
      kern::set_backend(kern::Backend::neon)) {
    return true;
  }
  state.SkipWithError("no SIMD backend available on this build/CPU");
  return false;
}

void restore_best_backend() {
  if (!kern::set_backend(kern::Backend::avx512) && !kern::set_backend(kern::Backend::avx2) &&
      !kern::set_backend(kern::Backend::neon)) {
    kern::set_backend(kern::Backend::scalar);
  }
}

pc::RingVec random_ring(pc::Prng& prng, std::size_t n, const pc::RingConfig& rc) {
  pc::RingVec v(n);
  for (auto& e : v) e = prng.next_u64() & rc.mask();
  return v;
}

void bm_kern_add(benchmark::State& state) {
  if (!select_backend(state, state.range(1) != 0)) return;
  pc::RingConfig rc;
  pc::Prng prng(11);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const pc::RingVec a = random_ring(prng, n, rc), b = random_ring(prng, n, rc);
  pc::RingVec out(n);
  for (auto _ : state) {
    kern::add(out.data(), a.data(), b.data(), n, rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
  restore_best_backend();
}
BENCHMARK(bm_kern_add)->Args({16384, 0})->Args({16384, 1});

void bm_kern_mul(benchmark::State& state) {
  if (!select_backend(state, state.range(1) != 0)) return;
  pc::RingConfig rc;
  pc::Prng prng(12);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const pc::RingVec a = random_ring(prng, n, rc), b = random_ring(prng, n, rc);
  pc::RingVec out(n);
  for (auto _ : state) {
    kern::mul(out.data(), a.data(), b.data(), n, rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
  restore_best_backend();
}
BENCHMARK(bm_kern_mul)->Args({16384, 0})->Args({16384, 1});

void bm_kern_beaver_combine(benchmark::State& state) {
  if (!select_backend(state, state.range(1) != 0)) return;
  pc::RingConfig rc;
  pc::Prng prng(13);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const pc::RingVec x = random_ring(prng, n, rc), f = random_ring(prng, n, rc);
  const pc::RingVec e = random_ring(prng, n, rc), y = random_ring(prng, n, rc);
  const pc::RingVec z = random_ring(prng, n, rc);
  pc::RingVec out(n);
  for (auto _ : state) {
    kern::beaver_combine(out.data(), x.data(), f.data(), e.data(), y.data(), z.data(), n,
                         rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
  restore_best_backend();
}
BENCHMARK(bm_kern_beaver_combine)->Args({16384, 0})->Args({16384, 1});

void bm_kern_trunc(benchmark::State& state) {
  if (!select_backend(state, state.range(1) != 0)) return;
  pc::RingConfig rc;
  pc::Prng prng(14);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const pc::RingVec a = random_ring(prng, n, rc);
  pc::RingVec out(n);
  for (auto _ : state) {
    kern::trunc(out.data(), a.data(), n, rc.bits, rc.frac_bits, rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
  restore_best_backend();
}
BENCHMARK(bm_kern_trunc)->Args({16384, 0})->Args({16384, 1});

/// Args: {simd, m, k, n}.  The conv-shaped product is
/// (out_ch x c*k^2) . (c*k^2 x oh*ow); `gmacs` counts m*k*n ring
/// multiply-adds per second.
void bm_kern_gemm(benchmark::State& state) {
  if (!select_backend(state, state.range(0) != 0)) return;
  pc::RingConfig rc;
  pc::Prng prng(15);
  const auto m = static_cast<std::size_t>(state.range(1));
  const auto k = static_cast<std::size_t>(state.range(2));
  const auto n = static_cast<std::size_t>(state.range(3));
  const pc::RingVec a = random_ring(prng, m * k, rc), b = random_ring(prng, k * n, rc);
  pc::RingVec out(m * n);
  for (auto _ : state) {
    kern::gemm(out.data(), a.data(), b.data(), m, k, n, rc.mask());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(m * n));
  state.SetBytesProcessed(state.iterations() * static_cast<long long>(m * n) * 8);
  state.counters["gmacs"] = benchmark::Counter(
      1e-9 * static_cast<double>(state.iterations()) * static_cast<double>(m * k * n),
      benchmark::Counter::kIsRate);
  restore_best_backend();
}
// 16x72x256 is a wide early-layer conv; the rest are the poly_batch model's
// deep-layer shapes (n = output spatial extent 1 or 4: the skinny schedule).
BENCHMARK(bm_kern_gemm)
    ->ArgNames({"simd", "m", "k", "n"})
    ->Args({0, 16, 72, 256})
    ->Args({1, 16, 72, 256})
    ->Args({0, 64, 576, 1})
    ->Args({1, 64, 576, 1})
    ->Args({0, 64, 288, 1})
    ->Args({1, 64, 288, 1})
    ->Args({0, 32, 288, 4})
    ->Args({1, 32, 288, 4});

/// The scalar baseline the tentpole is measured against: a transcription of
/// the seed's Conv2d share-product path (triple_source.cpp's per-element
/// bounds-checked im2col_ring gather plus beaver.cpp's scalar row-axpy
/// ring_matmul, fresh vectors per call) before the kernel layer replaced it.
void bm_conv_share_naive(benchmark::State& state) {
  pc::RingConfig rc;
  pc::Prng prng(16);
  const int c = 8, h = 16, w = 16, out_ch = 16, kernel = 3, stride = 1, pad = 1;
  const int oh = nn::conv_out_size(h, kernel, stride, pad);
  const int ow = nn::conv_out_size(w, kernel, stride, pad);
  const pc::RingVec data = random_ring(prng, static_cast<std::size_t>(c) * h * w, rc);
  const pc::RingVec wmat =
      random_ring(prng, static_cast<std::size_t>(out_ch) * c * kernel * kernel, rc);
  const std::size_t k_dim = static_cast<std::size_t>(c) * kernel * kernel;
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  pc::RingVec sink;
  for (auto _ : state) {
    pc::RingVec cols(k_dim * spatial, 0);
    std::size_t row = 0;
    for (int ch = 0; ch < c; ++ch) {
      for (int kh = 0; kh < kernel; ++kh) {
        for (int kw = 0; kw < kernel; ++kw, ++row) {
          std::size_t col = 0;
          for (int y = 0; y < oh; ++y) {
            const int in_y = y * stride + kh - pad;
            for (int x = 0; x < ow; ++x, ++col) {
              const int in_x = x * stride + kw - pad;
              if (in_y >= 0 && in_y < h && in_x >= 0 && in_x < w) {
                cols[row * spatial + col] =
                    data[(static_cast<std::size_t>(ch) * h + in_y) * w + in_x];
              }
            }
          }
        }
      }
    }
    pc::RingVec out(static_cast<std::size_t>(out_ch) * spatial, 0);
    for (std::size_t i = 0; i < static_cast<std::size_t>(out_ch); ++i) {
      for (std::size_t p = 0; p < k_dim; ++p) {
        const std::uint64_t aip = wmat[i * k_dim + p];
        if (aip == 0) continue;
        const std::uint64_t* brow = &cols[p * spatial];
        std::uint64_t* orow = &out[i * spatial];
        for (std::size_t j = 0; j < spatial; ++j) {
          orow[j] += aip * brow[j];  // lazy reduction; masked below
        }
      }
      std::uint64_t* orow = &out[i * spatial];
      for (std::size_t j = 0; j < spatial; ++j) orow[j] &= rc.mask();
    }
    sink = std::move(out);
    benchmark::DoNotOptimize(sink.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(out_ch) * static_cast<long long>(spatial));
  state.SetBytesProcessed(state.iterations() * static_cast<long long>(out_ch) *
                          static_cast<long long>(spatial) * 8);
}
BENCHMARK(bm_conv_share_naive);

/// The kernelized path on the same shapes: im2col + blocked GEMM.  The
/// acceptance target is >=4x the naive baseline's elements/sec with SIMD.
void bm_conv_share_kernel(benchmark::State& state) {
  if (!select_backend(state, state.range(0) != 0)) return;
  pc::RingConfig rc;
  pc::Prng prng(16);  // same seed/shapes as the naive baseline
  const int c = 8, h = 16, w = 16, out_ch = 16, kernel = 3, stride = 1, pad = 1;
  const int oh = nn::conv_out_size(h, kernel, stride, pad);
  const int ow = nn::conv_out_size(w, kernel, stride, pad);
  const pc::RingVec data = random_ring(prng, static_cast<std::size_t>(c) * h * w, rc);
  const pc::RingVec wmat =
      random_ring(prng, static_cast<std::size_t>(out_ch) * c * kernel * kernel, rc);
  const std::size_t k_dim = static_cast<std::size_t>(c) * kernel * kernel;
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  pc::RingVec cols(k_dim * spatial);
  pc::RingVec out(static_cast<std::size_t>(out_ch) * spatial);
  for (auto _ : state) {
    kern::im2col(cols.data(), data.data(), c, h, w, /*sample=*/0, kernel, stride, pad, oh, ow);
    kern::gemm(out.data(), wmat.data(), cols.data(), static_cast<std::size_t>(out_ch), k_dim,
               spatial, rc.mask());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(out.size()));
  state.SetBytesProcessed(state.iterations() * static_cast<long long>(out.size()) * 8);
  restore_best_backend();
}
BENCHMARK(bm_conv_share_kernel)->Arg(0)->Arg(1);

void bm_ot_1of4(benchmark::State& state) {
  pc::TwoPartyContext ctx;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<std::array<std::uint8_t, 4>> tables(n, {1, 2, 3, 4});
  std::vector<std::uint8_t> choices(n, 2);
  const auto mode = state.range(1) == 0 ? pc::OtMode::correlated : pc::OtMode::dh_masked;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc::ot_1of4(ctx, 1, tables, choices, mode)[0]);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["ots_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)), benchmark::Counter::kIsRate);
}
// n = 4096 is relu_tcp's merged batch size (69,632 OTs per query in 17 batches).
BENCHMARK(bm_ot_1of4)->Args({1024, 0})->Args({1024, 1})->Args({4096, 1});

}  // namespace

int main(int argc, char** argv) {
  return pasnet::benchutil::run_benchmarks_with_json_flag(argc, argv);
}
