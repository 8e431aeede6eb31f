#include <algorithm>
#include <cstdio>

#include "crypto/ring_kernels.hpp"
#include "net/errors.hpp"
#include "offline/offline_generator.hpp"
#include "offline/ot_triple_source.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"
#include "workloads.hpp"

namespace nn = pasnet::nn;

namespace perfbench {

namespace kern = pasnet::crypto::kern;
namespace ir = pasnet::ir;
namespace obs = pasnet::obs;
namespace off = pasnet::offline;
namespace pc = pasnet::crypto;
namespace proto = pasnet::proto;

PlainModel build_plain_model(const nn::ModelDescriptor& md, std::uint64_t weight_seed) {
  PlainModel pm;
  pm.md = md;
  pc::Prng wprng(weight_seed);
  pm.graph = nn::build_graph(pm.md, wprng, &pm.node_of_layer);
  pasnet::testing::warm_up(*pm.graph, md.input_ch, md.input_h, weight_seed + 1);
  return pm;
}

Served set_up(const PlainModel& m, const proto::WorkloadOptions& wopts, PeerThread* peer,
              SetupTimes& times) {
  Served served;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served = Served{};
    const Clock::time_point t0 = Clock::now();
    Served s;
    s.ctx = std::make_unique<pc::TwoPartyContext>();
    s.snet = std::make_unique<proto::SecureNetwork>(m.md, *m.graph, m.node_of_layer, *s.ctx);
    times.compile_ms.push_back(seconds_since(t0) * 1e3);
    s.wl = std::make_unique<proto::Workload>(*s.snet, wopts);
    if (peer != nullptr) {
      const Clock::time_point t1 = Clock::now();
      s.session = connect_session(*peer, s.wl->plan());
      times.connect_ms.push_back(seconds_since(t1) * 1e3);
    }
    times.total_s.push_back(seconds_since(t0));
    served = std::move(s);
  }
  return served;
}

std::vector<nn::Tensor> make_inputs(const nn::ModelDescriptor& md, std::uint64_t seed,
                                    int count) {
  pc::Prng prng(pc::splitmix64(seed ^ 0x1A9B7E5ULL));
  std::vector<nn::Tensor> inputs;
  inputs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    inputs.push_back(nn::Tensor::randn({1, md.input_ch, md.input_h, md.input_w}, prng, 0.5f));
  }
  return inputs;
}

namespace {

/// One op's share-GEMM shape and its replay buffers.
struct GemmShape {
  ir::OpKind kind = ir::OpKind::conv;
  int c = 0, h = 0, w = 0, kernel = 1, stride = 1, pad = 0, oh = 1, ow = 1;
  std::size_t m = 0, k = 0, n = 0, groups = 1;
  std::vector<std::uint64_t> data, cols, weight, out;
};

/// The Beaver recombination of a conv or linear op runs five share
/// products per query: f(F,E), f(A_i,E) and f(F,B_i) for both parties.
constexpr int kProductsPerOp = 5;

std::vector<GemmShape> gemm_shapes(const ir::SecureProgram& program) {
  std::vector<GemmShape> shapes;
  pc::Prng prng(0x6E3A);
  const auto fill = [&](std::vector<std::uint64_t>& v, std::size_t n) {
    v.resize(n);
    for (auto& x : v) x = prng.next_u64();
  };
  for (const ir::Op& op : program.ops) {
    GemmShape s;
    s.kind = op.kind;
    if (op.kind == ir::OpKind::conv || op.kind == ir::OpKind::depthwise_conv) {
      s.c = op.in_ch;
      s.h = op.in_h;
      s.w = op.in_w;
      s.kernel = op.kernel;
      s.stride = op.stride;
      s.pad = op.pad;
      s.oh = op.out_h;
      s.ow = op.out_w;
      const std::size_t k2 = static_cast<std::size_t>(op.kernel) * op.kernel;
      const std::size_t spatial = static_cast<std::size_t>(op.out_h) * op.out_w;
      const bool depthwise = op.kind == ir::OpKind::depthwise_conv;
      s.m = depthwise ? 1 : static_cast<std::size_t>(op.out_ch);
      s.k = depthwise ? k2 : static_cast<std::size_t>(op.in_ch) * k2;
      s.n = spatial;
      s.groups = depthwise ? static_cast<std::size_t>(op.in_ch) : 1;
      fill(s.data, static_cast<std::size_t>(op.input_elems()));
      s.cols.resize(static_cast<std::size_t>(op.in_ch) * k2 * spatial);
      fill(s.weight, s.groups * s.m * s.k);
      s.out.assign(s.groups * s.m * s.n, 0);
    } else if (op.kind == ir::OpKind::linear) {
      s.m = static_cast<std::size_t>(op.out_features);
      s.k = static_cast<std::size_t>(op.in_features > 0 ? op.in_features : op.input_elems());
      s.n = 1;
      fill(s.data, s.k);
      fill(s.weight, s.m * s.k);
      s.out.assign(s.m, 0);
    } else {
      continue;
    }
    shapes.push_back(std::move(s));
  }
  return shapes;
}

void replay_one_query(std::vector<GemmShape>& shapes) {
  for (GemmShape& s : shapes) {
    for (int p = 0; p < kProductsPerOp; ++p) {
      if (s.kind == ir::OpKind::linear) {
        kern::gemm_acc(s.out.data(), s.weight.data(), s.data.data(), s.m, s.k, 1);
        continue;
      }
      kern::im2col(s.cols.data(), s.data.data(), s.c, s.h, s.w, 0, s.kernel, s.stride, s.pad,
                   s.oh, s.ow);
      for (std::size_t g = 0; g < s.groups; ++g) {
        kern::gemm_acc(s.out.data() + g * s.m * s.n, s.weight.data() + g * s.m * s.k,
                       s.cols.data() + g * s.k * s.n, s.m, s.k, s.n);
      }
    }
  }
}

}  // namespace

GemmReplay replay_gemms(const ir::SecureProgram& program, double budget_s) {
  std::vector<GemmShape> shapes = gemm_shapes(program);
  double macs_per_query = 0.0;
  for (const GemmShape& s : shapes) {
    macs_per_query += kProductsPerOp * static_cast<double>(s.groups * s.m * s.k * s.n);
  }
  GemmReplay r;
  if (shapes.empty()) return r;
  replay_one_query(shapes);  // touch every buffer once before timing
  const Clock::time_point t0 = Clock::now();
  int reps = 0;
  double elapsed = 0.0;
  do {
    replay_one_query(shapes);
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < budget_s || reps < 3);
  r.ms_per_query = elapsed * 1e3 / reps;
  r.gmacs = macs_per_query * reps / elapsed / 1e9;
  return r;
}

DealerCost time_dealer(const off::PreprocessingPlan& plan, double budget_s) {
  // Generated in small stores so memory stays bounded however fast the
  // dealer is.
  constexpr std::size_t kChunk = 4;
  const off::OfflineGenerator gen(1);
  const auto seed = [](std::size_t q) { return proto::SecureNetwork::query_dealer_seed(q); };
  double seconds = 0.0;
  std::uint64_t queries = 0, bytes = 0;
  do {
    off::GenerationReport rep;
    (void)gen.generate(plan, kChunk, seed, &rep);
    seconds += rep.seconds;
    queries += rep.queries;
    bytes += rep.store_bytes;
  } while (seconds < budget_s || queries < 2 * kChunk);
  DealerCost d;
  d.ms_per_query = seconds * 1e3 / static_cast<double>(queries);
  d.material_mib_per_query = static_cast<double>(bytes) / queries / (1024.0 * 1024.0);
  return d;
}

void report_plan_triples(Outcome& out, const off::PreprocessingPlan& plan) {
  off::LayerTripleSummary sum;
  for (const off::LayerTripleSummary& l : plan.layer_summaries()) {
    sum.elem_triples += l.elem_triples;
    sum.square_pairs += l.square_pairs;
    sum.matmul_triple_elems += l.matmul_triple_elems;
    sum.bilinear_triple_elems += l.bilinear_triple_elems;
    sum.bit_triples += l.bit_triples;
  }
  out.metrics["triples.matmul_elems_per_query"] = static_cast<double>(sum.matmul_triple_elems);
  out.metrics["triples.bilinear_elems_per_query"] = static_cast<double>(sum.bilinear_triple_elems);
  out.metrics["triples.square_pairs_per_query"] = static_cast<double>(sum.square_pairs);
  out.metrics["triples.bit_per_query"] = static_cast<double>(sum.bit_triples);
  out.metrics["triples.elem_per_query"] = static_cast<double>(sum.elem_triples);
}

void report_trace_counters(Outcome& out, const obs::CounterSnapshot& c, std::uint64_t queries) {
  const double q = static_cast<double>(std::max<std::uint64_t>(queries, 1));
  const auto per_query = [&](obs::Counter k) { return static_cast<double>(c[k]) / q; };
  out.metrics["chan.messages_per_query"] = per_query(obs::Counter::messages);
  out.metrics["chan.recv_wait_ms_per_query"] = per_query(obs::Counter::recv_wait_us) / 1e3;
  out.metrics["chan.send_wait_ms_per_query"] = per_query(obs::Counter::send_wait_us) / 1e3;
  out.metrics["ir.open_flushes_per_query"] = per_query(obs::Counter::open_flushes);
  out.metrics["ir.openings_per_query"] = per_query(obs::Counter::openings);
  out.metrics["compare.and_levels_per_query"] = per_query(obs::Counter::and_levels);
  out.metrics["ot.batches_per_query"] = per_query(obs::Counter::ot_batches);
  out.metrics["ot.messages_per_query"] = per_query(obs::Counter::ot_messages);
}

void zero_per_layer(Outcome& out) {
  for (const MetricSpec& s : per_layer_metrics()) out.metrics[s.name] = 0.0;
}

double probe_resnet_proxy_ot_ext() {
  const PlainModel m = build_plain_model(
      pasnet::testing::proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool), 0x9A0BE);
  pc::TwoPartyContext compile_ctx;
  proto::SecureNetwork snet(m.md, *m.graph, m.node_of_layer, compile_ctx);
  const off::PreprocessingPlan plan = proto::Workload(snet).plan();
  PeerThread peer;
  TcpSession s = connect_session(peer, plan);
  off::QueryBundle bundle[2];
  const auto generate = [&](int party) {
    pc::TwoPartyContext ctx(plan.ring, proto::SecureNetwork::query_context_seed(0), party,
                            *s.chan[party]);
    off::generate_bundles_ot_ext(plan, ctx, {proto::SecureNetwork::query_dealer_seed(0)},
                                 &bundle[party]);
  };
  std::string why[2];
  const auto attempt = [&](int party) {
    try {
      generate(party);
    } catch (const net::FrameError& e) {
      why[party] = std::string("FrameError: ") + e.what();
    } catch (const net::NetError& e) {
      why[party] = std::string("NetError: ") + e.what();
    } catch (const std::exception& e) {
      why[party] = e.what();
    }
    if (!why[party].empty()) s.chan[party]->close();
  };
  const Clock::time_point t0 = Clock::now();
  peer.post([&] { attempt(1); });
  attempt(0);
  peer.wait();
  const double secs = seconds_since(t0);
  for (int p = 0; p < 2; ++p) {
    std::printf("# probe ot_ext resnet18-relu-proxy bundle over tcp, party %d: %s (%.2f s)\n", p,
                why[p].empty() ? "ok" : why[p].c_str(), secs);
  }
  return why[0].empty() && why[1].empty() ? 1.0 : 0.0;
}

}  // namespace perfbench
