// poly_batch: in-process proto::Workload serving of the private_inference
// model shape — ResNet-18 backbone at width 1/8 on 8×8 inputs with every
// activation x²act and every pool avgpool — with the fused dealer at rtt
// 0.  One request is run() on 16 queries at K=4 lanes × W=4 worker pairs.
// No comparisons run, so OT, compare and sockets do nothing here.

#include <cstdio>

#include "checks.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace obs = pasnet::obs;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

namespace {

constexpr int kLanes = 4;
constexpr int kQueriesPerRequest = 16;
constexpr int kInputPool = 64;
constexpr std::uint64_t kWeightSeed = 0x9017;

nn::ModelDescriptor poly_model() {
  nn::BackboneOptions o;
  o.input_size = 8;
  o.num_classes = 4;
  o.width_mult = 0.125f;
  const nn::ModelDescriptor md = nn::make_resnet(18, o);
  return nn::apply_choices(md,
                           nn::uniform_choices(md, nn::ActKind::x2act, nn::PoolKind::avgpool));
}

struct Expect {
  std::uint64_t chunk_rounds = 0;
  std::uint64_t chunk_bytes = 0;
};

/// Checks one request: every query's logits against the plaintext graph,
/// every chunk's rounds and bytes against the analytic model.
std::string check_request(const proto::WorkloadResult& res,
                          const std::vector<proto::ChunkStats>& chunks,
                          const std::vector<const nn::Tensor*>& want, const Expect& e) {
  if (res.logits.size() != want.size()) return "wrong number of logits";
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::string why = check_close(res.logits[i], *want[i], kLogitTolerance); !why.empty()) {
      return "query " + std::to_string(i) + ": " + why;
    }
  }
  if (chunks.size() != static_cast<std::size_t>(kQueriesPerRequest / kLanes)) {
    return "wrong number of chunks";
  }
  for (const proto::ChunkStats& c : chunks) {
    if (std::string why = check_counts("chunk", c.totals.rounds, c.totals.comm_bytes,
                                       e.chunk_rounds, e.chunk_bytes);
        !why.empty()) {
      return why;
    }
  }
  return "";
}

}  // namespace

Outcome run_poly_batch(const Options& opts) {
  Outcome out;
  const PlainModel m = build_plain_model(poly_model(), kWeightSeed);
  const std::vector<nn::Tensor> pool = make_inputs(m.md, opts.seed, kInputPool);
  std::vector<nn::Tensor> plain;
  plain.reserve(pool.size());
  for (const nn::Tensor& x : pool) plain.push_back(m.graph->forward(x, false));

  SetupTimes setup;
  Served served = set_up(
      m, proto::WorkloadOptions{proto::WorkloadKind::logits, kLanes, kPolyWorkers}, nullptr,
      setup);
  proto::Workload& wl = *served.wl;

  const perf::LatencyModel model(perf::HardwareConfig::zcu104(),
                                 perf::NetworkConfig::lan_1gbps());
  const pc::RingConfig rc = served.snet->ring();
  const perf::ProgramCost cost =
      perf::profile_program(model, wl.program(), rc.bits, rc.wire_bits, kLanes);
  const Expect expect{static_cast<std::uint64_t>(cost.total.rounds), cost.wire_bytes};

  obs::Tracer tracer(true);
  std::size_t next_input = 0;
  // Runs one request; returns its wall time in ms, or a negative value
  // when it failed (the reason is recorded in `out`).
  const auto request = [&](bool counted, bool traced) -> double {
    std::vector<nn::Tensor> inputs;
    std::vector<const nn::Tensor*> want;
    for (int i = 0; i < kQueriesPerRequest; ++i) {
      const std::size_t idx = next_input++ % pool.size();
      inputs.push_back(pool[idx]);
      want.push_back(&plain[idx]);
    }
    std::string why;
    double ms = -1.0;
    wl.set_tracer(traced ? &tracer : nullptr);
    try {
      const Clock::time_point t0 = Clock::now();
      const proto::WorkloadResult res = wl.run(inputs);
      ms = seconds_since(t0) * 1e3;
      why = check_request(res, wl.chunk_stats(), want, expect);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    if (counted) {
      out.request(why);
    } else if (!why.empty()) {
      out.fail("warm-up: " + why);
    }
    return why.empty() ? ms : -1.0;
  };
  const auto serve = [&](bool traced) { return request(true, traced); };

  const double first_ms = request(false, false);
  for (const Clock::time_point t0 = Clock::now(); seconds_since(t0) < kWarmupSeconds;) {
    (void)request(false, false);
  }

  if (!opts.trace) {
    LatencyLog log;
    timed_window(opts.seconds, kQueriesPerRequest, serve, log);
    report_timing(out, log, median(setup.total_s));
    out.metrics["rounds_per_query"] = static_cast<double>(expect.chunk_rounds) / kLanes;
    out.metrics["bytes_per_query"] = static_cast<double>(expect.chunk_bytes) / kLanes;
    return out;
  }

  // --- traced run: per-layer attribution.
  zero_per_layer(out);
  out.metrics["workload.first_request_ms"] = first_ms;
  out.metrics["compile.ms"] = median(setup.compile_ms);
  LatencyLog plain_log, traced_log;
  timed_window(opts.seconds * 0.6, kQueriesPerRequest, serve, plain_log, &traced_log);
  wl.set_tracer(nullptr);
  out.metrics["obs.trace_overhead_frac"] = traced_log.mean_ms() / plain_log.mean_ms() - 1.0;
  const obs::Histogram chunks = tracer.histogram(obs::Sample::chunk_us);
  out.metrics["workload.parallel_eff"] =
      static_cast<double>(chunks.sum()) / 1e6 / (kPolyWorkers * traced_log.busy_s);
  report_trace_counters(out, tracer.snapshot(), traced_log.queries);

  // Triple counts: the plan's exact figures, witnessed by the last run's
  // source counters.
  report_plan_triples(out, wl.plan());
  const proto::InferenceStats& st = wl.stats();
  const double q = kQueriesPerRequest;
  if (st.matmul_triple_elems / q != out.metrics["triples.matmul_elems_per_query"] ||
      st.bilinear_triple_elems / q != out.metrics["triples.bilinear_elems_per_query"] ||
      st.square_pairs / q != out.metrics["triples.square_pairs_per_query"] ||
      st.bit_triples / q != out.metrics["triples.bit_per_query"] ||
      st.elem_triples / q != out.metrics["triples.elem_per_query"]) {
    out.fail("triple counters disagree with the preprocessing plan");
  }
  // Every lane opens the weight-shaped E = W − B values itself, so the
  // per-query figure is the network's per-query constant.  (The chunk
  // totals of InferenceStats book it once per K-lane chunk.)
  out.metrics["chan.weight_open_KB_per_query"] = served.snet->weight_open_bytes() / 1024.0;

  const GemmReplay g = replay_gemms(wl.program(), opts.seconds * 0.1);
  out.metrics["kern.gemm_ms_per_query"] = g.ms_per_query;
  out.metrics["kern.gemm_gmacs"] = g.gmacs;
  const DealerCost d = time_dealer(wl.plan(), opts.seconds * 0.1);
  out.metrics["dealer.ms_per_query"] = d.ms_per_query;
  out.metrics["dealer.material_MB_per_query"] = d.material_mib_per_query;
  if (out.metrics["ot.batches_per_query"] != 0.0) out.fail("poly_batch ran oblivious transfers");
  out.metrics["ot_ext.resnet_proxy_ok"] = probe_resnet_proxy_ot_ext();
  return out;
}

}  // namespace perfbench
