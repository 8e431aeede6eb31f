// relu_tcp: the deployed two-party path.  Two party threads serve the
// ResNet-18 ReLU/maxpool proxy (width 1/16) over one loopback TCP
// connection through net::PartySession::run_batch at K=1, with fused
// dealer triples and OtMode::dh_masked — the only OT the remote path
// accepts without the test-only allow_ideal_ot.  Comparisons on real
// sockets carry it; its convs are tiny.

#include <cstdio>

#include "checks.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ir = pasnet::ir;
namespace obs = pasnet::obs;
namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

namespace {

constexpr int kInputPool = 64;
constexpr std::uint64_t kWeightSeed = 0x4E1;

/// One served query and what its immediate checks found.
struct Record {
  std::size_t q = 0;
  std::size_t input = 0;
  double ms = -1.0;
  bool traced = false;
  nn::Tensor logits;
  std::string why;
};

}  // namespace

Outcome run_relu_tcp(const Options& opts) {
  Outcome out;
  const PlainModel m = build_plain_model(
      pasnet::testing::proxy_resnet(nn::ActKind::relu, nn::PoolKind::maxpool), kWeightSeed);
  const std::vector<nn::Tensor> pool = make_inputs(m.md, opts.seed, kInputPool);
  PeerThread peer;

  SetupTimes setup;
  Served served = set_up(
      m, proto::WorkloadOptions{proto::WorkloadKind::logits, 1, kTcpThreads}, &peer, setup);
  const proto::SecureNetwork& snet = *served.snet;
  const ir::SecureProgram& program = snet.program();

  net::RemoteSessionOptions dh;
  dh.cfg = snet.config();
  dh.cfg.ot_mode = pc::OtMode::dh_masked;

  const perf::LatencyModel model(perf::HardwareConfig::zcu104(),
                                 perf::NetworkConfig::lan_1gbps());
  const perf::ProgramCost cost =
      perf::profile_program(model, program, snet.ring().bits, snet.ring().wire_bits, 1);

  std::vector<Record> records;  // every stream position, in order
  // Serves stream position records.size() on both parties.
  const auto request = [&](const net::RemoteSessionOptions& ropts, std::size_t q,
                           std::size_t input) {
    Record rec;
    rec.q = q;
    rec.input = input;
    TcpSession& s = served.session;
    const std::vector<nn::Tensor> in{pool[input]};
    ir::BatchExecResult res[2];
    pc::TrafficStats st[2];
    try {
      const Clock::time_point t0 = Clock::now();
      run_two_party(
          peer, *s.chan[0], *s.chan[1],
          [&] { res[0] = s.party[0]->run_batch(program, snet.params(), q, &in, 1, ropts, &st[0]); },
          [&] {
            res[1] = s.party[1]->run_batch(program, snet.params(), q, nullptr, 1, ropts, &st[1]);
          });
      rec.ms = seconds_since(t0) * 1e3;
      if (res[0].logits.size() != 1 || res[1].logits.size() != 1) {
        rec.why = "missing logits";
      } else {
        rec.logits = res[0].logits[0];
        rec.why = check_identical(res[1].logits[0], res[0].logits[0]);
      }
      if (rec.why.empty()) rec.why = check_traffic("endpoints", st[1], st[0]);
      if (rec.why.empty()) {
        rec.why = check_counts("query", st[0].rounds, st[0].total_bytes(), cost.total.rounds,
                               cost.wire_bytes);
      }
    } catch (const std::exception& e) {
      rec.why = std::string("threw: ") + e.what();
      // The session is broken; reconnect outside any timing.
      served.session = connect_session(peer, served.wl->plan());
    }
    return rec;
  };
  obs::Tracer tracer(true);
  // Serves the next stream position with the DH-masked OT.
  const auto serve = [&](bool traced) {
    const std::size_t q = records.size();
    served.session.party[0]->set_tracer(traced ? &tracer : nullptr);
    records.push_back(request(dh, q, q % pool.size()));
    records.back().traced = traced;
    served.session.party[0]->set_tracer(nullptr);
    return records.back().why.empty() ? records.back().ms : -1.0;
  };
  // Compares every served position with the in-process reference at the
  // same position and books each timed request (positions >= `first`).
  const auto settle = [&](std::size_t first) {
    std::vector<nn::Tensor> inputs;
    for (const Record& r : records) inputs.push_back(pool[r.input]);
    const std::vector<nn::Tensor> want = served.wl->run(inputs).logits;
    for (Record& r : records) {
      if (r.why.empty()) r.why = check_identical(r.logits, want[r.q]);
      if (r.q >= first) {
        out.request(r.why);
      } else if (!r.why.empty()) {
        out.fail("warm-up: " + r.why);
      }
    }
  };

  (void)serve(false);
  const double first_ms = records.back().ms;
  for (const Clock::time_point t0 = Clock::now(); seconds_since(t0) < kWarmupSeconds;) {
    (void)serve(false);
  }

  if (!opts.trace) {
    LatencyLog log;
    const std::size_t first = records.size();
    timed_window(opts.seconds, 1, serve, log);
    settle(first);
    report_timing(out, log, median(setup.total_s));
    out.metrics["rounds_per_query"] = static_cast<double>(cost.total.rounds);
    out.metrics["bytes_per_query"] = static_cast<double>(cost.wire_bytes);
    return out;
  }

  // --- traced run: per-layer attribution.
  zero_per_layer(out);
  out.metrics["workload.first_request_ms"] = first_ms;
  out.metrics["compile.ms"] = median(setup.compile_ms);
  out.metrics["session.connect_ms"] = median(setup.connect_ms);
  LatencyLog plain_log, traced_log;
  const std::size_t first = records.size();
  timed_window(opts.seconds * 0.5, 1, serve, plain_log, &traced_log);
  const std::size_t window_end = records.size();
  out.metrics["obs.trace_overhead_frac"] = traced_log.mean_ms() / plain_log.mean_ms() - 1.0;
  out.metrics["workload.parallel_eff"] =
      static_cast<double>(tracer.histogram(obs::Sample::chunk_us).sum()) / 1e6 /
      traced_log.busy_s;
  report_trace_counters(out, tracer.snapshot(), traced_log.queries);
  settle(first);

  // The window's untraced queries again, same positions and inputs, with
  // the ideal OT: the latency difference is the DH-masked OT's cost.
  net::RemoteSessionOptions ideal = dh;
  ideal.cfg.ot_mode = pc::OtMode::correlated;
  ideal.allow_ideal_ot = true;
  double dh_ms = 0.0, ideal_ms = 0.0;
  std::size_t pairs = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = first; i < window_end && seconds_since(t0) < opts.seconds * 0.15; ++i) {
    const Record& r = records[i];
    if (r.traced) continue;
    const Record again = request(ideal, r.q, r.input);
    std::string why = again.why;
    if (why.empty() && r.why.empty()) why = check_identical(again.logits, r.logits);
    if (!why.empty()) {
      out.fail("ideal-OT re-run of position " + std::to_string(r.q) + ": " + why);
      continue;
    }
    dh_ms += r.ms;
    ideal_ms += again.ms;
    ++pairs;
  }
  if (pairs == 0) out.fail("no ideal-OT re-run completed");
  out.metrics["ot.dh_ms_per_query"] = pairs ? (dh_ms - ideal_ms) / pairs : 0.0;

  const proto::Workload& wl = *served.wl;
  report_plan_triples(out, wl.plan());
  out.metrics["chan.weight_open_KB_per_query"] = snet.weight_open_bytes() / 1024.0;
  const GemmReplay g = replay_gemms(program, opts.seconds * 0.1);
  out.metrics["kern.gemm_ms_per_query"] = g.ms_per_query;
  out.metrics["kern.gemm_gmacs"] = g.gmacs;
  const DealerCost d = time_dealer(wl.plan(), opts.seconds * 0.1);
  out.metrics["dealer.ms_per_query"] = d.ms_per_query;
  out.metrics["dealer.material_MB_per_query"] = d.material_mib_per_query;
  out.metrics["ot_ext.resnet_proxy_ok"] = probe_resnet_proxy_ot_ext();
  return out;
}

}  // namespace perfbench
