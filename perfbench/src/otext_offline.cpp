// otext_offline: the dealerless offline phase.  Two party threads call
// offline::generate_bundles_ot_ext on remote contexts over one loopback
// TCP connection; one request is 8 bundles of the TinyCNN-ReLU plan, moved
// in a few large frames.  It stresses IKNP extension, bit transposes and
// CR hashing on the same transport relu_tcp drives with many small rounds.
//
// TinyCNN stands in because the ResNet proxies cannot run ot-ext over TCP
// today (their frames exceed the transport's frame cap); the traced run's
// probe keeps that defect visible as ot_ext.resnet_proxy_ok.

#include <cstdio>

#include "checks.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace obs = pasnet::obs;
namespace proto = pasnet::proto;

namespace {

constexpr std::size_t kBundlesPerRequest = 8;
constexpr int kTripleSamples = 16;
constexpr std::uint64_t kWeightSeed = 0x0E7;

}  // namespace

Outcome run_otext_offline(const Options& opts) {
  Outcome out;
  const PlainModel m =
      build_plain_model(pasnet::testing::tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool),
                        kWeightSeed);
  PeerThread peer;

  SetupTimes setup;
  Served served = set_up(m, proto::WorkloadOptions{}, &peer, setup);
  const off::PreprocessingPlan& plan = served.wl->plan();
  const off::OtExtCost cost = off::ot_ext_generation_cost(plan, kBundlesPerRequest);

  pc::Prng pick(pc::splitmix64(opts.seed ^ 0x7819));
  std::size_t next_request = 0;
  // One request on both parties.  `tracer`, when set, is attached to party
  // 0's context.  Returns the wall time in ms and the failure reason.
  const auto request = [&](obs::Tracer* tracer) {
    const std::size_t r = next_request++;
    TcpSession& s = served.session;
    std::vector<std::uint64_t> seeds(kBundlesPerRequest);
    for (std::size_t j = 0; j < seeds.size(); ++j) {
      seeds[j] = proto::SecureNetwork::query_dealer_seed(r * kBundlesPerRequest + j);
    }
    std::vector<off::QueryBundle> bundles[2];
    pc::TrafficStats st[2];
    const auto generate = [&](int party) {
      s.chan[party]->reset_stats();
      pc::TwoPartyContext ctx(plan.ring, proto::SecureNetwork::query_context_seed(r), party,
                              *s.chan[party]);
      if (party == 0 && tracer != nullptr) ctx.set_tracer(tracer);
      bundles[party].resize(kBundlesPerRequest);
      off::generate_bundles_ot_ext(plan, ctx, seeds, bundles[party].data());
      st[party] = s.chan[party]->stats_snapshot();
    };
    std::pair<double, std::string> res{-1.0, ""};
    try {
      const Clock::time_point t0 = Clock::now();
      run_two_party(peer, *s.chan[0], *s.chan[1], [&] { generate(0); }, [&] { generate(1); });
      res.first = seconds_since(t0) * 1e3;
      res.second = check_traffic("ot-ext", st[0], as_traffic(cost));
      if (res.second.empty()) res.second = check_traffic("endpoints", st[1], st[0]);
      if (res.second.empty()) {
        res.second = check_triples(bundles[0], bundles[1], plan.ring, pick, kTripleSamples);
      }
    } catch (const std::exception& e) {
      res.second = std::string("threw: ") + e.what();
    }
    s.chan[0]->set_tracer(nullptr);
    if (!res.second.empty() && res.first < 0) {
      served.session = connect_session(peer, plan);  // the session is broken
    }
    return res;
  };
  obs::Tracer tracer(true);
  const auto serve = [&](bool traced) {
    const auto [ms, why] = request(traced ? &tracer : nullptr);
    out.request(why);
    return why.empty() ? ms : -1.0;
  };

  const auto warm_up = [&] {
    const auto [ms, why] = request(nullptr);
    if (!why.empty()) out.fail("warm-up: " + why);
    return ms;
  };
  const double first_ms = warm_up();
  for (const Clock::time_point t0 = Clock::now(); seconds_since(t0) < kWarmupSeconds;) {
    (void)warm_up();
  }

  if (!opts.trace) {
    LatencyLog log;
    timed_window(opts.seconds, kBundlesPerRequest, serve, log);
    report_timing(out, log, median(setup.total_s));
    out.metrics["rounds_per_query"] =
        static_cast<double>(cost.rounds) / static_cast<double>(kBundlesPerRequest);
    out.metrics["bytes_per_query"] =
        static_cast<double>(cost.total_bytes()) / static_cast<double>(kBundlesPerRequest);
    return out;
  }

  // --- traced run: per-layer attribution.
  zero_per_layer(out);
  out.metrics["workload.first_request_ms"] = first_ms;
  out.metrics["compile.ms"] = median(setup.compile_ms);
  out.metrics["session.connect_ms"] = median(setup.connect_ms);
  LatencyLog plain_log, traced_log;
  timed_window(opts.seconds * 0.6, kBundlesPerRequest, serve, plain_log, &traced_log);
  out.metrics["obs.trace_overhead_frac"] = traced_log.mean_ms() / plain_log.mean_ms() - 1.0;

  const std::size_t calls = traced_log.ms.size();
  const obs::CounterSnapshot c = tracer.snapshot();
  const auto per_call = [&](obs::Counter k) {
    return calls ? static_cast<double>(c[k]) / static_cast<double>(calls) : 0.0;
  };
  out.metrics["ot_ext.ext_cots_per_bundle"] =
      per_call(obs::Counter::ot_ext_cots) / static_cast<double>(kBundlesPerRequest);
  out.metrics["ot_ext.base_ots_per_call"] = per_call(obs::Counter::ot_ext_base);
  out.metrics["ot_ext.recv_wait_ms_per_call"] = per_call(obs::Counter::recv_wait_us) / 1e3;
  if (c[obs::Counter::ot_ext_cots] != cost.ext_cots * calls ||
      c[obs::Counter::ot_ext_base] != cost.base_ots * calls) {
    out.fail("ot-ext trace counters disagree with ot_ext_generation_cost");
  }
  out.metrics["chan.messages_per_query"] =
      per_call(obs::Counter::messages) / static_cast<double>(kBundlesPerRequest);
  out.metrics["chan.recv_wait_ms_per_query"] =
      per_call(obs::Counter::recv_wait_us) / 1e3 / static_cast<double>(kBundlesPerRequest);
  out.metrics["chan.send_wait_ms_per_query"] =
      per_call(obs::Counter::send_wait_us) / 1e3 / static_cast<double>(kBundlesPerRequest);

  report_plan_triples(out, plan);
  const DealerCost d = time_dealer(plan, opts.seconds * 0.1);
  out.metrics["dealer.ms_per_query"] = d.ms_per_query;
  out.metrics["dealer.material_MB_per_query"] = d.material_mib_per_query;
  out.metrics["ot_ext.resnet_proxy_ok"] = probe_resnet_proxy_ot_ext();
  return out;
}

}  // namespace perfbench
