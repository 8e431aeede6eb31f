// Self-tests of the benchmark's own machinery: the metric catalogue is
// well formed, and every output check rejects a corrupted result taken
// from a real request.

#include <cstdio>

#include "checks.hpp"
#include "perf/ir_cost.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"
#include "support/test_models.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace perf = pasnet::perf;
namespace proto = pasnet::proto;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "self-test FAILED: %s\n", what);
}

void catalogue_cases() {
  expect(validate_specs(end_to_end_metrics()).empty(), "end-to-end catalogue is well formed");
  expect(validate_specs(per_layer_metrics()).empty(), "per-layer catalogue is well formed");
  expect(!valid_metric_name("bad name"), "a space is not allowed in a metric name");
  expect(!valid_metric_name("_lead"), "a name must start with a letter or digit");
  expect(!valid_metric_name(std::string(65, 'a')), "a name has at most 64 characters");
  expect(!validate_specs({{"x", ""}}).empty(), "a metric without a unit is refused");
  expect(!validate_specs({{"x", "s"}, {"x", "s"}}).empty(), "a duplicate metric is refused");

  Outcome o;
  o.request("");
  o.request("flipped logit");
  expect(o.attempted == 2 && o.failed == 1 && !o.correct, "a failed check fails its request");
  bool threw = false;
  try {
    (void)result_json(o, end_to_end_metrics());
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "a result missing a catalogued metric is refused");
}

void request_cases() {
  const PlainModel m = build_plain_model(
      pasnet::testing::tiny_cnn(nn::OpKind::relu, nn::OpKind::maxpool), 0x5E1F);
  pc::TwoPartyContext ctx;
  proto::SecureNetwork snet(m.md, *m.graph, m.node_of_layer, ctx);
  proto::Workload wl(snet, proto::WorkloadOptions{proto::WorkloadKind::logits, 2, 1});
  const std::vector<nn::Tensor> inputs = make_inputs(m.md, 7, 2);
  const proto::WorkloadResult res = wl.run(inputs);
  const nn::Tensor want = m.graph->forward(inputs[0], false);
  const nn::Tensor& got = res.logits.at(0);
  expect(check_close(got, want, kLogitTolerance).empty(), "real logits match the plaintext");
  expect(check_identical(got, got).empty(), "logits are identical to themselves");
  nn::Tensor flipped = got;
  flipped[0] = -flipped[0] + 1.0f;
  expect(!check_close(flipped, want, kLogitTolerance).empty(), "a flipped logit is caught");
  expect(!check_identical(flipped, got).empty(), "a flipped logit breaks bit-identity");

  const perf::LatencyModel model(perf::HardwareConfig::zcu104(),
                                 perf::NetworkConfig::lan_1gbps());
  const perf::ProgramCost cost =
      perf::profile_program(model, wl.program(), snet.ring().bits, snet.ring().wire_bits, 2);
  const proto::InferenceStats& st = wl.chunk_stats().at(0).totals;
  expect(check_counts("chunk", st.rounds, st.comm_bytes, cost.total.rounds, cost.wire_bytes)
             .empty(),
         "measured rounds and bytes equal the analytic model");
  expect(!check_counts("chunk", st.rounds + 1, st.comm_bytes, cost.total.rounds,
                       cost.wire_bytes)
              .empty(),
         "a tampered round count is caught");
  expect(!check_counts("chunk", st.rounds, st.comm_bytes - 4, cost.total.rounds,
                       cost.wire_bytes)
              .empty(),
         "a tampered byte count is caught");

  pc::TrafficStats a;
  a.bytes_p0_to_p1 = 10;
  a.bytes_p1_to_p0 = 20;
  a.messages = 3;
  a.rounds = 2;
  pc::TrafficStats b = a;
  expect(check_traffic("endpoints", a, b).empty(), "equal meters agree");
  b.rounds = 3;
  expect(!check_traffic("endpoints", a, b).empty(), "a tampered endpoint round count is caught");

  // In-process ot-ext bundles hold both halves, so each doubles as party
  // 0's and party 1's view.
  const off::PreprocessingPlan& plan = wl.plan();
  std::vector<off::QueryBundle> bundles(2);
  pc::TwoPartyContext gen;
  off::generate_bundles_ot_ext(plan, gen, {11, 12}, bundles.data());
  const off::OtExtCost ot_cost = off::ot_ext_generation_cost(plan, 2);
  expect(check_traffic("ot-ext", gen.stats(), as_traffic(ot_cost)).empty(),
         "ot-ext traffic equals its cost");
  pc::TrafficStats tampered = gen.stats();
  tampered.bytes_p0_to_p1 += 1;
  expect(!check_traffic("ot-ext", tampered, as_traffic(ot_cost)).empty(),
         "tampered ot-ext traffic is caught");
  pc::Prng pick(5);
  expect(!bundles[0].elem.empty() && !bundles[0].matmul.empty() && !bundles[0].bit.empty(),
         "the TinyCNN-ReLU plan has elem, matmul and bit triples");
  expect(check_triples(bundles, bundles, plan.ring, pick, 8).empty(), "real triples hold");
  auto bad = bundles;
  for (auto& z : bad[1].elem.at(0).z.s1) z += 1;
  expect(!check_triples(bundles, bad, plan.ring, pick, 8).empty(), "a bad elem triple is caught");
  bad = bundles;
  for (auto& z : bad[0].matmul.at(0).z.s0) z += 1;
  expect(!check_triples(bad, bundles, plan.ring, pick, 8).empty(),
         "a bad matmul triple is caught");
  bad = bundles;
  for (auto& c : bad[1].bit.at(0).c1) c ^= 1;
  expect(!check_triples(bundles, bad, plan.ring, pick, 8).empty(), "a bad bit triple is caught");
}

}  // namespace

int run_self_test() {
  failures = 0;
  catalogue_cases();
  request_cases();
  return failures;
}

}  // namespace perfbench
