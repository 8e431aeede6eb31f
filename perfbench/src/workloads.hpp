#pragma once
// The three workloads and the per-layer probes they share.

#include <cstdint>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "ir/program.hpp"
#include "nn/graph.hpp"
#include "nn/models.hpp"
#include "obs/tracer.hpp"
#include "offline/preprocessing_plan.hpp"
#include "proto/secure_network.hpp"
#include "proto/workload.hpp"

namespace perfbench {

/// Threads each workload runs (the benchmark refuses to run on fewer CPUs).
inline constexpr int kPolyWorkers = 4;
inline constexpr int kTcpThreads = 2;

/// Setup repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 31;

[[nodiscard]] Outcome run_poly_batch(const Options& opts);
[[nodiscard]] Outcome run_relu_tcp(const Options& opts);
[[nodiscard]] Outcome run_otext_offline(const Options& opts);

/// Checker self-tests; returns the number of failed cases.
[[nodiscard]] int run_self_test();

// --- shared model plumbing ------------------------------------------------------

/// A plaintext model with its trained graph.  Built (and briefly trained so
/// batch-norm has running statistics) outside every timed window.
struct PlainModel {
  pasnet::nn::ModelDescriptor md;
  std::unique_ptr<pasnet::nn::Graph> graph;
  std::vector<int> node_of_layer;
};

[[nodiscard]] PlainModel build_plain_model(const pasnet::nn::ModelDescriptor& md,
                                           std::uint64_t weight_seed);

/// The serving objects one set-up builds.
struct Served {
  std::unique_ptr<pasnet::crypto::TwoPartyContext> ctx;
  std::unique_ptr<pasnet::proto::SecureNetwork> snet;
  /// Carries the plan the session verifies; poly_batch serves through it,
  /// relu_tcp computes its in-process reference logits with it.
  std::unique_ptr<pasnet::proto::Workload> wl;
  TcpSession session;  ///< TCP workloads only
};

/// Wall times of every set-up repetition.
struct SetupTimes {
  std::vector<double> total_s, compile_ms, connect_ms;
};

/// Sets up kSetupReps times and keeps the last: SecureNetwork compile
/// (lowering, passes, parameter sharing), plan derivation and, when `peer`
/// is given, a loopback session.
[[nodiscard]] Served set_up(const PlainModel& m, const pasnet::proto::WorkloadOptions& wopts,
                            PeerThread* peer, SetupTimes& times);

/// `count` seeded query inputs of the model's input shape.
[[nodiscard]] std::vector<pasnet::nn::Tensor> make_inputs(const pasnet::nn::ModelDescriptor& md,
                                                          std::uint64_t seed, int count);

// --- per-layer probes (traced runs) ---------------------------------------------

/// Replays every conv/linear op's share-GEMM shapes (five products per op
/// and query, as the Beaver recombination runs them) through kern::im2col
/// and kern::gemm_acc for about `budget_s`.
struct GemmReplay {
  double ms_per_query = 0.0;
  double gmacs = 0.0;
};
[[nodiscard]] GemmReplay replay_gemms(const pasnet::ir::SecureProgram& program, double budget_s);

/// Times OfflineGenerator(1).generate on the plan for about `budget_s`.
struct DealerCost {
  double ms_per_query = 0.0;
  double material_mib_per_query = 0.0;
};
[[nodiscard]] DealerCost time_dealer(const pasnet::offline::PreprocessingPlan& plan,
                                     double budget_s);

/// Exact per-query triple counts of the plan into out.metrics.
void report_plan_triples(Outcome& out, const pasnet::offline::PreprocessingPlan& plan);

/// Per-query trace-counter metrics (chan.*, ir.*, compare.*, ot.*).
void report_trace_counters(Outcome& out, const pasnet::obs::CounterSnapshot& c,
                           std::uint64_t queries);

/// Zeros for every per-layer metric a workload does not exercise; the
/// workload overwrites the ones it measures.
void zero_per_layer(Outcome& out);

/// One ot-ext bundle of the ResNet-18 ReLU proxy over loopback TCP, outside
/// any timed window.  Returns 1 when both parties produced their bundle.
/// Failures are expected today; each party's outcome is printed as a
/// "# probe" line and is not counted as a failed request.
[[nodiscard]] double probe_resnet_proxy_ot_ext();

}  // namespace perfbench
