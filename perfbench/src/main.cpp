// perfbench — the serving benchmark.
//
//   perfbench --workload poly_batch|relu_tcp|otext_offline --seed N
//             --seconds S --trace 0|1
//   perfbench --self-test
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it start with '#' and state the run's environment.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "crypto/ring_kernels.hpp"
#include "workloads.hpp"

namespace {

namespace pb = perfbench;

struct WorkloadEntry {
  const char* name;
  pb::Outcome (*run)(const pb::Options&);
  int threads;
  int connections;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"poly_batch", pb::run_poly_batch, pb::kPolyWorkers, 0},
    {"relu_tcp", pb::run_relu_tcp, pb::kTcpThreads, 1},
    {"otext_offline", pb::run_otext_offline, pb::kTcpThreads, 1},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench --self-test\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const int failed = pb::run_self_test();
      std::printf("# self-test: %s\n", failed == 0 ? "all cases passed" : "FAILED");
      return failed == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return usage("missing value");
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(opts.seconds > 0)) return usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      opts.trace = val[0] == '1';
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& w : kWorkloads) {
    if (opts.workload == w.name) entry = &w;
  }
  if (entry == nullptr) return usage(("unknown workload " + opts.workload).c_str());

  for (const auto* specs : {&pb::end_to_end_metrics(), &pb::per_layer_metrics()}) {
    if (const std::string why = pb::validate_specs(*specs); !why.empty()) {
      std::fprintf(stderr, "perfbench: metric catalogue: %s\n", why.c_str());
      return 1;
    }
  }
  const int cpus = pb::available_cpus();
  std::printf(
      "# env workload=%s seed=%llu seconds=%g trace=%d nproc=%d threads=%d connections=%d "
      "kernel_backend=%s build_type=%s\n",
      entry->name, static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0,
      cpus, entry->threads, entry->connections,
      pasnet::crypto::kern::backend_name(pasnet::crypto::kern::active_backend()),
      PERFBENCH_BUILD_TYPE);
  if (cpus < entry->threads) {
    std::fprintf(stderr, "perfbench: %s runs %d threads but only %d CPUs are available\n",
                 entry->name, entry->threads, cpus);
    return 1;
  }

  try {
    const pb::Outcome out = entry->run(opts);
    for (const std::string& e : out.errors) std::fprintf(stderr, "perfbench: check: %s\n", e.c_str());
    const auto& specs = opts.trace ? pb::per_layer_metrics() : pb::end_to_end_metrics();
    const std::string line = pb::result_json(out, specs);
    std::printf("# requests=%llu failed=%llu (each request is one latency sample)\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    std::printf("%s\n", line.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", entry->name, e.what());
    return 1;
  }
  return 0;
}
