#pragma once
// Shared plumbing of the serving benchmark: the metric catalogue, the
// result record and its JSON line, timing and percentile helpers, the
// peer thread that plays party 1 of a loopback session, and the loopback
// TCP session set-up both network workloads use.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/party_session.hpp"
#include "net/socket.hpp"
#include "offline/preprocessing_plan.hpp"

namespace perfbench {

namespace net = pasnet::net;

// --- metric catalogue ---------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by every traced run (--trace 1).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// True when `name` is 1..64 characters of [A-Za-z0-9_.-] starting with a
/// letter or digit.
[[nodiscard]] bool valid_metric_name(const std::string& name);
/// Empty when every spec has a valid, unique name and a non-empty unit;
/// otherwise a description of the first problem.
[[nodiscard]] std::string validate_specs(const std::vector<MetricSpec>& specs);

// --- run options and result ---------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one benchmark run reports.  A request that throws or fails any
/// output check counts in `failed`; `correct` is false when anything
/// failed, including checks made outside the timed window.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;

  void fail(const std::string& why);
  /// Counts one attempted request; `why` non-empty marks it failed.
  void request(const std::string& why);
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Throws std::logic_error when a catalogued metric was not measured or an
/// uncatalogued one was.
[[nodiscard]] std::string result_json(const Outcome& out, const std::vector<MetricSpec>& specs);

// --- timing -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Per-request wall times of one timed window.
struct LatencyLog {
  std::vector<double> ms;     ///< one entry per request
  std::vector<double> end_s;  ///< when each request ended, from the window start
  double busy_s = 0.0;        ///< sum of request wall times
  double window_s = 0.0;      ///< the window's length
  std::uint64_t queries = 0;

  void add(double at_s, double request_ms, std::uint64_t request_queries) {
    ms.push_back(request_ms);
    end_s.push_back(at_s);
    busy_s += request_ms / 1e3;
    queries += request_queries;
  }
  [[nodiscard]] double mean_ms() const { return ms.empty() ? 0.0 : busy_s * 1e3 / ms.size(); }
};

/// Untimed warm-up after the first request, so caches, allocator pools and
/// CPU clocks settle before the timed window opens.
inline constexpr double kWarmupSeconds = 2.0;

/// Serves requests for `seconds` of wall time.  `serve(traced)` runs one
/// request and returns its wall time in ms, negative when it failed.
/// Without `traced` every request is untraced and logged in `plain`; with
/// it, requests alternate untraced and traced, so slow drift cancels out of
/// the comparison of the two logs.
void timed_window(double seconds, std::uint64_t queries_per_request,
                  const std::function<double(bool)>& serve, LatencyLog& plain,
                  LatencyLog* traced = nullptr);

/// Timed windows are cut into this many equal epochs; qps and the latency
/// percentiles are the median of their per-epoch values, so a burst of
/// contention from outside the process that covers one epoch does not move
/// them.
inline constexpr int kEpochs = 3;

/// Fills qps, latency percentiles, setup_s, peak_rss_MB and success_rate.
/// An epoch's qps is taken over its summed request wall times, so the
/// output checks run between requests stay outside it.
void report_timing(Outcome& out, const LatencyLog& log, double setup_s);

/// Process high-water resident set (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();
/// CPUs this process may run on (the affinity mask, like nproc).
[[nodiscard]] int available_cpus();

// --- the peer party -------------------------------------------------------------

/// One long-lived thread that runs party 1's side of each two-party step,
/// standing in for the second process of a deployment.
class PeerThread {
 public:
  PeerThread();
  ~PeerThread();
  PeerThread(const PeerThread&) = delete;
  PeerThread& operator=(const PeerThread&) = delete;

  /// Starts `job` on the peer thread.  The previous job must be waited for.
  void post(std::function<void()> job);
  /// Blocks until the posted job ends; rethrows what it threw.
  void wait();

 private:
  void loop();

  std::mutex m_;
  std::condition_variable cv_;
  std::function<void()> job_;
  bool has_job_ = false;
  bool done_ = true;
  bool stop_ = false;
  std::exception_ptr error_;
  std::thread thread_;  // last: starts after the state it reads exists
};

/// Runs `p0` on the calling thread and `p1` on the peer, and waits for
/// both.  A side that throws closes its channel first, so the other side
/// fails fast on a closed socket instead of waiting for the I/O timeout.
/// Rethrows party 0's exception first.
void run_two_party(PeerThread& peer, pasnet::crypto::Channel& c0, pasnet::crypto::Channel& c1,
                   const std::function<void()>& p0, const std::function<void()>& p1);

// --- loopback TCP session -------------------------------------------------------

/// Both endpoints of one loopback party connection, owned in one process.
struct TcpSession {
  std::unique_ptr<net::Listener> listener;
  std::unique_ptr<net::TransportChannel> chan[2];
  std::unique_ptr<net::PartySession> party[2];
};

/// Listen, dial, v2 hello + clock sync, then verify_plan on both sides.
[[nodiscard]] TcpSession connect_session(PeerThread& peer,
                                         const pasnet::offline::PreprocessingPlan& plan);

}  // namespace perfbench
