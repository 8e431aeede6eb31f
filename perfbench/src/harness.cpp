#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// Transport deadlines of every benchmark connection: short enough that a
/// stalled peer ends the run well inside its time limit.
net::TransportOptions transport_options() {
  net::TransportOptions o;
  o.connect_timeout = std::chrono::milliseconds(10000);
  o.io_timeout = std::chrono::milliseconds(30000);
  return o;
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"qps", "1/s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},
      {"rounds_per_query", "count"},
      {"bytes_per_query", "B"},
      {"peak_rss_MB", "MiB"},
      {"success_rate", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"workload.parallel_eff", "ratio"},
      {"workload.first_request_ms", "ms"},
      {"kern.gemm_ms_per_query", "ms"},
      {"kern.gemm_gmacs", "GMAC/s"},
      {"dealer.ms_per_query", "ms"},
      {"dealer.material_MB_per_query", "MiB"},
      {"triples.matmul_elems_per_query", "count"},
      {"triples.bilinear_elems_per_query", "count"},
      {"triples.square_pairs_per_query", "count"},
      {"triples.bit_per_query", "count"},
      {"triples.elem_per_query", "count"},
      {"chan.messages_per_query", "count"},
      {"chan.weight_open_KB_per_query", "KiB"},
      {"chan.recv_wait_ms_per_query", "ms"},
      {"chan.send_wait_ms_per_query", "ms"},
      {"ir.open_flushes_per_query", "count"},
      {"ir.openings_per_query", "count"},
      {"compare.and_levels_per_query", "count"},
      {"ot.batches_per_query", "count"},
      {"ot.messages_per_query", "count"},
      {"ot.dh_ms_per_query", "ms"},
      {"ot_ext.ext_cots_per_bundle", "count"},
      {"ot_ext.base_ots_per_call", "count"},
      {"ot_ext.recv_wait_ms_per_call", "ms"},
      {"ot_ext.resnet_proxy_ok", "bool"},
      {"session.connect_ms", "ms"},
      {"compile.ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return specs;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

std::string validate_specs(const std::vector<MetricSpec>& specs) {
  std::set<std::string> seen;
  for (const MetricSpec& s : specs) {
    const std::string name = s.name == nullptr ? "" : s.name;
    if (!valid_metric_name(name)) return "invalid metric name '" + name + "'";
    if (s.unit == nullptr || std::string(s.unit).empty()) return "metric " + name + " has no unit";
    if (!seen.insert(name).second) return "metric " + name + " listed twice";
  }
  return "";
}

void Outcome::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

void Outcome::request(const std::string& why) {
  ++attempted;
  if (why.empty()) return;
  ++failed;
  fail(why);
}

std::string result_json(const Outcome& out, const std::vector<MetricSpec>& specs) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (out.correct ? "true" : "false") << ", \"attempted\": " << out.attempted
     << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = out.metrics.find(specs[i].name);
    if (it == out.metrics.end()) {
      throw std::logic_error(std::string("metric not measured: ") + specs[i].name);
    }
    if (!std::isfinite(it->second)) {
      throw std::logic_error(std::string("metric is not finite: ") + specs[i].name);
    }
    os << (i ? ", " : "") << '"' << specs[i].name << "\": {\"value\": " << it->second
       << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  os << "}}";
  if (out.metrics.size() != specs.size()) {
    throw std::logic_error("a measured metric is missing from the catalogue");
  }
  return os.str();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void timed_window(double seconds, std::uint64_t queries_per_request,
                  const std::function<double(bool)>& serve, LatencyLog& plain,
                  LatencyLog* traced) {
  plain.window_s = seconds;
  if (traced != nullptr) traced->window_s = seconds;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; seconds_since(t0) < seconds; ++i) {
    const bool trace_this = traced != nullptr && i % 2 == 1;
    const double ms = serve(trace_this);
    if (ms >= 0) (trace_this ? *traced : plain).add(seconds_since(t0), ms, queries_per_request);
  }
}

void report_timing(Outcome& out, const LatencyLog& log, double setup_s) {
  out.metrics["setup_s"] = setup_s;
  // Requests that end past the window belong to the last epoch.
  std::vector<LatencyLog> epochs(kEpochs);
  const std::uint64_t per_request = log.ms.empty() ? 0 : log.queries / log.ms.size();
  for (std::size_t i = 0; i < log.ms.size(); ++i) {
    const int e = std::min(kEpochs - 1, static_cast<int>(log.end_s[i] * kEpochs / log.window_s));
    epochs[static_cast<std::size_t>(e)].add(log.end_s[i], log.ms[i], per_request);
  }
  std::vector<double> qps, p50, p90;
  for (const LatencyLog& e : epochs) {
    if (e.ms.empty()) continue;
    qps.push_back(static_cast<double>(e.queries) / e.busy_s);
    p50.push_back(quantile(e.ms, 0.5));
    p90.push_back(quantile(e.ms, 0.9));
  }
  out.metrics["qps"] = median(qps);
  out.metrics["latency_ms_p50"] = median(p50);
  out.metrics["latency_ms_p90"] = median(p90);
  out.metrics["peak_rss_MB"] = peak_rss_mb();
  out.metrics["success_rate"] =
      out.attempted ? static_cast<double>(out.attempted - out.failed) / out.attempted : 0.0;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

PeerThread::PeerThread() : thread_([this] { loop(); }) {}

PeerThread::~PeerThread() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void PeerThread::post(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(m_);
    if (!done_) throw std::logic_error("PeerThread::post: previous job still running");
    job_ = std::move(job);
    has_job_ = true;
    done_ = false;
    error_ = nullptr;
  }
  cv_.notify_all();
}

void PeerThread::wait() {
  std::unique_lock<std::mutex> lock(m_);
  cv_.wait(lock, [&] { return done_; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void PeerThread::loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait(lock, [&] { return stop_ || has_job_; });
      if (stop_ && !has_job_) return;
      job = std::move(job_);
      has_job_ = false;
    }
    std::exception_ptr error;
    try {
      job();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(m_);
      error_ = error;
      done_ = true;
    }
    cv_.notify_all();
  }
}

void run_two_party(PeerThread& peer, pasnet::crypto::Channel& c0, pasnet::crypto::Channel& c1,
                   const std::function<void()>& p0, const std::function<void()>& p1) {
  peer.post([&] {
    try {
      p1();
    } catch (...) {
      c1.close();
      throw;
    }
  });
  std::exception_ptr e0;
  try {
    p0();
  } catch (...) {
    e0 = std::current_exception();
    c0.close();
  }
  std::exception_ptr e1;
  try {
    peer.wait();
  } catch (...) {
    e1 = std::current_exception();
  }
  if (e0) std::rethrow_exception(e0);
  if (e1) std::rethrow_exception(e1);
}

TcpSession connect_session(PeerThread& peer, const pasnet::offline::PreprocessingPlan& plan) {
  TcpSession s;
  s.listener = std::make_unique<net::Listener>(0);
  const std::uint16_t port = s.listener->port();
  peer.post([&] {
    s.chan[1] = net::serve_party_channel(*s.listener, 1, transport_options());
    s.party[1] = std::make_unique<net::PartySession>(1, *s.chan[1], plan.ring);
    s.party[1]->verify_plan(plan);
  });
  std::exception_ptr e0;
  try {
    s.chan[0] = net::dial_party_channel("127.0.0.1", port, 0, transport_options());
    s.party[0] = std::make_unique<net::PartySession>(0, *s.chan[0], plan.ring);
    s.party[0]->verify_plan(plan);
  } catch (...) {
    e0 = std::current_exception();
    if (s.chan[0]) s.chan[0]->close();
    s.listener->close();
  }
  peer.wait();
  if (e0) std::rethrow_exception(e0);
  return s;
}

}  // namespace perfbench
