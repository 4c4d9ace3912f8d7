#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared vocabulary of the benchmark client: run configuration, the result
// every workload fills in, and the small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/socket_transport.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_binary;
  std::string run_dir;    ///< Server sockets and logs.
  std::string trace_out;  ///< Span dump written at exit (traced runs).
};

struct Metric {
  std::string unit;
  double value = 0;
};

/// What one workload run hands back to main. `metrics` holds the reported
/// metrics by name (end-to-end with tracing off, per-layer with it on);
/// `report` holds the workload's own end-to-end table, printed for humans.
struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< Typed shed / expired / deadline-missed ops.
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, Metric>> report;

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
  void Set(const std::string& name, const std::string& unit, double value) {
    metrics[name] = Metric{unit, value};
  }
  void Report(const std::string& name, const std::string& unit,
              double value) {
    report.emplace_back(name, Metric{unit, value});
  }
};

/// Per-call budget for every timed operation and the wedge bound past it.
/// ε follows the saturation suite's derivation: one RPC is bounded by
/// max_call_replays redial episodes × redial_budget_ms plus one call
/// timeout (4 × 500 ms + 4000 ms = 6 s); 4 s more covers scheduling slop.
inline constexpr uint64_t kCallTimeoutMs = 4000;
inline constexpr uint64_t kRedialBudgetMs = 500;
inline constexpr uint32_t kMaxCallReplays = 4;
inline constexpr uint64_t kEpsilonMs =
    kMaxCallReplays * kRedialBudgetMs + kCallTimeoutMs + 4000;

inline mlcask::storage::SocketTransport::Options ClientTransportOptions() {
  mlcask::storage::SocketTransport::Options options;
  options.call_timeout_ms = kCallTimeoutMs;
  options.redial_budget_ms = kRedialBudgetMs;
  options.max_call_replays = kMaxCallReplays;
  return options;
}

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Nearest-rank-with-interpolation percentile; 0 for an empty sample.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

RunResult RunMergeWide(const RunConfig& config);
RunResult RunMergeStorm(const RunConfig& config);
RunResult RunArtifactIo(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
