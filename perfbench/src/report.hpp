// Shared plumbing of the perfbench driver: options, clocks, sample
// statistics, registry deltas and the JSON result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for queue, cache and journal files.
  std::string workdir;
};

/// Metric name -> value, printed in name order.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one invocation prints as its last line.
struct Outcome {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Metrics metrics;
};

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
inline double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(const std::vector<double>& xs) {
  return quantile(xs, 0.5);
}

/// Counter values and histogram (count, sum) of the global registry, so a
/// pass can report what the library counted while it ran.
struct RegistryState {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::pair<std::uint64_t, double>> histograms;

  static RegistryState capture();
  /// counters[name] now minus at `before` (0 for unknown names).
  std::uint64_t counter_delta(const RegistryState& before,
                              const std::string& name) const;
  std::pair<std::uint64_t, double> histogram_delta(
      const RegistryState& before, const std::string& name) const;
};

/// One engine run or request, as the metrics shared by both workloads
/// see it: its (median) latency, whether it ended in a correct verdict,
/// and whether it ran an engine (false for cache hits).
struct Sample {
  double latency_s = 0.0;
  bool verdict = false;
  bool ran_engine = true;
};

/// Latency limit of answered_200ms.
constexpr double kLatencyLimitSeconds = 0.2;

/// End-to-end outcome metrics: solved, answered_share, answered_200ms and
/// par2_s (PAR-2 at `budget_s`, mean per sample).
Metrics outcome_metrics(const std::vector<Sample>& samples, double budget_s);

/// Timing metrics, reported per layer: wall_s (sum of latencies),
/// throughput_rps, verdict_ms.p50/.p80 and miss_ms.p50/.p80.
Metrics timing_metrics(const std::vector<Sample>& samples);

/// Median seconds of kSetupRepeats calls of `setup`. Callers run it after
/// the passes, on a warm process; the passes use inputs built the same way.
constexpr int kSetupRepeats = 7;
template <typename Setup>
double setup_seconds(Setup setup) {
  std::vector<double> xs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_seconds();
    setup();
    xs.push_back(now_seconds() - t0);
  }
  return median(xs);
}

/// Families whose instances are True by construction: a kUnrealizable on
/// one of them is a wrong verdict.
bool true_by_construction(const std::string& family);

/// A run repeats the whole workload at least this many times; every time
/// it reports is the median over the passes.
constexpr std::size_t kMinPasses = 2;

/// Run passes until at least kMinPasses are done and the next one would
/// end after options.seconds. With tracing on, the first pass runs
/// untraced; only its wall time is kept (`untraced_wall`), as the
/// reference for the tracing overhead, and it counts toward kMinPasses.
template <typename Pass, typename RunPass>
std::vector<Pass> run_passes(const Options& options, RunPass run_pass,
                             double& untraced_wall) {
  const double start = now_seconds();
  std::size_t done = 0;
  if (options.trace) {
    untraced_wall = run_pass(false).wall_s;
    ++done;
  }
  std::vector<Pass> passes;
  for (;;) {
    passes.push_back(run_pass(options.trace));
    ++done;
    const double elapsed = now_seconds() - start;
    const double per_pass = elapsed / static_cast<double>(done);
    if (done >= kMinPasses && elapsed + per_pass > options.seconds) break;
  }
  return passes;
}

/// Add the metrics both workloads compute the same way: setup_s
/// untraced; peak_rss_mb, workloads.generate_s, trace.overhead_share and
/// zeros for the per-layer metrics of layers the workload bypasses, traced.
void finish(const Options& options, double setup_s, double generate_s,
            const std::vector<double>& pass_walls, double untraced_wall,
            Outcome& outcome);

/// Print one JSON line with the outcome; every metric value is printed
/// with full precision.
std::string outcome_json(const Outcome& outcome);

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);

/// Run the named workload; defined in paper_suite.cpp / daemon_stream.cpp.
Outcome run_paper_suite(const Options& options);
Outcome run_daemon_stream(const Options& options);

}  // namespace perfbench
