// Shared setup for the figure/table benches: one full portfolio run over
// the standard suite, memoized per process AND cached on disk so that the
// six figure/table binaries of a bench sweep share a single evaluation.
//
// Environment knobs:
//   MANTHAN3_BENCH_SCALE   suite scale (default 1; 2 = larger evaluation)
//   MANTHAN3_BENCH_BUDGET  per-instance budget in seconds (default 2)
//   MANTHAN3_BENCH_CACHE   cache file path (default
//                          ./manthan3_bench_cache.tsv; set to "off" to
//                          disable; delete the file to force re-runs)
#pragma once

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "obs/memory.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/tables.hpp"
#include "workloads/workloads.hpp"

namespace manthan::bench {

/// Attach the process-memory gauges to a Google Benchmark state (templated
/// so this header does not require benchmark.h). Peak RSS is cumulative
/// over the process — meaningful for the BENCH_*.json archives, where each
/// binary runs a known benchmark set.
template <typename State>
void report_memory_counters(State& state) {
  state.counters["peak_rss_bytes"] =
      static_cast<double>(obs::peak_rss_bytes());
  state.counters["rss_bytes"] = static_cast<double>(obs::current_rss_bytes());
}

inline std::size_t env_scale() {
  const char* s = std::getenv("MANTHAN3_BENCH_SCALE");
  return s != nullptr ? static_cast<std::size_t>(std::atoi(s)) : 1;
}

inline double env_budget() {
  const char* s = std::getenv("MANTHAN3_BENCH_BUDGET");
  return s != nullptr ? std::atof(s) : 2.0;
}

inline std::string cache_path() {
  const char* s = std::getenv("MANTHAN3_BENCH_CACHE");
  if (s == nullptr) return "manthan3_bench_cache.tsv";
  return s;
}

/// The suite used by every figure bench (fixed seed; scale from env).
inline const std::vector<workloads::Instance>& bench_suite() {
  static const std::vector<workloads::Instance> suite =
      workloads::standard_suite({env_scale(), 2023});
  return suite;
}

namespace detail {

/// Cache header: identifies the format version (v2: engine::engine_name
/// and engine::status_name tokens) and (scale, budget, suite size) so a
/// stale cache is never silently reused for a different configuration.
inline std::string cache_header() {
  std::ostringstream os;
  os << "# manthan3-bench-cache v2 scale=" << env_scale()
     << " budget=" << env_budget() << " instances=" << bench_suite().size();
  return os.str();
}

inline bool load_cache(std::vector<portfolio::RunRecord>& records) {
  const std::string path = cache_path();
  if (path == "off") return false;
  std::ifstream in(path);
  if (!in) return false;
  std::string header;
  if (!std::getline(in, header) || header != cache_header()) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    portfolio::RunRecord r;
    std::string engine_tok;
    std::string status_tok;
    int certified = 0;
    if (!(ls >> r.instance >> r.family >> engine_tok >> status_tok >>
          certified >> r.seconds)) {
      return false;
    }
    const auto kind = engine::engine_from_name(engine_tok);
    const auto status = engine::status_from_name(status_tok);
    if (!kind || !status) return false;
    r.engine = *kind;
    r.status = *status;
    r.certified = certified != 0;
    records.push_back(r);
  }
  // Sanity: one record per (instance, engine).
  return records.size() == bench_suite().size() * 3;
}

inline void save_cache(const std::vector<portfolio::RunRecord>& records) {
  const std::string path = cache_path();
  if (path == "off") return;
  std::ofstream out(path);
  if (!out) return;
  out << cache_header() << '\n';
  for (const portfolio::RunRecord& r : records) {
    out << r.instance << '\t' << r.family << '\t'
        << engine::engine_name(r.engine) << '\t'
        << engine::status_name(r.status) << '\t' << (r.certified ? 1 : 0)
        << '\t' << r.seconds << '\n';
  }
}

}  // namespace detail

/// One full portfolio evaluation, memoized in-process and cached on disk.
inline const std::vector<portfolio::RunRecord>& bench_records() {
  static const std::vector<portfolio::RunRecord> records = [] {
    std::vector<portfolio::RunRecord> loaded;
    if (detail::load_cache(loaded)) return loaded;
    portfolio::RunnerOptions options;
    options.per_instance_seconds = env_budget();
    portfolio::Runner runner(options);
    std::vector<portfolio::RunRecord> fresh = runner.run_suite(
        bench_suite(), {portfolio::EngineKind::kManthan3,
                        portfolio::EngineKind::kHqsLite,
                        portfolio::EngineKind::kPedantLite});
    detail::save_cache(fresh);
    return fresh;
  }();
  return records;
}

/// Scatter timeout marker: slightly above the budget, like the paper's
/// "Timeout" gutter.
inline double timeout_marker() { return env_budget() * 1.5; }

}  // namespace manthan::bench
