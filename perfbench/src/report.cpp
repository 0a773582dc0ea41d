#include "report.hpp"

#include <cstdio>
#include <sstream>

#include "obs/memory.hpp"

namespace perfbench {

namespace {

// Every per-layer metric with its unit; both workloads report all of them.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"wall_s", "s"},
    {"throughput_rps", "1/s"},
    {"verdict_ms.p50", "ms"},
    {"verdict_ms.p80", "ms"},
    {"miss_ms.p50", "ms"},
    {"miss_ms.p80", "ms"},
    {"peak_rss_mb", "MB"},
    {"workloads.generate_s", "s"},
    {"core.synthesize.calls", "count"},
    {"core.synthesize.busy_s", "s"},
    {"core.verify_s", "s"},
    {"core.repair_s", "s"},
    {"core.sample_s", "s"},
    {"core.learn_s", "s"},
    {"core.unattributed_s", "s"},
    {"core.giveup_share", "share"},
    {"core.counterexamples", "count"},
    {"core.repairs", "count"},
    {"core.repair_checks", "count"},
    {"core.repair_yield", "share"},
    {"core.maxsat_calls", "count"},
    {"core.refit_rounds", "count"},
    {"core.inprocess_runs", "count"},
    {"core.samples", "count"},
    {"core.verify_vars.max", "count"},
    {"core.phi_vars.max", "count"},
    {"core.seed_flips", "count"},
    {"sat.decisions", "count"},
    {"sat.propagations", "count"},
    {"sat.conflicts", "count"},
    {"sat.solvers", "count"},
    {"dqbf.certificate.calls", "count"},
    {"dqbf.certificate.busy_s", "s"},
    {"dqbf.dqdimacs.parse_us.p50", "us"},
    {"dqbf.fingerprint.canonicalize_us.p50", "us"},
    {"engine.daemon.calls", "count"},
    {"engine.daemon.busy_s", "s"},
    {"engine.daemon.overhead_ms.p50", "ms"},
    {"engine.daemon.hit_ms.p50", "ms"},
    {"engine.daemon.hit_ms.p80", "ms"},
    {"engine.service.tier1_hits", "count"},
    {"engine.service.tier1_misses", "count"},
    {"engine.service.races", "count"},
    {"engine.service.single_runs", "count"},
    {"engine.service.persisted_entries", "count"},
    {"engine.service.solve_ms.p50", "ms"},
    {"engine.service.solve_ms.p80", "ms"},
    {"engine.race.wins.manthan3", "count"},
    {"engine.race.wins.hqs", "count"},
    {"engine.race.wins.pedant", "count"},
    {"clock.bound", "count"},
    {"clock.overrun_ms.max", "ms"},
    {"check.wrong_verdicts", "count"},
    {"check.error_share", "share"},
    {"trace.overhead_share", "share"},
};

}  // namespace

bool true_by_construction(const std::string& family) {
  return family == "planted" || family == "planted_hard" || family == "pec" ||
         family == "succinct_sat" || family == "xor_chain";
}

Metrics outcome_metrics(const std::vector<Sample>& samples, double budget_s) {
  double solved = 0.0, fast = 0.0, par2 = 0.0;
  for (const Sample& s : samples) {
    if (s.verdict) {
      solved += 1.0;
      fast += s.latency_s <= kLatencyLimitSeconds ? 1.0 : 0.0;
      par2 += s.latency_s;
    } else {
      par2 += 2.0 * budget_s;
    }
  }
  const double n = static_cast<double>(samples.size());
  Metrics m;
  m["solved"] = {solved, "count"};
  m["answered_share"] = {solved / n, "share"};
  m["answered_200ms"] = {fast, "count"};
  m["par2_s"] = {par2 / n, "s"};
  return m;
}

Metrics timing_metrics(const std::vector<Sample>& samples) {
  std::vector<double> verdict_ms, miss_ms;
  double wall = 0.0;
  for (const Sample& s : samples) {
    wall += s.latency_s;
    if (s.verdict) verdict_ms.push_back(s.latency_s * 1e3);
    if (s.ran_engine) miss_ms.push_back(s.latency_s * 1e3);
  }
  Metrics m;
  m["wall_s"] = {wall, "s"};
  m["throughput_rps"] = {static_cast<double>(samples.size()) / wall, "1/s"};
  m["verdict_ms.p50"] = {quantile(verdict_ms, 0.5), "ms"};
  m["verdict_ms.p80"] = {quantile(verdict_ms, 0.8), "ms"};
  m["miss_ms.p50"] = {quantile(miss_ms, 0.5), "ms"};
  m["miss_ms.p80"] = {quantile(miss_ms, 0.8), "ms"};
  return m;
}

void finish(const Options& options, double setup_s, double generate_s,
            const std::vector<double>& pass_walls, double untraced_wall,
            Outcome& outcome) {
  Metrics& m = outcome.metrics;
  if (!options.trace) {
    m["setup_s"] = {setup_s, "s"};
    return;
  }
  m["peak_rss_mb"] = {
      static_cast<double>(manthan::obs::peak_rss_bytes()) / (1024.0 * 1024.0),
      "MB"};
  m["workloads.generate_s"] = {generate_s, "s"};
  m["trace.overhead_share"] = {
      (median(pass_walls) - untraced_wall) / untraced_wall, "share"};
  for (const auto& [name, unit] : kPerLayer) m.emplace(name, Metric{0.0, unit});
}

RegistryState RegistryState::capture() {
  const manthan::obs::MetricsSnapshot snap =
      manthan::obs::Registry::global().snapshot();
  RegistryState state;
  for (const auto& [name, value] : snap.counters) state.counters[name] = value;
  for (const auto& h : snap.histograms) {
    state.histograms[h.name] = {h.count, h.sum};
  }
  return state;
}

std::uint64_t RegistryState::counter_delta(const RegistryState& before,
                                           const std::string& name) const {
  const auto now = counters.find(name);
  if (now == counters.end()) return 0;
  const auto then = before.counters.find(name);
  return now->second - (then == before.counters.end() ? 0 : then->second);
}

std::pair<std::uint64_t, double> RegistryState::histogram_delta(
    const RegistryState& before, const std::string& name) const {
  const auto now = histograms.find(name);
  if (now == histograms.end()) return {0, 0.0};
  const auto then = before.histograms.find(name);
  if (then == before.histograms.end()) return now->second;
  return {now->second.first - then->second.first,
          now->second.second - then->second.second};
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string outcome_json(const Outcome& outcome) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (outcome.correct ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted
     << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    if (!first) os << ", ";
    first = false;
    os << '"' << json_escape(name) << "\": {\"value\": " << metric.value
       << ", \"unit\": \"" << json_escape(metric.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
