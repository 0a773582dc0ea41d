// manthan3d — the synthesis service as a long-running daemon.
//
// Watches a queue directory for `*.dqdimacs` request files, routes each
// through one engine::Service (shared scheduler pool, admission policy,
// tier-1 result cache), and writes `<name>.result.json` next to every
// answered request: status, engine, cache/race provenance, the canonical
// spec fingerprint, engine counters, and the certified functions as an
// embedded BLIF netlist. Duplicate requests — byte-identical or merely
// isomorphic (renamed variables, shuffled clauses) — are answered from
// the result cache without touching a worker.
//
// SIGINT/SIGTERM flip a cancel token: the current request stops at its
// next engine poll (no result file is written, so the next daemon start
// re-runs it), queued requests stay untouched, and the process exits
// after the service drains. Requests already answered keep their result
// files, so restarts are idempotent.
//
// Usage:
//   manthan3d --queue DIR [options]
//     --queue <dir>       queue directory (required)
//     --workers <n>       scheduler workers (default: hardware)
//     --timeout <s>       per-request budget in seconds (default 60)
//     --seed <n>          service seed (default 42)
//     --once              drain the queue once and exit
//     --poll-ms <n>       sleep between drains (default 200)
//     --max-requests <n>  stop after n requests (0 = unlimited)
//     --no-cache          disable the tier-1 result cache
//     --cache-dir <dir>   persist the tier-1 cache (reloaded at startup,
//                         so a restarted daemon answers repeats warm)
//     --max-attempts <n>  executions per request before quarantine to
//                         failed/ (default 3)
//     --retry-base-ms <n> base of the exponential retry backoff
//     --mem-budget-mb <n> per-request growth-site memory budget (0 = off)
//     --conflict-budget <n>  per-request SAT-conflict budget (0 = off)
//     --faults <spec>     fault-injection schedule (chaos testing; same
//                         grammar as MANTHAN_FAULTS)
//     --stats-json <f>    write service counters to f (rewritten
//                         atomically after every drain cycle, so a killed
//                         daemon leaves fresh counters behind)
//     --trace <f>         Chrome trace, rewritten after every drain
//     --metrics-json <f>  metrics snapshot as JSON, ditto
//     --metrics-prom <f>  Prometheus text exposition, ditto
#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "engine/daemon.hpp"
#include "engine/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"

namespace {

// Signal handler target: cancel() is a relaxed atomic store, safe in a
// handler context.
manthan::util::CancelToken g_stop;

extern "C" void handle_signal(int) { g_stop.cancel(); }

struct CliOptions {
  std::string queue_dir;
  std::size_t workers = 0;
  double timeout = 60.0;
  std::uint64_t seed = 42;
  bool once = false;
  int poll_ms = 200;
  std::size_t max_requests = 0;
  bool result_cache = true;
  std::string cache_dir;
  std::size_t max_attempts = 3;
  double retry_base_ms = 200.0;
  std::uint64_t mem_budget_mb = 0;
  std::uint64_t conflict_budget = 0;
  std::string faults;
  std::string stats_json;
  std::string trace_path;
  std::string metrics_json;
  std::string metrics_prom;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --queue DIR [--workers N] [--timeout S] [--seed N]"
               " [--once] [--poll-ms N] [--max-requests N] [--no-cache]"
               " [--cache-dir D] [--max-attempts N] [--retry-base-ms N]"
               " [--mem-budget-mb N] [--conflict-budget N] [--faults SPEC]"
               " [--stats-json F] [--trace F] [--metrics-json F]"
               " [--metrics-prom F]\n";
  return 2;
}

/// Service counters as JSON, written atomically (temp + rename): a
/// SIGKILL between drains leaves the last complete snapshot, never a
/// torn file.
void write_stats(const std::string& path,
                 const manthan::engine::ServiceStats& stats) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"requests\": " << stats.requests << ",\n";
  out << "  \"completed\": " << stats.completed << ",\n";
  out << "  \"tier1_hits\": " << stats.tier1_hits << ",\n";
  out << "  \"tier1_misses\": " << stats.tier1_misses << ",\n";
  out << "  \"coalesced\": " << stats.coalesced << ",\n";
  out << "  \"races\": " << stats.races << ",\n";
  out << "  \"single_runs\": " << stats.single_runs << ",\n";
  out << "  \"cancelled\": " << stats.cancelled << ",\n";
  out << "  \"cache_entries\": " << stats.cache_entries << ",\n";
  out << "  \"cache_evictions\": " << stats.cache_evictions << "\n";
  out << "}\n";
  manthan::obs::write_file_atomic(path, out.str());
}

/// Rewrite every requested telemetry file. Called after each drain cycle
/// and once more at shutdown; all writes are temp + rename.
void write_telemetry(const CliOptions& cli,
                     const manthan::engine::Service& service) {
  if (!cli.stats_json.empty()) write_stats(cli.stats_json, service.stats());
  if (!cli.trace_path.empty()) {
    manthan::obs::write_trace_json_atomic(cli.trace_path);
  }
  if (!cli.metrics_json.empty()) {
    manthan::obs::write_file_atomic(
        cli.metrics_json, manthan::obs::Registry::global().to_json());
  }
  if (!cli.metrics_prom.empty()) {
    manthan::obs::write_file_atomic(
        cli.metrics_prom, manthan::obs::Registry::global().to_prometheus());
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << what << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--queue") {
      cli.queue_dir = next("--queue");
    } else if (arg == "--workers") {
      cli.workers = std::stoul(next("--workers"));
    } else if (arg == "--timeout") {
      cli.timeout = std::stod(next("--timeout"));
    } else if (arg == "--seed") {
      cli.seed = std::stoull(next("--seed"));
    } else if (arg == "--once") {
      cli.once = true;
    } else if (arg == "--poll-ms") {
      cli.poll_ms = std::stoi(next("--poll-ms"));
    } else if (arg == "--max-requests") {
      cli.max_requests = std::stoul(next("--max-requests"));
    } else if (arg == "--no-cache") {
      cli.result_cache = false;
    } else if (arg == "--cache-dir") {
      cli.cache_dir = next("--cache-dir");
    } else if (arg == "--max-attempts") {
      cli.max_attempts = std::stoul(next("--max-attempts"));
    } else if (arg == "--retry-base-ms") {
      cli.retry_base_ms = std::stod(next("--retry-base-ms"));
    } else if (arg == "--mem-budget-mb") {
      cli.mem_budget_mb = std::stoull(next("--mem-budget-mb"));
    } else if (arg == "--conflict-budget") {
      cli.conflict_budget = std::stoull(next("--conflict-budget"));
    } else if (arg == "--faults") {
      cli.faults = next("--faults");
    } else if (arg == "--stats-json") {
      cli.stats_json = next("--stats-json");
    } else if (arg == "--trace") {
      cli.trace_path = next("--trace");
    } else if (arg == "--metrics-json") {
      cli.metrics_json = next("--metrics-json");
    } else if (arg == "--metrics-prom") {
      cli.metrics_prom = next("--metrics-prom");
    } else {
      return usage(argv[0]);
    }
  }
  if (cli.queue_dir.empty()) return usage(argv[0]);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (!cli.trace_path.empty()) manthan::obs::start_tracing();
  if (!cli.faults.empty()) {
    try {
      manthan::util::fault::install(cli.faults);
    } catch (const std::exception& e) {
      std::cerr << "bad --faults spec: " << e.what() << "\n";
      return 2;
    }
  }

  manthan::engine::ServiceOptions service_options;
  service_options.workers = cli.workers;
  service_options.default_time_limit_seconds = cli.timeout;
  service_options.seed = cli.seed;
  service_options.result_cache = cli.result_cache;
  service_options.cache_dir = cli.cache_dir;
  service_options.default_budget.memory_bytes =
      cli.mem_budget_mb * 1024 * 1024;
  service_options.default_budget.conflicts = cli.conflict_budget;
  manthan::engine::Service service(service_options);

  manthan::engine::DaemonOptions daemon_options;
  daemon_options.queue_dir = cli.queue_dir;
  daemon_options.max_requests = cli.max_requests;
  daemon_options.stop = &g_stop;
  daemon_options.max_attempts = cli.max_attempts;
  daemon_options.retry_base_ms = cli.retry_base_ms;

  std::cout << "manthan3d: serving " << cli.queue_dir << " with "
            << service.worker_count() << " workers\n";

  std::size_t total_processed = 0;
  while (!g_stop.cancelled()) {
    const manthan::engine::DrainReport report =
        drain_queue(service, daemon_options);
    total_processed += report.processed;
    // Telemetry files are freshest-complete-state: rewritten after every
    // drain so a killed daemon still leaves usable counters and traces.
    write_telemetry(cli, service);
    for (const auto& record : report.records) {
      const char* outcome =
          record.malformed      ? "malformed"
          : record.cancelled    ? "cancelled"
          : record.quarantined  ? "quarantined"
          : record.deferred     ? "deferred"
          : record.retried      ? "retried"
                                : manthan::engine::status_name(record.status);
      std::cout << record.path << ": " << outcome
                << (record.cache_hit ? " (cached)" : "");
      if (record.attempts > 1) {
        std::cout << " (attempt " << record.attempts << ")";
      }
      std::cout << " in " << record.seconds << "s\n";
    }
    if (cli.once || g_stop.cancelled()) break;
    if (cli.max_requests != 0 && total_processed >= cli.max_requests) break;
    // Sleep in short slices so a signal ends the poll wait promptly.
    for (int waited = 0; waited < cli.poll_ms && !g_stop.cancelled();
         waited += 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  service.shutdown();
  const manthan::engine::ServiceStats stats = service.stats();
  write_telemetry(cli, service);
  std::cout << "manthan3d: " << stats.requests << " requests, "
            << stats.tier1_hits << " cache hits, " << stats.races
            << " races; shutting down\n";
  return 0;
}
