// manthan3_cli — command-line Henkin synthesizer.
//
// Reads a DQDIMACS file (or a built-in demo instance with --demo), runs
// the selected engine, prints its status and one `name value` line per
// run counter (core::kStatFields), certifies the result, and optionally
// writes the synthesized functions as a BLIF or Verilog netlist.
//
// Usage:
//   manthan3_cli [options] [instance.dqdimacs]
//     --engine manthan3|hqs|pedant   engine selection (default manthan3)
//     --timeout <seconds>            per-run budget (default 60)
//     --preprocess                   run HqspreLite first
//     --blif <file>                  write functions as BLIF
//     --verilog <file>               write functions as Verilog
//     --seed <n>                     engine seed
//     --demo                         use the paper's worked example
//     --planted <seed>               solve a generated planted instance
//     --trace <file>                 write a Chrome trace of the run
//     --metrics-json <file>          write a metrics snapshot as JSON
//     --metrics-prom <file>          write Prometheus text exposition
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "aig/aig_io.hpp"
#include "core/manthan3.hpp"
#include "dqbf/certificate.hpp"
#include "dqbf/dqdimacs.hpp"
#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "preprocess/hqspre_lite.hpp"
#include "workloads/workloads.hpp"

namespace {

const char* kDemo =
    "c DATE'23 paper, Example 1\n"
    "p cnf 6 7\n"
    "a 1 2 3 0\n"
    "d 4 1 0\n"
    "d 5 1 2 0\n"
    "d 6 2 3 0\n"
    "1 4 0\n"
    "-5 4 -2 0\n"
    "5 -4 0\n"
    "5 2 0\n"
    "-6 2 3 0\n"
    "6 -2 0\n"
    "6 -3 0\n";

// SIGINT/SIGTERM flip the token; the engines observe it at their next
// deadline poll, return a truncated kTimeout result, and the normal exit
// path still flushes --trace/--metrics-json — an interrupted run reports
// its telemetry instead of vanishing.
manthan::util::CancelToken g_interrupt;

extern "C" void cli_handle_signal(int) { g_interrupt.cancel(); }

struct CliOptions {
  std::string engine = "manthan3";
  double timeout = 60.0;
  bool preprocess = false;
  bool demo = false;
  bool planted = false;
  std::uint64_t planted_seed = 1;
  std::string blif_path;
  std::string verilog_path;
  std::string trace_path;
  std::string metrics_json_path;
  std::string metrics_prom_path;
  std::string input_path;
  std::uint64_t seed = 42;
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--engine manthan3|hqs|pedant] [--timeout S]"
               " [--preprocess] [--blif F] [--verilog F]"
               " [--trace F] [--metrics-json F] [--metrics-prom F]"
               " [--seed N] (--demo | --planted SEED | instance.dqdimacs)\n";
  return 2;
}

/// The --engine tokens; nullopt for an unknown token.
std::optional<manthan::engine::EngineKind> engine_from_token(
    const std::string& token) {
  using manthan::engine::EngineKind;
  if (token == "manthan3") return EngineKind::kManthan3;
  if (token == "hqs") return EngineKind::kHqsLite;
  if (token == "pedant") return EngineKind::kPedantLite;
  return std::nullopt;
}

/// Flush telemetry to the files requested on the command line. Called on
/// every exit path after the solve so even UNREALIZABLE runs report.
void write_telemetry(const CliOptions& cli) {
  if (!cli.trace_path.empty()) {
    if (manthan::obs::write_trace_json_atomic(cli.trace_path)) {
      std::cout << "wrote " << cli.trace_path << " ("
                << manthan::obs::trace_event_count() << " events)\n";
    } else {
      std::cerr << "cannot write " << cli.trace_path << "\n";
    }
  }
  if (!cli.metrics_json_path.empty()) {
    manthan::obs::write_file_atomic(
        cli.metrics_json_path, manthan::obs::Registry::global().to_json());
    std::cout << "wrote " << cli.metrics_json_path << "\n";
  }
  if (!cli.metrics_prom_path.empty()) {
    manthan::obs::write_file_atomic(
        cli.metrics_prom_path,
        manthan::obs::Registry::global().to_prometheus());
    std::cout << "wrote " << cli.metrics_prom_path << "\n";
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
    if (arg == "--engine") {
      cli.engine = next("--engine");
    } else if (arg == "--timeout") {
      cli.timeout = std::stod(next("--timeout"));
    } else if (arg == "--preprocess") {
      cli.preprocess = true;
    } else if (arg == "--blif") {
      cli.blif_path = next("--blif");
    } else if (arg == "--verilog") {
      cli.verilog_path = next("--verilog");
    } else if (arg == "--seed") {
      cli.seed = std::stoull(next("--seed"));
    } else if (arg == "--demo") {
      cli.demo = true;
    } else if (arg == "--planted") {
      cli.planted = true;
      cli.planted_seed = std::stoull(next("--planted"));
    } else if (arg == "--trace") {
      cli.trace_path = next("--trace");
    } else if (arg == "--metrics-json") {
      cli.metrics_json_path = next("--metrics-json");
    } else if (arg == "--metrics-prom") {
      cli.metrics_prom_path = next("--metrics-prom");
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]);
    } else if (!arg.empty() && arg[0] != '-') {
      cli.input_path = arg;
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return usage(argv[0]);
    }
  }
  if (!cli.demo && !cli.planted && cli.input_path.empty()) {
    return usage(argv[0]);
  }
  const std::optional<manthan::engine::EngineKind> engine =
      engine_from_token(cli.engine);
  if (!engine) {
    std::cerr << "unknown engine " << cli.engine << "\n";
    return usage(argv[0]);
  }
  if (!cli.trace_path.empty()) manthan::obs::start_tracing();
  // Export the service_* series (zero-valued: the CLI solves in-process)
  // so one scrape config covers the CLI and the daemon alike.
  if (!cli.metrics_json_path.empty() || !cli.metrics_prom_path.empty()) {
    manthan::engine::register_service_metrics();
  }

  // --- load -----------------------------------------------------------
  manthan::dqbf::DqbfFormula original;
  try {
    if (cli.planted) {
      // Same planted-family shape the core micro-benchmarks exercise:
      // nested dependency chains, tree-learnable functions, enough
      // clauses to force several verify/repair rounds.
      manthan::workloads::PlantedParams params;
      params.num_universals = 12;
      params.num_existentials = 6;
      params.dep_size = 4;
      params.function_gates = 6;
      params.num_clauses = 80;
      params.seed = cli.planted_seed;
      params.nested_deps = true;
      params.dep_size_max = 10;
      original = manthan::workloads::gen_planted(params);
    } else if (cli.demo) {
      original = manthan::dqbf::parse_dqdimacs_string(kDemo);
    } else {
      std::ifstream in(cli.input_path);
      if (!in) {
        std::cerr << "cannot open " << cli.input_path << "\n";
        return 2;
      }
      original = manthan::dqbf::parse_dqdimacs(in);
    }
  } catch (const std::exception& e) {
    std::cerr << "parse error: " << e.what() << "\n";
    return 2;
  }
  std::cout << "instance: " << original.num_universals() << " universals, "
            << original.num_existentials() << " existentials, "
            << original.matrix().num_clauses() << " clauses\n";

  // --- preprocess (optional) --------------------------------------------
  manthan::preprocess::PreprocessResult pre;
  const manthan::dqbf::DqbfFormula* to_solve = &original;
  if (cli.preprocess) {
    pre = manthan::preprocess::HqspreLite().run(original);
    if (pre.proven_false) {
      std::cout << "result: UNREALIZABLE (preprocessing)\n";
      return 20;
    }
    std::cout << "preprocessed: " << pre.simplified.matrix().num_clauses()
              << " clauses, " << pre.eliminated.size()
              << " outputs eliminated\n";
    to_solve = &pre.simplified;
  }

  // --- solve -------------------------------------------------------------
  std::signal(SIGINT, cli_handle_signal);
  std::signal(SIGTERM, cli_handle_signal);
  manthan::aig::Aig manager;
  manthan::engine::EngineOptions options;
  options.time_limit_seconds = cli.timeout;
  options.seed = cli.seed;
  options.cancel = &g_interrupt;
  const manthan::core::SynthesisResult result =
      manthan::engine::run_engine(*to_solve, manager, *engine, options);
  if (g_interrupt.cancelled()) {
    std::cout << "interrupted: truncated "
              << manthan::engine::status_name(result.status)
              << " result after " << result.stats.total_seconds << " s\n";
  }

  std::cout << "engine: " << cli.engine << ", status: "
            << manthan::engine::status_name(result.status) << "\n";
  for (const manthan::core::StatField& f : manthan::core::kStatFields) {
    std::cout << f.name << ' ' << manthan::core::stat_text(result.stats, f)
              << '\n';
  }
  write_telemetry(cli);
  if (result.status == manthan::core::SynthesisStatus::kUnrealizable) {
    std::cout << "result: UNREALIZABLE\n";
    return 20;
  }
  if (result.status != manthan::core::SynthesisStatus::kRealizable) {
    return 1;
  }

  // --- reconstruct + certify ----------------------------------------------
  std::vector<manthan::aig::Ref> functions = result.vector.functions;
  if (cli.preprocess) {
    functions = manthan::preprocess::HqspreLite::reconstruct(
        original, pre, functions);
  }
  manthan::dqbf::HenkinVector vector{functions};
  const auto cert =
      manthan::dqbf::check_certificate(original, manager, vector);
  if (cert.status != manthan::dqbf::CertificateStatus::kValid) {
    std::cout << "result: INVALID CERTIFICATE (engine bug!)\n";
    return 1;
  }
  std::cout << "result: REALIZABLE, certificate valid\n";

  // --- export --------------------------------------------------------------
  std::vector<manthan::aig::NamedFunction> named;
  for (std::size_t i = 0; i < functions.size(); ++i) {
    named.push_back({"y" + std::to_string(
                              original.existentials()[i].var + 1),
                     functions[i]});
  }
  if (!cli.blif_path.empty()) {
    std::ofstream out(cli.blif_path);
    manthan::aig::write_blif(out, manager, "henkin_functions", named);
    std::cout << "wrote " << cli.blif_path << "\n";
  }
  if (!cli.verilog_path.empty()) {
    std::ofstream out(cli.verilog_path);
    manthan::aig::write_verilog(out, manager, "henkin_functions", named);
    std::cout << "wrote " << cli.verilog_path << "\n";
  }
  return 10;  // SAT-style exit code for realizable
}
