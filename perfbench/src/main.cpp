// perfbench — the repository benchmark driver.
//
//   perfbench --workload <paper_suite|daemon_stream> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//
// Per-run rows go to stdout as JSON lines; the last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// per-layer metrics. See perfbench/README.md for definitions.
#include <cstdlib>
#include <iostream>
#include <string>

#include "report.hpp"

namespace {

int usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <paper_suite|daemon_stream> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--workdir") {
      options.workdir = value;
    } else {
      return usage("unknown argument");
    }
  }
  if (options.workdir.empty()) return usage("--workdir is required");

  perfbench::Outcome outcome;
  if (options.workload == "paper_suite") {
    outcome = perfbench::run_paper_suite(options);
  } else if (options.workload == "daemon_stream") {
    outcome = perfbench::run_daemon_stream(options);
  } else {
    return usage("unknown workload");
  }
  std::cout << perfbench::outcome_json(outcome) << std::endl;
  return 0;
}
