// Multi-engine evaluation harness.
//
// Reproduces the paper's evaluation methodology (§6): run every engine on
// every instance under a per-instance budget, certify every returned
// vector with the independent checker, and derive Virtual Best Synthesizer
// (VBS) portfolios. "Solved" always means *synthesized and certified* —
// an engine never gets credit for an uncertified answer.
#pragma once

#include <string>
#include <vector>

#include "core/manthan3.hpp"
#include "engine/engine.hpp"
#include "engine/service.hpp"
#include "workloads/workloads.hpp"

namespace manthan::portfolio {

// The engine identity and naming live in the execution-engine subsystem
// (src/engine/); the portfolio layer re-exports them for its clients.
using EngineKind = engine::EngineKind;
using engine::engine_name;
using engine::status_name;

struct RunRecord {
  std::string instance;
  std::string family;
  EngineKind engine = EngineKind::kManthan3;
  core::SynthesisStatus status = core::SynthesisStatus::kLimit;
  /// Certificate-checker verdict for kRealizable results.
  bool certified = false;
  /// Answered from a service's tier-1 result cache (service-routed
  /// suites only; the direct paths always solve).
  bool cache_hit = false;
  double seconds = 0.0;
  core::SynthesisStats stats;

  /// Synthesized a Henkin vector that passed independent certification.
  bool solved() const {
    return status == core::SynthesisStatus::kRealizable && certified;
  }
};

struct RunnerOptions {
  /// Per-instance, per-engine wall-clock budget (the paper's 7200 s,
  /// scaled to laptop instances).
  double per_instance_seconds = 5.0;
  /// Suite-level seed. Every (instance, engine) job derives its own
  /// stream with util::derive_seed(seed, hash64(instance name), engine),
  /// so parallel and serial runs draw identical randomness per job — see
  /// the determinism contract in util/rng.hpp.
  std::uint64_t seed = 42;
};

/// Fan-out configuration for the parallel run_suite path.
struct ParallelOptions {
  /// Scheduler worker count; 0 = std::thread::hardware_concurrency().
  std::size_t workers = 0;
};

class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  /// Run one engine on one instance and certify the result. Thread-safe:
  /// only reads the runner's options.
  RunRecord run_one(const workloads::Instance& instance,
                    EngineKind engine) const;

  /// Run every engine on every instance, serially.
  std::vector<RunRecord> run_suite(
      const std::vector<workloads::Instance>& suite,
      const std::vector<EngineKind>& engines) const;

  /// Fan the instance×engine jobs across a scheduler thread pool.
  /// Records come back in the serial path's order (instance-major), and
  /// the per-job seed derivation makes them identical to a serial run
  /// (up to wall-clock fields and timing-dependent statuses — irrelevant
  /// when budgets are comfortable).
  std::vector<RunRecord> run_suite(
      const std::vector<workloads::Instance>& suite,
      const std::vector<EngineKind>& engines,
      const ParallelOptions& parallel) const;

  /// Route the suite through a synthesis service: every (instance,
  /// engine) pair is submitted with the engine forced, the service's
  /// pool provides the parallelism, and duplicate instances (including
  /// isomorphic renamings) are answered from the tier-1 cache —
  /// cache-served records carry cache_hit = true and the cached run's
  /// stats. Seeds derive from spec fingerprints (the service's
  /// contract), not instance names, so timings differ from the direct
  /// paths while statuses agree under comfortable budgets. The runner's
  /// per_instance_seconds overrides the service default budget.
  std::vector<RunRecord> run_suite(
      const std::vector<workloads::Instance>& suite,
      const std::vector<EngineKind>& engines,
      engine::Service& service) const;

 private:
  RunnerOptions options_;
};

// --- portfolio analytics ----------------------------------------------------

/// Runtime of the virtual best synthesizer on each instance: the minimum
/// solving time among `engines` (only instances solved by at least one).
/// Returned sorted ascending — exactly the series of a cactus plot.
std::vector<double> vbs_cactus_series(const std::vector<RunRecord>& records,
                                      const std::vector<EngineKind>& engines);

/// (x, y) pairs for a scatter plot: per instance, the solving time of each
/// engine (or `timeout_value` when unsolved). VBS of several engines can
/// be requested by passing multiple kinds on one axis.
struct ScatterPoint {
  std::string instance;
  double x_seconds;
  double y_seconds;
};
std::vector<ScatterPoint> scatter_points(
    const std::vector<RunRecord>& records,
    const std::vector<EngineKind>& x_engines,
    const std::vector<EngineKind>& y_engines, double timeout_value);

/// Headline counts of §6: per-tool solved, VBS with/without Manthan3,
/// fastest-tool counts, unique solves, and Manthan3's
/// incomplete-vs-timeout split.
struct SolvedCounts {
  std::size_t total_instances = 0;
  std::size_t solved_manthan3 = 0;
  std::size_t solved_hqs = 0;
  std::size_t solved_pedant = 0;
  std::size_t vbs_without_manthan3 = 0;
  std::size_t vbs_with_manthan3 = 0;
  std::size_t manthan3_unique = 0;       // solved by Manthan3 only
  std::size_t manthan3_fastest = 0;      // strictly fastest among solvers
  std::size_t manthan3_not_hqs = 0;      // Manthan3 yes, HQS no
  std::size_t manthan3_not_pedant = 0;   // Manthan3 yes, Pedant no
  std::size_t others_not_manthan3 = 0;   // some baseline yes, Manthan3 no
  std::size_t manthan3_incomplete = 0;   // of the misses: incompleteness
  std::size_t manthan3_timeout = 0;      // of the misses: budget
  std::size_t unrealizable_detected = 0; // False verdicts (any engine)
};
SolvedCounts compute_solved_counts(const std::vector<RunRecord>& records);

}  // namespace manthan::portfolio
