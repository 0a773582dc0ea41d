// Parallel execution engine micro-benchmark: scheduler dispatch overhead,
// concurrency (overlap of blocking jobs), parallel suite throughput at
// 1/2/4/8 workers on the planted suite, and the racing portfolio.
//
// The worker-scaling series (BM_ParallelSuite) is the headline number:
// wall-clock per suite as the worker count doubles. Speedup tops out at
// the machine's core count — the `cores` counter records what the host
// actually had, so a 1-core container showing ~1x is expected, not a
// regression; CI's multi-core runners show the real curve.
#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>
#include <vector>

#include "engine/race.hpp"
#include "portfolio/runner.hpp"
#include "util/scheduler.hpp"
#include "workloads/workloads.hpp"

namespace {

using manthan::engine::EngineKind;
using manthan::util::Scheduler;
using manthan::portfolio::ParallelOptions;
using manthan::portfolio::RunnerOptions;
using manthan::workloads::Instance;

double host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1.0 : static_cast<double>(n);
}

/// The planted suite the scaling series runs: nested-dependency planted
/// instances at the 8x4 point — roughly 150 ms of Manthan3 work each
/// (sampling, learning, and a real verify/repair loop), heavy enough
/// that fan-out dominates scheduler overhead by orders of magnitude.
std::vector<Instance> planted_suite(std::size_t count) {
  std::vector<Instance> suite;
  suite.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    manthan::workloads::PlantedParams params;
    params.num_universals = 8;
    params.num_existentials = 4;
    params.dep_size = 3;
    params.function_gates = 5;
    params.num_clauses = 30;
    params.seed = 101 + i;
    params.nested_deps = true;
    params.dep_size_max = 6;
    suite.push_back({"planted_" + std::to_string(i), "planted",
                     manthan::workloads::gen_planted(params)});
  }
  return suite;
}

/// Scheduler dispatch overhead: trivial jobs through one worker.
void BM_SchedulerDispatch(benchmark::State& state) {
  Scheduler pool(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.submit([]() { return 1; }).get());
  }
}
BENCHMARK(BM_SchedulerDispatch);

/// Concurrency of blocking jobs: 16 x 2 ms sleeps on N workers must
/// overlap (~32/N ms wall), independent of the host's core count.
void BM_SchedulerOverlap(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Scheduler pool(workers);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }));
    }
    for (auto& f : futures) f.get();
  }
  state.counters["workers"] = static_cast<double>(workers);
}
BENCHMARK(BM_SchedulerOverlap)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Headline scaling: the planted suite (8 instances x Manthan3) fanned
/// across 1/2/4/8 workers. CPU-bound: speedup follows physical cores.
void BM_ParallelSuite(benchmark::State& state) {
  const std::vector<Instance> suite = planted_suite(8);
  RunnerOptions options;
  options.per_instance_seconds = 60.0;
  const manthan::portfolio::Runner runner(options);
  const std::vector<EngineKind> engines{EngineKind::kManthan3};
  const ParallelOptions parallel{static_cast<std::size_t>(state.range(0))};
  std::size_t solved = 0;
  for (auto _ : state) {
    const auto records = runner.run_suite(suite, engines, parallel);
    solved = 0;
    for (const auto& r : records) solved += r.solved() ? 1 : 0;
    benchmark::DoNotOptimize(solved);
  }
  state.counters["workers"] = static_cast<double>(state.range(0));
  state.counters["cores"] = host_cores();
  state.counters["solved"] = static_cast<double>(solved);
}
BENCHMARK(BM_ParallelSuite)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Racing portfolio latency on an instance with strong engine asymmetry
/// (HqsLite wins, the others are cancelled) vs. the serial sum.
void BM_RacePortfolio(benchmark::State& state) {
  manthan::workloads::PlantedParams params{16, 6, 5, 5, 180, 3};
  params.xor_functions = false;
  params.nested_deps = true;
  params.dep_size_max = 12;
  const manthan::dqbf::DqbfFormula formula =
      manthan::workloads::gen_planted(params);
  std::size_t cancelled = 0;
  for (auto _ : state) {
    manthan::aig::Aig manager;
    manthan::engine::RaceOptions options;
    options.time_limit_seconds = 120.0;
    const manthan::engine::RaceOutcome outcome =
        manthan::engine::race(formula, manager, options);
    cancelled = 0;
    for (const auto& lane : outcome.lanes) cancelled += lane.cancelled;
    benchmark::DoNotOptimize(outcome.solved());
  }
  state.counters["lanes_cancelled"] = static_cast<double>(cancelled);
  state.counters["cores"] = host_cores();
}
BENCHMARK(BM_RacePortfolio)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
