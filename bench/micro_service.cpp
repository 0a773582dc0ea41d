// Synthesis service micro-benchmark: cold-solve vs warm cache-hit
// latency, fingerprint/canonicalization overhead (the tax every request
// pays), queue throughput at 1/2/4/8 workers, and the cache hit-rate on
// a duplicated suite.
//
// The headline pair is BM_ServiceColdSolve vs BM_ServiceWarmHit: the
// cold number is a full Manthan3 run (sampling, learning, verify/repair,
// certification), the warm number is a canonicalize + LRU lookup + cone
// import — three to four orders of magnitude apart. hit_rate on
// BM_ServiceDuplicatedSuite documents that every duplicate request is
// served from tier 1.
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dqbf/fingerprint.hpp"
#include "engine/service.hpp"
#include "workloads/workloads.hpp"

namespace {

using manthan::engine::EngineKind;
using manthan::engine::Service;
using manthan::engine::ServiceOptions;
using manthan::engine::ServiceResponse;
using manthan::engine::ServiceStats;

double host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1.0 : static_cast<double>(n);
}

/// Nested-dependency planted instance (~ms of Manthan3 work including a
/// real verify/repair loop) — the per-request unit of the suite benches.
manthan::dqbf::DqbfFormula planted(std::uint64_t seed) {
  manthan::workloads::PlantedParams params;
  params.num_universals = 10;
  params.num_existentials = 5;
  params.dep_size = 3;
  params.function_gates = 5;
  params.num_clauses = 60;
  params.seed = seed;
  params.xor_functions = false;
  params.nested_deps = true;
  params.dep_size_max = 8;
  return manthan::workloads::gen_planted(params);
}

ServiceOptions single_engine(std::size_t workers) {
  ServiceOptions options;
  options.workers = workers;
  options.admission = ServiceOptions::Admission::kSingle;
  options.single_engine = EngineKind::kManthan3;
  return options;
}

/// Canonicalization alone: the fixed per-request overhead added by the
/// service layer (WL refinement + clause-set hashing).
void BM_Canonicalize(benchmark::State& state) {
  const manthan::dqbf::DqbfFormula formula = planted(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(manthan::dqbf::canonicalize(formula));
  }
}
BENCHMARK(BM_Canonicalize)->Unit(benchmark::kMicrosecond);

/// Cold request: full solve + certification through a fresh service.
void BM_ServiceColdSolve(benchmark::State& state) {
  const manthan::dqbf::DqbfFormula formula = planted(7);
  for (auto _ : state) {
    Service service(single_engine(1));
    manthan::aig::Aig manager;
    benchmark::DoNotOptimize(service.solve(formula, manager).solved());
  }
  state.counters["cores"] = host_cores();
}
BENCHMARK(BM_ServiceColdSolve)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Warm request: same spec against a populated cache — canonicalize,
/// tier-1 lookup, cone import into a fresh manager.
void BM_ServiceWarmHit(benchmark::State& state) {
  const manthan::dqbf::DqbfFormula formula = planted(7);
  Service service(single_engine(1));
  {
    manthan::aig::Aig manager;
    if (!service.solve(formula, manager).solved()) {
      state.SkipWithError("warm-up solve failed");
      return;
    }
  }
  std::size_t hits = 0;
  for (auto _ : state) {
    manthan::aig::Aig manager;
    const auto result = service.solve(formula, manager);
    hits += result.response.cache_hit ? 1 : 0;
    benchmark::DoNotOptimize(result.vector.functions.size());
  }
  state.counters["hits"] = static_cast<double>(hits);
  manthan::bench::report_memory_counters(state);
}
BENCHMARK(BM_ServiceWarmHit)->Unit(benchmark::kMicrosecond);

/// Queue throughput: 8 distinct requests submitted at once, drained by
/// 1/2/4/8 workers (kSingle admission — every worker takes a request).
void BM_ServiceQueueThroughput(benchmark::State& state) {
  // Seeds whose instances Manthan3 solves under the service's
  // fingerprint-derived streams (others hit the engine's documented
  // incompleteness and would make `solved` noisy).
  std::vector<manthan::dqbf::DqbfFormula> formulas;
  for (const std::uint64_t seed : {2, 3, 5, 6, 7, 8, 9, 11}) {
    formulas.push_back(planted(seed));
  }
  std::size_t solved = 0;
  for (auto _ : state) {
    ServiceOptions options = single_engine(
        static_cast<std::size_t>(state.range(0)));
    options.result_cache = false;  // measure solving, not caching
    Service service(options);
    std::vector<std::shared_future<ServiceResponse>> futures;
    for (const auto& formula : formulas) {
      futures.push_back(service.submit(formula));
    }
    solved = 0;
    for (auto& future : futures) {
      solved += future.get().solved() ? 1 : 0;
    }
  }
  state.counters["workers"] = static_cast<double>(state.range(0));
  state.counters["cores"] = host_cores();
  state.counters["solved"] = static_cast<double>(solved);
}
BENCHMARK(BM_ServiceQueueThroughput)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Duplicated suite: every instance submitted twice through one service.
/// The second pass is answered from tier 1 (or coalesced when still in
/// flight) — hit_rate records the cache's share of all requests.
void BM_ServiceDuplicatedSuite(benchmark::State& state) {
  // Solvable-seed suite (see BM_ServiceQueueThroughput): only definitive
  // verdicts enter the cache, so the expected hit_rate is exactly 0.5.
  std::vector<manthan::dqbf::DqbfFormula> formulas;
  for (const std::uint64_t seed : {2, 3, 5, 6, 7, 8}) {
    formulas.push_back(planted(seed));
  }
  double hit_rate = 0.0;
  for (auto _ : state) {
    Service service(single_engine(2));
    // First pass: populate. Second pass: every request is a duplicate.
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<std::shared_future<ServiceResponse>> futures;
      for (const auto& formula : formulas) {
        futures.push_back(service.submit(formula));
      }
      for (auto& future : futures) future.get();
    }
    const ServiceStats stats = service.stats();
    hit_rate = static_cast<double>(stats.tier1_hits + stats.coalesced) /
               static_cast<double>(stats.requests);
  }
  state.counters["hit_rate"] = hit_rate;
  state.counters["cores"] = host_cores();
}
BENCHMARK(BM_ServiceDuplicatedSuite)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
