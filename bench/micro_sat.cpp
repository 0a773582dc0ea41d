// Component micro-benchmark: CDCL solver throughput on random 3-SAT near
// and away from the phase transition, assumption-core extraction, pure
// propagation throughput (binary implication chains), and the matrices of
// the planted / xor-family workload generators.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "cnf/cnf.hpp"
#include "dqbf/dqbf.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace {

using manthan::cnf::CnfFormula;
using manthan::cnf::Lit;
using manthan::cnf::Var;

CnfFormula random_3sat(Var num_vars, double ratio, std::uint64_t seed) {
  manthan::util::Rng rng(seed);
  CnfFormula f(num_vars);
  const auto num_clauses = static_cast<std::size_t>(
      ratio * static_cast<double>(num_vars));
  for (std::size_t c = 0; c < num_clauses; ++c) {
    manthan::cnf::Clause clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(Lit(static_cast<Var>(rng.next_below(
                               static_cast<std::uint64_t>(num_vars))),
                           rng.flip()));
    }
    f.add_clause(clause);
  }
  return f;
}

void BM_SatEasy(benchmark::State& state) {
  const CnfFormula f = random_3sat(static_cast<Var>(state.range(0)), 2.0, 7);
  for (auto _ : state) {
    manthan::sat::Solver s;
    s.add_formula(f);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatEasy)->Arg(50)->Arg(100)->Arg(200);

void BM_SatPhaseTransition(benchmark::State& state) {
  const CnfFormula f =
      random_3sat(static_cast<Var>(state.range(0)), 4.26, 11);
  for (auto _ : state) {
    manthan::sat::Solver s;
    s.add_formula(f);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatPhaseTransition)->Arg(50)->Arg(75)->Arg(100);

void BM_SatAssumptionCores(benchmark::State& state) {
  const CnfFormula f = random_3sat(60, 3.0, 13);
  manthan::sat::Solver s;
  s.add_formula(f);
  manthan::util::Rng rng(17);
  for (auto _ : state) {
    std::vector<Lit> assumptions;
    for (Var v = 0; v < 12; ++v) assumptions.push_back(Lit(v, rng.flip()));
    benchmark::DoNotOptimize(s.solve(assumptions));
  }
}
BENCHMARK(BM_SatAssumptionCores);

// --- propagation throughput -------------------------------------------------

/// Binary implication chains driven by assumptions: every solve() call
/// re-propagates all chains from the assumed heads and backtracks, with
/// zero conflicts, so items/second reports raw watched-literal
/// propagation throughput (the solver is built once, outside the loop).
void BM_SatPropagationChains(benchmark::State& state) {
  const std::size_t chains = 16;
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  manthan::sat::Solver s;
  std::vector<Lit> assumptions;
  for (std::size_t c = 0; c < chains; ++c) {
    const Var base = static_cast<Var>(c * length);
    for (std::size_t i = 0; i + 1 < length; ++i) {
      s.add_clause({manthan::cnf::neg(base + static_cast<Var>(i)),
                    manthan::cnf::pos(base + static_cast<Var>(i + 1))});
    }
    assumptions.push_back(manthan::cnf::pos(base));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.solve(assumptions));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(s.stats().propagations));
}
BENCHMARK(BM_SatPropagationChains)->Arg(256)->Arg(2048);

/// Ternary-clause ladder driven by assumptions: each rung forces a
/// replacement-watch search, stressing the long-clause (non-binary)
/// propagation path.
void BM_SatPropagationTernary(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  manthan::sat::Solver s;
  for (std::size_t i = 0; i + 2 < length; ++i) {
    const Var v = static_cast<Var>(i);
    s.add_clause({manthan::cnf::neg(v), manthan::cnf::neg(v + 1),
                  manthan::cnf::pos(v + 2)});
  }
  const std::vector<Lit> assumptions{manthan::cnf::pos(0),
                                     manthan::cnf::pos(1)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.solve(assumptions));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(s.stats().propagations));
}
BENCHMARK(BM_SatPropagationTernary)->Arg(4096)->Arg(32768);

/// Formula loading: add_formula cost for a large binary-chain CNF
/// (clause normalization + arena append + watcher attachment).
void BM_SatAddFormula(benchmark::State& state) {
  const std::size_t length = static_cast<std::size_t>(state.range(0));
  CnfFormula f(static_cast<Var>(length));
  for (std::size_t i = 0; i + 1 < length; ++i) {
    f.add_binary(manthan::cnf::neg(static_cast<Var>(i)),
                 manthan::cnf::pos(static_cast<Var>(i + 1)));
  }
  for (auto _ : state) {
    manthan::sat::Solver s;
    s.add_formula(f);
    benchmark::DoNotOptimize(s.num_vars());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(length - 1));
}
BENCHMARK(BM_SatAddFormula)->Arg(32768);

// --- workload-family matrices ----------------------------------------------

/// Planted-family matrix (True by construction): structured clauses over
/// AND/XOR planted functions, solved with fresh solvers.
void BM_SatPlantedMatrix(benchmark::State& state) {
  manthan::workloads::PlantedParams params;
  params.num_universals = 20;
  params.num_existentials = 10;
  params.dep_size = 5;
  params.function_gates = 10;
  params.num_clauses = static_cast<std::size_t>(state.range(0));
  params.seed = 5;
  const manthan::dqbf::DqbfFormula dqbf =
      manthan::workloads::gen_planted(params);
  const CnfFormula& f = dqbf.matrix();
  for (auto _ : state) {
    manthan::sat::Solver s;
    s.add_formula(f);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatPlantedMatrix)->Arg(200)->Arg(800);

/// XOR-family matrix (split-dependency chains from the paper's §5): XOR
/// constraints keep the solver branching instead of propagating to a
/// model immediately.
void BM_SatXorFamilyMatrix(benchmark::State& state) {
  manthan::workloads::XorChainParams params;
  params.num_pairs = static_cast<std::size_t>(state.range(0));
  params.xor_with_shared = true;
  params.seed = 3;
  const manthan::dqbf::DqbfFormula dqbf =
      manthan::workloads::gen_xor_chain(params);
  const CnfFormula& f = dqbf.matrix();
  for (auto _ : state) {
    manthan::sat::Solver s;
    s.add_formula(f);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatXorFamilyMatrix)->Arg(64)->Arg(512);

/// Long-session variable churn: rounds of fresh selector variables with
/// guarded clauses, each solved once and retired. Every dead selector
/// keeps its slot, so this prices what a session pays for never
/// renumbering.
void BM_SatRetireChurn(benchmark::State& state) {
  for (auto _ : state) {
    manthan::sat::Solver s;
    const CnfFormula base = random_3sat(40, 3.0, 41);
    s.add_formula(base);
    for (int round = 0; round < 64; ++round) {
      const Lit act = manthan::cnf::pos(s.new_var());
      for (Var v = 0; v < 6; ++v) {
        s.add_clause_activated({Lit(v, (round + v) % 2 == 0),
                                Lit(static_cast<Var>(v + 7), v % 2 == 0)},
                               act);
      }
      benchmark::DoNotOptimize(s.solve({act}));
      s.retire(act);
    }
  }
}
BENCHMARK(BM_SatRetireChurn);

/// Learnt-clause churn: an unsatisfiable over-constrained instance drives
/// thousands of conflicts through clause learning, database reduction and
/// (with the arena) garbage collection.
void BM_SatLearntChurn(benchmark::State& state) {
  const CnfFormula f =
      random_3sat(static_cast<Var>(state.range(0)), 5.2, 29);
  for (auto _ : state) {
    manthan::sat::Solver s;
    s.add_formula(f);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatLearntChurn)->Arg(90);

}  // namespace

BENCHMARK_MAIN();
