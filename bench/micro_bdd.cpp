// Component micro-benchmark: BDD engine throughput — CNF conjunction
// builds, quantification, and composition on structured formulas — and
// the two BDD steps of PedantLite's unique-definition pass on standard-suite
// matrices: the matrix build (BM_BddSuiteMatrix) and one definition's
// extraction (BM_BddExtractDefinition).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "bdd/bdd.hpp"
#include "cnf/cnf.hpp"
#include "core/unique_def.hpp"
#include "dqbf/dqbf.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace {

using manthan::bdd::Bdd;
using manthan::bdd::NodeId;
using manthan::cnf::CnfFormula;
using manthan::cnf::Lit;
using manthan::cnf::Var;

CnfFormula chained_constraints(Var n, std::uint64_t seed) {
  manthan::util::Rng rng(seed);
  CnfFormula f(n);
  for (Var v = 0; v + 2 < n; ++v) {
    // (v or v+1 or ~v+2) style local clauses: tractable BDDs.
    f.add_clause({Lit(v, rng.flip()), Lit(v + 1, rng.flip()),
                  Lit(v + 2, rng.flip())});
  }
  return f;
}

void BM_BddFromCnf(benchmark::State& state) {
  const CnfFormula f =
      chained_constraints(static_cast<Var>(state.range(0)), 3);
  for (auto _ : state) {
    Bdd b;
    benchmark::DoNotOptimize(b.from_cnf(f));
  }
}
BENCHMARK(BM_BddFromCnf)->Arg(16)->Arg(32)->Arg(64);

void BM_BddExists(benchmark::State& state) {
  const Var n = static_cast<Var>(state.range(0));
  const CnfFormula f = chained_constraints(n, 5);
  Bdd b;
  const NodeId root = b.from_cnf(f);
  std::vector<std::int32_t> half;
  for (Var v = 0; v < n; v += 2) half.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.exists(root, half));
  }
}
BENCHMARK(BM_BddExists)->Arg(16)->Arg(32)->Arg(64);

void BM_BddCompose(benchmark::State& state) {
  const Var n = static_cast<Var>(state.range(0));
  const CnfFormula f = chained_constraints(n, 7);
  Bdd b;
  const NodeId root = b.from_cnf(f);
  const NodeId g = b.xor_op(b.var_node(1), b.var_node(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.compose(root, 0, g));
  }
}
BENCHMARK(BM_BddCompose)->Arg(16)->Arg(32);

void BM_BddSatCount(benchmark::State& state) {
  const Var n = 32;
  const CnfFormula f = chained_constraints(n, 9);
  Bdd b;
  const NodeId root = b.from_cnf(f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(b.sat_count(root, static_cast<std::size_t>(n)));
  }
}
BENCHMARK(BM_BddSatCount);

// Suite specs whose matrix BDDs dominate the unique-definition pass.
const char* const kSuiteMatrices[] = {"pec_7x2_s0", "controller_4x3_s0"};

const manthan::dqbf::DqbfFormula& suite_formula(const std::string& name) {
  static const std::vector<manthan::workloads::Instance> suite =
      manthan::workloads::standard_suite(manthan::workloads::SuiteParams{});
  const auto it =
      std::find_if(suite.begin(), suite.end(),
                   [&](const auto& instance) { return instance.name == name; });
  return it->formula;
}

// Arg: index into kSuiteMatrices.
void BM_BddSuiteMatrix(benchmark::State& state) {
  const std::string name = kSuiteMatrices[state.range(0)];
  const CnfFormula& matrix = suite_formula(name).matrix();
  std::size_t nodes = 0;
  for (auto _ : state) {
    Bdd b;
    benchmark::DoNotOptimize(b.from_cnf(matrix));
    nodes = b.num_nodes();
  }
  state.SetLabel(name);
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_BddSuiteMatrix)->Arg(0)->Arg(1);

// exists + restrict_var for the first existential of the spec that is
// uniquely defined, as UniqueDefExtractor::extract does it right after the
// build: each iteration works on an untimed copy of the freshly built
// manager, so no iteration sees another's results in the computed table.
void BM_BddExtractDefinition(benchmark::State& state) {
  const std::string name = kSuiteMatrices[state.range(0)];
  const manthan::dqbf::DqbfFormula& formula = suite_formula(name);
  manthan::core::UniqueDefExtractor padoa(formula);
  std::size_t index = 0;
  while (index < formula.existentials().size() &&
         padoa.is_defined(index) !=
             manthan::core::UniqueDefExtractor::Defined::kYes) {
    ++index;
  }
  if (index == formula.existentials().size()) {
    state.SkipWithError("no uniquely defined existential");
    return;
  }
  const manthan::dqbf::Existential& e = formula.existentials()[index];
  std::vector<std::int32_t> eliminate;
  for (Var v = 0; v < formula.matrix().num_vars(); ++v) {
    if (v != e.var &&
        !std::binary_search(e.deps.begin(), e.deps.end(), v)) {
      eliminate.push_back(v);
    }
  }
  Bdd built;
  const NodeId matrix = built.from_cnf(formula.matrix());
  for (auto _ : state) {
    state.PauseTiming();
    Bdd b = built;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        b.restrict_var(b.exists(matrix, eliminate), e.var, true));
  }
  state.SetLabel(name + " y=" + std::to_string(e.var));
}
BENCHMARK(BM_BddExtractDefinition)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
