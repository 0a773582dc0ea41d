// The incremental verify/repair pipeline, differentially tested against
// the from-scratch oracles: the persistent cone encoder against exhaustive
// AIG evaluation, IncrementalRefutation against build_refutation_cnf with
// a fresh solver, and the full incremental Manthan3 pipeline against the
// re-encode-every-round oracle (options.incremental = false) — plus
// solver-retirement and sample-streaming checks on repair-heavy runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "aig/incremental_cnf.hpp"
#include "core/manthan3.hpp"
#include "dqbf/certificate.hpp"
#include "dqbf/incremental_refutation.hpp"
#include "sat/solver.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace manthan {
namespace {

using cnf::neg;
using cnf::pos;
using cnf::Var;

// ---------------------------------------------------------------------------
// IncrementalCnfEncoder
// ---------------------------------------------------------------------------

/// Random AIG cone over inputs [0, num_inputs).
aig::Ref random_cone(aig::Aig& manager, std::int32_t num_inputs,
                     std::size_t gates, util::Rng& rng) {
  std::vector<aig::Ref> pool;
  for (std::int32_t i = 0; i < num_inputs; ++i) {
    pool.push_back(manager.input(i));
  }
  for (std::size_t g = 0; g < gates; ++g) {
    aig::Ref a = pool[rng.next_below(pool.size())];
    aig::Ref b = pool[rng.next_below(pool.size())];
    if (rng.flip()) a = aig::ref_not(a);
    if (rng.flip()) b = aig::ref_not(b);
    pool.push_back(rng.flip() ? manager.and_gate(a, b)
                              : manager.or_gate(a, b));
  }
  return pool.back();
}

class ConeOracle {
 public:
  ConeOracle()
      : encoder_(
            manager_, [this]() { return solver_.new_var(); },
            [this](const cnf::Clause& c) { solver_.add_clause(c); }) {
    solver_.reserve_vars(kInputs);
  }

  static constexpr std::int32_t kInputs = 6;

  /// Encode and exhaustively compare against manager_.evaluate.
  void check_cone(aig::Ref root) {
    const cnf::Lit lit = encoder_.encode(root);
    for (std::uint32_t bits = 0; bits < (1u << kInputs); ++bits) {
      std::vector<cnf::Lit> assumptions;
      std::unordered_map<std::int32_t, bool> inputs;
      for (std::int32_t i = 0; i < kInputs; ++i) {
        const bool value = ((bits >> i) & 1u) != 0;
        inputs[i] = value;
        assumptions.push_back(value ? pos(i) : neg(i));
      }
      ASSERT_EQ(solver_.solve(assumptions), sat::Result::kSat);
      EXPECT_EQ(solver_.model().value(lit), manager_.evaluate(root, inputs))
          << "input pattern " << bits;
    }
  }

  aig::Aig manager_;
  sat::Solver solver_;
  aig::IncrementalCnfEncoder encoder_;
};

TEST(IncrementalCnfEncoder, MatchesExhaustiveEvaluation) {
  util::Rng rng(17);
  ConeOracle oracle;
  for (int round = 0; round < 6; ++round) {
    const aig::Ref root =
        random_cone(oracle.manager_, ConeOracle::kInputs, 12, rng);
    oracle.check_cone(root);
  }
}

TEST(IncrementalCnfEncoder, CachesSharedStructure) {
  util::Rng rng(23);
  ConeOracle oracle;
  const aig::Ref base =
      random_cone(oracle.manager_, ConeOracle::kInputs, 20, rng);
  oracle.check_cone(base);
  const std::uint64_t encoded_after_base = oracle.encoder_.stats().nodes_encoded;
  // Re-encoding the same root is free.
  oracle.encoder_.encode(base);
  EXPECT_EQ(oracle.encoder_.stats().nodes_encoded, encoded_after_base);
  // A cone built on top of `base` only pays for the new gates.
  const aig::Ref grown = oracle.manager_.and_gate(
      base, aig::ref_not(oracle.manager_.input(0)));
  oracle.check_cone(grown);
  EXPECT_LE(oracle.encoder_.stats().nodes_encoded, encoded_after_base + 2);
  EXPECT_GT(oracle.encoder_.stats().nodes_reused, 0u);
}

TEST(IncrementalCnfEncoder, ConstantsAndInputMapping) {
  aig::Aig manager;
  sat::Solver solver;
  const Var mapped = solver.reserve_vars(2);
  aig::IncrementalCnfEncoder encoder(
      manager, [&]() { return solver.new_var(); },
      [&](const cnf::Clause& c) { solver.add_clause(c); });
  encoder.map_input(7, neg(mapped));  // input 7 is ¬v0
  const aig::Ref x = manager.input(7);
  const cnf::Lit x_lit = encoder.encode(x);
  const cnf::Lit false_lit = encoder.encode(aig::kFalseRef);
  const cnf::Lit true_lit = encoder.encode(aig::kTrueRef);
  ASSERT_EQ(solver.solve({pos(mapped)}), sat::Result::kSat);
  EXPECT_FALSE(solver.model().value(x_lit));
  EXPECT_FALSE(solver.model().value(false_lit));
  EXPECT_TRUE(solver.model().value(true_lit));
  ASSERT_EQ(solver.solve({neg(mapped)}), sat::Result::kSat);
  EXPECT_TRUE(solver.model().value(x_lit));
}

// ---------------------------------------------------------------------------
// IncrementalRefutation vs. one-shot build_refutation_cnf
// ---------------------------------------------------------------------------

sat::Result oneshot_verdict(const dqbf::DqbfFormula& formula,
                            const aig::Aig& manager,
                            const dqbf::HenkinVector& candidate) {
  const cnf::CnfFormula refutation =
      dqbf::build_refutation_cnf(formula, manager, candidate);
  sat::Solver solver;
  if (!solver.add_formula(refutation)) return sat::Result::kUnsat;
  return solver.solve();
}

/// Drive a candidate vector through random repair-like mutations and
/// assert the persistent refutation solver agrees with a from-scratch
/// re-encode at every step.
void differential_refutation_sweep(const dqbf::DqbfFormula& formula,
                                   std::uint64_t seed, int rounds) {
  aig::Aig manager;
  util::Rng rng(seed);
  const std::size_t m = formula.num_existentials();
  dqbf::HenkinVector candidate;
  candidate.functions.assign(m, aig::kFalseRef);
  dqbf::IncrementalRefutation incremental(formula, manager);
  for (int round = 0; round < rounds; ++round) {
    const sat::Result expected =
        oneshot_verdict(formula, manager, candidate);
    EXPECT_EQ(incremental.check(candidate), expected)
        << "round " << round << " seed " << seed;
    if (expected == sat::Result::kSat) {
      // The counterexample must actually falsify the substituted spec —
      // i.e. the model really is a model of the incremental encoding.
      const cnf::Assignment& model = incremental.model();
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(model.value(formula.existentials()[i].var),
                  manager.evaluate(candidate.functions[i], model))
            << "candidate output " << i << " out of sync";
      }
    }
    if (m == 0) break;
    // Mutate one candidate the way repair does: conjoin/disjoin a cube
    // over its Henkin dependencies.
    const std::size_t k = rng.next_below(m);
    const auto& deps = formula.existentials()[k].deps;
    aig::Ref cube = aig::kTrueRef;
    for (const Var x : deps) {
      if (rng.flip()) continue;
      aig::Ref in = manager.input(x);
      if (rng.flip()) in = aig::ref_not(in);
      cube = manager.and_gate(cube, in);
    }
    candidate.functions[k] =
        rng.flip() ? manager.and_gate(candidate.functions[k],
                                      aig::ref_not(cube))
                   : manager.or_gate(candidate.functions[k], cube);
  }
  // Multi-round sweeps must have exercised the cache and retirement.
  if (rounds > 2 && m > 1) {
    EXPECT_GT(incremental.stats().cones_reused, 0u);
    EXPECT_GT(incremental.stats().activations_retired, 0u);
  }
}

TEST(IncrementalRefutation, MatchesOneShotOnPaperExample) {
  differential_refutation_sweep(testutil::paper_example(), 5, 12);
  differential_refutation_sweep(testutil::paper_example(), 6, 12);
}

TEST(IncrementalRefutation, MatchesOneShotOnPlanted) {
  differential_refutation_sweep(testutil::tiny_planted(3), 31, 10);
  differential_refutation_sweep(testutil::small_planted(11), 32, 10);
}

TEST(IncrementalRefutation, EmptyMatrixCertifiesEverything) {
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.add_existential(1, {0});
  aig::Aig manager;
  dqbf::IncrementalRefutation incremental(f, manager);
  dqbf::HenkinVector candidate;
  candidate.functions = {aig::kFalseRef};
  EXPECT_EQ(incremental.check(candidate), sat::Result::kUnsat);
}

// ---------------------------------------------------------------------------
// Full pipeline: incremental vs. from-scratch re-encode oracle
// ---------------------------------------------------------------------------

core::SynthesisResult run_engine(const dqbf::DqbfFormula& f, aig::Aig& manager,
                                 bool incremental, std::uint64_t seed) {
  core::Manthan3Options options;
  options.time_limit_seconds = 30.0;
  options.incremental = incremental;
  options.seed = seed;
  return core::Manthan3(options).synthesize(f, manager);
}

struct PipelineCase {
  int family;  // 0 paper, 1 tiny planted, 2 small planted, 3 pec, 4 succinct
  std::uint64_t seed;
};

class IncrementalPipeline : public ::testing::TestWithParam<PipelineCase> {
 protected:
  dqbf::DqbfFormula instance() const {
    switch (GetParam().family) {
      case 0:
        return testutil::paper_example();
      case 1:
        return testutil::tiny_planted(GetParam().seed + 1);
      case 2:
        return testutil::small_planted(GetParam().seed + 1);
      case 3:
        return workloads::gen_pec({6, 2, 2, 2, 10, GetParam().seed + 1});
      default:
        return workloads::gen_succinct_sat({8, 3.0, GetParam().seed + 1});
    }
  }
};

TEST_P(IncrementalPipeline, MatchesFromScratchOracle) {
  const dqbf::DqbfFormula f = instance();
  for (const std::uint64_t seed : {7ull, 42ull}) {
    aig::Aig inc_manager;
    const core::SynthesisResult inc =
        run_engine(f, inc_manager, /*incremental=*/true, seed);
    aig::Aig oracle_manager;
    const core::SynthesisResult oracle =
        run_engine(f, oracle_manager, /*incremental=*/false, seed);
    EXPECT_EQ(inc.status, oracle.status) << "seed " << seed;
    if (inc.status == core::SynthesisStatus::kRealizable) {
      EXPECT_TRUE(testutil::is_certified(f, inc_manager, inc));
    }
    if (oracle.status == core::SynthesisStatus::kRealizable) {
      EXPECT_TRUE(testutil::is_certified(f, oracle_manager, oracle));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, IncrementalPipeline,
    ::testing::Values(PipelineCase{0, 0}, PipelineCase{1, 1},
                      PipelineCase{1, 2}, PipelineCase{2, 10},
                      PipelineCase{2, 20}, PipelineCase{3, 1},
                      PipelineCase{4, 1}));

TEST(IncrementalPipeline, RepairHeavyRunExercisesRetirement) {
  // XOR-with-shared defeats sampling, so repair must iterate: the
  // persistent pipeline should be reusing cached cones and retiring
  // stale guards, and every MaxSAT round retires its scope.
  const dqbf::DqbfFormula f = workloads::gen_xor_chain({1, true, 3});
  aig::Aig manager;
  const core::SynthesisResult result =
      run_engine(f, manager, /*incremental=*/true, 42);
  if (result.status == core::SynthesisStatus::kRealizable) {
    EXPECT_TRUE(testutil::is_certified(f, manager, result));
  }
  EXPECT_GT(result.stats.cones_encoded, 0u);
  EXPECT_GT(result.stats.verify_vars, 0u);
  EXPECT_GT(result.stats.phi_vars, 0u);
  if (result.stats.counterexamples > 0) {
    EXPECT_GE(result.stats.activations_retired, result.stats.maxsat_calls);
  }
}

TEST(IncrementalPipeline, NestedPlantedStreamsSamplesAndRefits) {
  // Counterexample-heavy nested-dependency instance, so the streaming
  // sample-append and refit paths run. Seed 10 takes 15 counterexamples;
  // seed 42 certifies this instance without any.
  workloads::PlantedParams params{12, 6, 4, 6, 80, 7};
  params.nested_deps = true;
  params.dep_size_max = 10;
  const dqbf::DqbfFormula f = workloads::gen_planted(params);
  aig::Aig manager;
  const core::SynthesisResult result =
      run_engine(f, manager, /*incremental=*/true, 10);
  if (result.status == core::SynthesisStatus::kRealizable) {
    EXPECT_TRUE(testutil::is_certified(f, manager, result));
  }
  EXPECT_GT(result.stats.gk_streamed_samples, 0u);
  EXPECT_GT(result.stats.refit_rounds, 0u);
}

}  // namespace
}  // namespace manthan
