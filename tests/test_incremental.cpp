// The incremental verify/repair pipeline, differentially tested against
// the from-scratch oracles: the persistent cone encoder (supergates and
// mux gates) against exhaustive AIG simulation, on random cones and on
// the shapes Manthan3 builds; IncrementalRefutation against the plain
// Tseitin build_refutation_cnf with a fresh solver, so two encodings meet;
// and the full Manthan3 pipeline on small families, with
// solver-retirement and sample-streaming checks on repair-heavy runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "aig/aig_sim.hpp"
#include "aig/incremental_cnf.hpp"
#include "cnf/sample_matrix.hpp"
#include "core/arbiter.hpp"
#include "core/manthan3.hpp"
#include "dqbf/certificate.hpp"
#include "dqbf/incremental_refutation.hpp"
#include "dtree/decision_tree.hpp"
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

/// Random AIG cone over inputs [0, num_inputs): ANDs, ORs, XORs and
/// muxes, so the encoder meets supergates and ITE gates alike.
aig::Ref random_cone(aig::Aig& manager, std::int32_t num_inputs,
                     std::size_t gates, util::Rng& rng) {
  std::vector<aig::Ref> pool;
  for (std::int32_t i = 0; i < num_inputs; ++i) {
    pool.push_back(manager.input(i));
  }
  const auto draw = [&] {
    const aig::Ref r = pool[rng.next_below(pool.size())];
    return rng.flip() ? aig::ref_not(r) : r;
  };
  for (std::size_t g = 0; g < gates; ++g) {
    const aig::Ref a = draw();
    const aig::Ref b = draw();
    switch (rng.next_below(4)) {
      case 0:
        pool.push_back(manager.and_gate(a, b));
        break;
      case 1:
        pool.push_back(manager.or_gate(a, b));
        break;
      case 2:
        pool.push_back(manager.xor_gate(a, b));
        break;
      default:
        pool.push_back(manager.ite_gate(draw(), a, b));
        break;
    }
  }
  return pool.back();
}

/// Sample s of the matrix is input pattern s: input i takes bit i of s.
const cnf::SampleMatrix& all_patterns() {
  static const cnf::SampleMatrix matrix = [] {
    cnf::SampleMatrix m(6);
    for (std::uint32_t bits = 0; bits < 64; ++bits) {
      cnf::Assignment a(6);
      for (Var i = 0; i < 6; ++i) a.set(i, ((bits >> i) & 1u) != 0);
      m.append(a);
    }
    return m;
  }();
  return matrix;
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

  /// Encode and compare against simulation on all 64 input patterns.
  /// Every definition emitted so far stays in the solver, so a gate that
  /// contradicts an earlier one shows up as a wrong value or kUnsat.
  void check_cone(aig::Ref root) {
    const cnf::Lit lit = encoder_.encode(root);
    const std::uint64_t expected =
        aig::simulate_matrix(manager_, root, all_patterns())[0];
    for (std::uint32_t bits = 0; bits < (1u << kInputs); ++bits) {
      std::vector<cnf::Lit> assumptions;
      for (std::int32_t i = 0; i < kInputs; ++i) {
        assumptions.push_back(((bits >> i) & 1u) != 0 ? pos(i) : neg(i));
      }
      ASSERT_EQ(solver_.solve(assumptions), sat::Result::kSat);
      EXPECT_EQ(solver_.model().value(lit), ((expected >> bits) & 1u) != 0)
          << "input pattern " << bits;
    }
  }

  aig::Ref input(std::int32_t i) { return manager_.input(i); }

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
  const std::uint64_t encoded_after_base = oracle.encoder_.stats().gates_encoded;
  // Re-encoding the same root is free.
  oracle.encoder_.encode(base);
  EXPECT_EQ(oracle.encoder_.stats().gates_encoded, encoded_after_base);
  // A cone built on top of `base` only pays for the new gates.
  const aig::Ref grown = oracle.manager_.and_gate(
      base, aig::ref_not(oracle.manager_.input(0)));
  oracle.check_cone(grown);
  EXPECT_LE(oracle.encoder_.stats().gates_encoded, encoded_after_base + 2);
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

TEST(IncrementalCnfEncoder, SupergatesAndMuxesTakeOneVariable) {
  ConeOracle oracle;
  aig::Aig& m = oracle.manager_;
  const auto& stats = oracle.encoder_.stats();
  // A balanced 6-input AND is five nodes and one gate.
  std::vector<aig::Ref> inputs;
  for (std::int32_t i = 0; i < ConeOracle::kInputs; ++i) {
    inputs.push_back(oracle.input(i));
  }
  const aig::Ref cube = m.and_all(inputs);
  ASSERT_EQ(m.cone_size(cube), 5u);
  oracle.check_cone(cube);
  EXPECT_EQ(stats.gates_encoded, 1u);
  // A mux and an XOR over inputs are three nodes and one gate each.
  oracle.check_cone(m.ite_gate(inputs[0], inputs[1], inputs[2]));
  EXPECT_EQ(stats.gates_encoded, 2u);
  oracle.check_cone(m.xor_gate(inputs[3], aig::ref_not(inputs[4])));
  EXPECT_EQ(stats.gates_encoded, 3u);
  // Complemented edges stop absorption: ¬(x0∧x1) ∧ ¬(x2∧x3) is 3 gates.
  oracle.check_cone(m.and_gate(aig::ref_not(m.and_gate(inputs[0], inputs[1])),
                               aig::ref_not(m.and_gate(inputs[2], inputs[3]))));
  EXPECT_EQ(stats.gates_encoded, 6u);
}

TEST(IncrementalCnfEncoder, AbsorbedNodeLaterRootAndFanin) {
  // `inner` and `mid` are absorbed into `top`'s supergate and get no
  // variable. A later encode() takes `inner` as a root and `mid` as a
  // complemented fanin: both are then encoded as gates of their own, and
  // all definitions must agree in the one solver.
  ConeOracle oracle;
  aig::Aig& m = oracle.manager_;
  const aig::Ref inner = m.and_gate(oracle.input(0), oracle.input(1));
  const aig::Ref mid = m.and_gate(inner, oracle.input(2));
  const aig::Ref top = m.and_gate(mid, aig::ref_not(oracle.input(3)));
  oracle.check_cone(top);
  EXPECT_EQ(oracle.encoder_.stats().gates_encoded, 1u);
  oracle.check_cone(inner);
  EXPECT_EQ(oracle.encoder_.stats().gates_encoded, 2u);
  oracle.check_cone(m.or_gate(mid, oracle.input(4)));
  // `mid` now reuses `inner`'s variable as a leaf.
  EXPECT_EQ(oracle.encoder_.stats().gates_encoded, 4u);
  // A mux whose branches share the absorbed nodes, and the mux again
  // under a supergate.
  const aig::Ref mux = m.ite_gate(oracle.input(5), mid, top);
  oracle.check_cone(mux);
  oracle.check_cone(m.and_gate(m.and_gate(mux, inner), oracle.input(3)));
  oracle.check_cone(top);
}

TEST(IncrementalCnfEncoder, ManthanShapedCones) {
  // The cones the synthesis loop hands the verify solver: a learnt tree
  // (OR of path cubes), repairs f ∧ ¬β and f ∨ β onto it, and decision-
  // list entries prepended one encode() at a time.
  util::Rng rng(29);
  ConeOracle oracle;
  aig::Aig& m = oracle.manager_;
  std::vector<aig::Ref> features;
  for (std::int32_t i = 0; i < ConeOracle::kInputs; ++i) {
    features.push_back(oracle.input(i));
  }
  std::vector<std::vector<bool>> rows;
  std::vector<bool> labels;
  for (std::uint32_t bits = 0; bits < 64; ++bits) {
    std::vector<bool> row;
    for (std::int32_t i = 0; i < ConeOracle::kInputs; ++i) {
      row.push_back(((bits >> i) & 1u) != 0);
    }
    rows.push_back(row);
    labels.push_back(rng.next_below(3) == 0);
  }
  const dtree::DecisionTree tree = dtree::DecisionTree::fit(rows, labels);
  ASSERT_GT(tree.num_nodes(), 7u);
  aig::Ref f = tree.to_aig(m, features);
  oracle.check_cone(f);
  for (int round = 0; round < 12; ++round) {
    std::vector<cnf::Lit> premise;
    for (Var x = 0; x < ConeOracle::kInputs; ++x) {
      if (rng.next_below(3) == 0) continue;
      premise.push_back(cnf::Lit(x, rng.flip()));
    }
    if (round % 3 == 2) {
      f = core::prepend_entry(m, {premise, rng.flip()}, f);
    } else {
      std::vector<aig::Ref> lits;
      for (const cnf::Lit l : premise) {
        lits.push_back(l.negated() ? aig::ref_not(oracle.input(l.var()))
                                   : oracle.input(l.var()));
      }
      const aig::Ref beta = m.and_all(lits);
      f = rng.flip() ? m.and_gate(f, aig::ref_not(beta)) : m.or_gate(f, beta);
    }
    oracle.check_cone(f);
  }
  // The whole list at once over the bare tree, through fresh nodes.
  std::vector<core::DecisionEntry> entries;
  for (int e = 0; e < 10; ++e) {
    entries.push_back({{cnf::Lit(e % 6, true), cnf::Lit((e + 1) % 6, false)},
                       e % 2 == 0});
  }
  oracle.check_cone(core::decision_list(m, entries, tree.to_aig(m, features)));
}

TEST(IncrementalCnfEncoder, DeepChainsEncodeIteratively) {
  // 100k levels: plain edges (absorbed into supergates), complemented
  // edges (one gate each) and muxes, the way prepended decision lists
  // grow. A recursive walk would overflow the stack here.
  constexpr int kLevels = 100000;
  ConeOracle oracle;
  aig::Aig& m = oracle.manager_;
  aig::Ref acc = oracle.input(0);
  for (int level = 0; level < kLevels; ++level) {
    const aig::Ref x = oracle.input(level % ConeOracle::kInputs);
    const aig::Ref y = oracle.input((level / 6 + 1) % ConeOracle::kInputs);
    switch (level % 3) {
      case 0:
        acc = m.or_gate(acc, m.and_gate(x, aig::ref_not(y)));
        break;
      case 1:
        acc = m.and_gate(acc, m.or_gate(x, y));
        break;
      default:
        acc = m.ite_gate(x, acc, aig::ref_not(acc));
        break;
    }
  }
  ASSERT_GT(m.num_nodes(), static_cast<std::size_t>(kLevels));
  oracle.check_cone(acc);
  EXPECT_LT(oracle.encoder_.stats().gates_encoded, m.num_nodes());
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
// Full pipeline
// ---------------------------------------------------------------------------

core::SynthesisResult run_engine(const dqbf::DqbfFormula& f, aig::Aig& manager,
                                 std::uint64_t seed) {
  core::Manthan3Options options;
  options.time_limit_seconds = 30.0;
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
  // Every case at both seeds is True and was certified, by this pipeline
  // and by the former from-scratch oracle beside it (a fresh refutation
  // encoding and a one-shot MaxSAT every round), which agreed on every
  // status. The oracle's components stay differentially tested query by
  // query (IncrementalRefutation.MatchesOneShot*,
  // IncrementalMaxSat.MatchesOneShotFuMalikAcrossRounds).
  const dqbf::DqbfFormula f = instance();
  for (const std::uint64_t seed : {7ull, 42ull}) {
    aig::Aig manager;
    const core::SynthesisResult result = run_engine(f, manager, seed);
    EXPECT_EQ(result.status, core::SynthesisStatus::kRealizable)
        << "seed " << seed;
    if (result.status == core::SynthesisStatus::kRealizable) {
      EXPECT_TRUE(testutil::is_certified(f, manager, result))
          << "seed " << seed;
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
      run_engine(f, manager, 42);
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
      run_engine(f, manager, 10);
  if (result.status == core::SynthesisStatus::kRealizable) {
    EXPECT_TRUE(testutil::is_certified(f, manager, result));
  }
  EXPECT_GT(result.stats.gk_streamed_samples, 0u);
  EXPECT_GT(result.stats.refit_rounds, 0u);
}

}  // namespace
}  // namespace manthan
