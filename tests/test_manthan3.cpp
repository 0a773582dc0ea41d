// The Manthan3 engine: end-to-end synthesis on hand-crafted and generated
// DQBFs, False detection, the documented incompleteness, option knobs, and
// the soundness invariant (everything returned certifies).
#include <gtest/gtest.h>

#include "core/manthan3.hpp"
#include "dqbf/certificate.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace manthan::core {
namespace {

using cnf::neg;
using cnf::pos;
using cnf::Var;
using testutil::expect_certified;

SynthesisResult run(const dqbf::DqbfFormula& f, aig::Aig& manager,
                    Manthan3Options options = {}) {
  if (options.time_limit_seconds == 0.0) options.time_limit_seconds = 30.0;
  Manthan3 engine(options);
  return engine.synthesize(f, manager);
}

TEST(Manthan3, PaperExampleSynthesizes) {
  const dqbf::DqbfFormula f = testutil::paper_example();

  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  expect_certified(f, manager, result);
}

TEST(Manthan3, SkolemCaseIsHandled) {
  // Plain ∀x∃y (y <-> ¬x): Henkin generalizes Skolem.
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.add_existential(1, {0});
  f.matrix().add_clause({pos(1), pos(0)});
  f.matrix().add_clause({neg(1), neg(0)});
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  expect_certified(f, manager, result);
  // The function must be ¬x.
  std::unordered_map<std::int32_t, bool> in{{0, true}};
  EXPECT_FALSE(manager.evaluate(result.vector.functions[0], in));
  in[0] = false;
  EXPECT_TRUE(manager.evaluate(result.vector.functions[0], in));
}

TEST(Manthan3, DetectsExtensionUnrealizable) {
  // y must equal both x0 and x1: for x0 != x1 no model exists, which the
  // extension check (Algorithm 1, line 13) refutes definitively.
  workloads::UnrealizableParams params;
  params.num_constraints = 1;
  params.extension_detectable = true;
  params.seed = 7;
  const dqbf::DqbfFormula f = workloads::gen_unrealizable(params);
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  EXPECT_EQ(result.status, SynthesisStatus::kUnrealizable);
}

TEST(Manthan3, XorUnrealizableEndsIncomplete) {
  // y ↔ x0 xor x1 with H = {x0} is False, but every X extends to a model,
  // so Manthan3's False test never fires — the documented outcome is
  // kIncomplete (repair gets stuck), never a wrong "realizable".
  workloads::UnrealizableParams params;
  params.num_constraints = 1;
  params.extension_detectable = false;
  params.seed = 7;
  const dqbf::DqbfFormula f = workloads::gen_unrealizable(params);
  aig::Aig manager;
  Manthan3Options options;
  const SynthesisResult result = run(f, manager, options);
  // Every attempt gives up, so restarts spend the counterexample budget
  // and the call still reports the give-up, not an iteration limit.
  EXPECT_EQ(result.status, SynthesisStatus::kIncomplete);
  EXPECT_LE(result.stats.counterexamples, options.max_counterexamples);
  EXPECT_GT(result.stats.restarts, 0u);
}

TEST(Manthan3, DetectsUnsatMatrixAsUnrealizable) {
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.add_existential(1, {0});
  f.matrix().add_clause({pos(1)});
  f.matrix().add_clause({neg(1)});
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  EXPECT_EQ(result.status, SynthesisStatus::kUnrealizable);
}

TEST(Manthan3, EmptyDependencySetsAreConstants) {
  // Succinct-SAT shape: functions are constants.
  const dqbf::DqbfFormula f = workloads::gen_succinct_sat({8, 3.0, 5});
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  expect_certified(f, manager, result);
  for (const aig::Ref fn : result.vector.functions) {
    EXPECT_TRUE(manager.support(fn).empty());
  }
}

TEST(Manthan3, NoExistentialsTautologyMatrix) {
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.matrix().add_clause({pos(0), neg(0)});
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  EXPECT_EQ(result.status, SynthesisStatus::kRealizable);
  EXPECT_TRUE(result.vector.functions.empty());
}

TEST(Manthan3, NoExistentialsFalsifiableMatrix) {
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.matrix().add_clause({pos(0)});
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  EXPECT_EQ(result.status, SynthesisStatus::kUnrealizable);
}

TEST(Manthan3, XorChainEventuallyResolvedOrIncomplete) {
  // The paper's §5 family: either a certified vector or the documented
  // incomplete outcome — never a wrong answer.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const dqbf::DqbfFormula f = workloads::gen_xor_chain({2, false, seed});
    aig::Aig manager;
    Manthan3Options options;
    options.seed = seed;
    const SynthesisResult result = run(f, manager, options);
    if (result.status == SynthesisStatus::kRealizable) {
      expect_certified(f, manager, result);
    } else {
      EXPECT_TRUE(result.status == SynthesisStatus::kIncomplete ||
                  result.status == SynthesisStatus::kLimit)
          << "unexpected status " << static_cast<int>(result.status);
    }
  }
}

TEST(Manthan3, RepairLoopFixesBadCandidates) {
  // XOR-with-shared forces non-trivial functions; sampling alone rarely
  // nails them, so repair must do real work — and the result certifies.
  const dqbf::DqbfFormula f = workloads::gen_xor_chain({1, true, 3});
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  if (result.status == SynthesisStatus::kRealizable) {
    expect_certified(f, manager, result);
  } else {
    EXPECT_TRUE(result.status == SynthesisStatus::kIncomplete ||
                result.status == SynthesisStatus::kLimit)
        << "unexpected status " << static_cast<int>(result.status);
  }
}

TEST(Manthan3, FinalFunctionsRespectHenkinSupport) {
  const dqbf::DqbfFormula f = testutil::small_planted(11, 24);
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  ASSERT_EQ(result.status, SynthesisStatus::kRealizable);
  for (std::size_t i = 0; i < result.vector.functions.size(); ++i) {
    const auto support = manager.support(result.vector.functions[i]);
    const auto& deps = f.existentials()[i].deps;
    for (const std::int32_t id : support) {
      EXPECT_TRUE(std::binary_search(deps.begin(), deps.end(),
                                     static_cast<Var>(id)))
          << "function " << i << " uses variable outside its Henkin set";
    }
  }
}

TEST(Manthan3, UniqueExtractionShortcutsLearning) {
  // Fully defined instance: y0 <-> x0&x1, y1 <-> x0|x1.
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.add_universal(1);
  f.add_existential(2, {0, 1});
  f.add_existential(3, {0, 1});
  f.matrix().add_clause({neg(2), pos(0)});
  f.matrix().add_clause({neg(2), pos(1)});
  f.matrix().add_clause({pos(2), neg(0), neg(1)});
  f.matrix().add_clause({neg(3), pos(0), pos(1)});
  f.matrix().add_clause({pos(3), neg(0)});
  f.matrix().add_clause({pos(3), neg(1)});
  aig::Aig manager;
  Manthan3Options options;
  options.use_unique_extraction = true;
  const SynthesisResult result = run(f, manager, options);
  expect_certified(f, manager, result);
  EXPECT_EQ(result.stats.unique_defined, 2u);
  EXPECT_EQ(result.stats.counterexamples, 0u);
}

TEST(Manthan3, WorksWithUniqueExtractionDisabled) {
  const dqbf::DqbfFormula f = workloads::gen_pec({6, 2, 2, 2, 10, 3});
  aig::Aig manager;
  Manthan3Options options;
  options.use_unique_extraction = false;
  const SynthesisResult result = run(f, manager, options);
  expect_certified(f, manager, result);
  EXPECT_EQ(result.stats.unique_defined, 0u);
}

TEST(Manthan3, TimeoutIsReported) {
  const dqbf::DqbfFormula f = workloads::gen_planted({14, 8, 6, 8, 60, 5});
  aig::Aig manager;
  Manthan3Options options;
  options.time_limit_seconds = 1e-4;  // expire immediately
  Manthan3 engine(options);
  const SynthesisResult result = engine.synthesize(f, manager);
  EXPECT_TRUE(result.status == SynthesisStatus::kTimeout ||
              result.status == SynthesisStatus::kRealizable);
}

TEST(Manthan3, StatsArepopulated) {
  const dqbf::DqbfFormula f = testutil::small_planted(21);
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  EXPECT_GT(result.stats.samples, 0u);
  EXPECT_GT(result.stats.total_seconds, 0.0);
  if (result.status == SynthesisStatus::kRealizable) {
    expect_certified(f, manager, result);
    EXPECT_EQ(result.vector.functions.size(), f.num_existentials());
  } else {
    // A True instance may still defeat the incomplete repair procedure.
    EXPECT_NE(result.status, SynthesisStatus::kUnrealizable);
  }
}

TEST(Manthan3, PackedLearningMatchesRowwiseOracleEndToEnd) {
  // packed_learning only changes the split-counting machinery; the trees
  // are bit-identical, so the *entire* synthesis trajectory — functions,
  // counterexamples, repairs, refits — must match field-for-field.
  for (const std::uint64_t seed : {5ull, 23ull, 71ull}) {
    const dqbf::DqbfFormula f = testutil::small_planted(seed);
    Manthan3Options packed_options;
    packed_options.time_limit_seconds = 30.0;
    packed_options.packed_learning = true;
    Manthan3Options rowwise_options = packed_options;
    rowwise_options.packed_learning = false;
    aig::Aig packed_manager;
    const SynthesisResult packed =
        Manthan3(packed_options).synthesize(f, packed_manager);
    aig::Aig rowwise_manager;
    const SynthesisResult rowwise =
        Manthan3(rowwise_options).synthesize(f, rowwise_manager);
    ASSERT_EQ(packed.status, rowwise.status) << "seed " << seed;
    EXPECT_EQ(packed.vector.functions, rowwise.vector.functions)
        << "seed " << seed;
    EXPECT_EQ(packed.stats.samples, rowwise.stats.samples);
    EXPECT_EQ(packed.stats.counterexamples, rowwise.stats.counterexamples);
    EXPECT_EQ(packed.stats.repairs, rowwise.stats.repairs);
    EXPECT_EQ(packed.stats.repair_checks, rowwise.stats.repair_checks);
    EXPECT_EQ(packed.stats.refit_rounds, rowwise.stats.refit_rounds);
    EXPECT_EQ(packed.stats.refit_candidates, rowwise.stats.refit_candidates);
    EXPECT_EQ(packed.stats.samples_appended, rowwise.stats.samples_appended);
  }
}

TEST(Manthan3, SampleReuseStaysSoundAndCertified) {
  // Counterexample-heavy nested-dependency instance: reuse appends
  // samples and refits candidates mid-run; whatever the outcome, any
  // kRealizable answer must certify, and the reuse counters move.
  workloads::PlantedParams params{12, 6, 4, 6, 80, 7};
  params.nested_deps = true;
  params.dep_size_max = 10;
  const dqbf::DqbfFormula f = workloads::gen_planted(params);
  Manthan3Options options;
  options.time_limit_seconds = 30.0;
  options.sample_reuse = true;
  aig::Aig manager;
  const SynthesisResult result = run(f, manager, options);
  if (result.status == SynthesisStatus::kRealizable) {
    expect_certified(f, manager, result);
  }
  if (result.stats.counterexamples > 0) {
    EXPECT_GT(result.stats.samples_appended, 0u);
  }
  // And the reuse-disabled run also stays sound on the same instance.
  Manthan3Options no_reuse = options;
  no_reuse.sample_reuse = false;
  aig::Aig manager2;
  const SynthesisResult baseline = run(f, manager2, no_reuse);
  if (baseline.status == SynthesisStatus::kRealizable) {
    expect_certified(f, manager2, baseline);
  }
  EXPECT_EQ(baseline.stats.samples_appended, 0u);
  EXPECT_EQ(baseline.stats.refit_rounds, 0u);
}

TEST(Manthan3, SolverMaintenanceFiresAndStaysCertified) {
  // Inprocessing + compaction of the persistent verify/φ solvers on a
  // per-counterexample cadence: the engine answer must be unchanged and
  // certified, and the maintenance counters must move.
  workloads::PlantedParams params{12, 6, 4, 6, 80, 7};
  params.nested_deps = true;
  params.dep_size_max = 10;
  const dqbf::DqbfFormula f = workloads::gen_planted(params);
  Manthan3Options options;
  options.time_limit_seconds = 30.0;
  options.inprocess = true;
  options.inprocess_interval = 1;  // fire on every counterexample
  // Starve the learner so the first candidates are wrong and the
  // verify/repair loop actually runs.
  options.sampler.num_samples = 4;
  options.sampler.probe_samples = 4;
  options.use_unique_extraction = false;
  aig::Aig manager;
  const SynthesisResult result = run(f, manager, options);
  if (result.status == SynthesisStatus::kRealizable) {
    expect_certified(f, manager, result);
  }
  // Deterministic at this seed: the nested-dependency instance drives
  // the repair loop, so maintenance must actually have fired.
  ASSERT_GT(result.stats.counterexamples, 0u);
  EXPECT_GT(result.stats.inprocess_runs, 0u);

  // Maintenance off: counters stay zero, answer still sound.
  Manthan3Options off = options;
  off.inprocess = false;
  aig::Aig manager2;
  const SynthesisResult baseline = run(f, manager2, off);
  if (baseline.status == SynthesisStatus::kRealizable) {
    expect_certified(f, manager2, baseline);
  }
  EXPECT_EQ(baseline.stats.inprocess_runs, 0u);
  EXPECT_EQ(baseline.stats.eliminated_vars, 0u);
  EXPECT_EQ(baseline.stats.remapped_vars, 0u);
  // Sanitizer builds can blow the wall-clock budget; only compare
  // verdicts when both runs finished within it.
  if (result.status != SynthesisStatus::kTimeout &&
      baseline.status != SynthesisStatus::kTimeout) {
    EXPECT_EQ(result.status, baseline.status);
  }
}

/// An instance of the standard suite, by name.
dqbf::DqbfFormula suite_instance(const std::string& name) {
  for (workloads::Instance& instance :
       workloads::standard_suite(workloads::SuiteParams{})) {
    if (instance.name == name) return std::move(instance.formula);
  }
  ADD_FAILURE() << "no suite instance " << name;
  return {};
}

/// Manthan3 seed of paper-suite run k, as portfolio::Runner derives it
/// (suite seed 42 + k, engine index 0).
std::uint64_t paper_seed(const std::string& name, std::uint64_t k) {
  return util::derive_seed(42 + k, util::hash64(name), 0);
}

TEST(Manthan3, RestartsCertifyWhereOneAttemptGivesUp) {
  // planted_10x3_s0 is True, but the first attempt's repair gets stuck
  // at every paper seed; a restart on a fresh seed stream certifies it.
  const dqbf::DqbfFormula f = suite_instance("planted_10x3_s0");
  for (std::uint64_t k = 0; k < 3; ++k) {
    aig::Aig manager;
    Manthan3Options options;
    options.seed = paper_seed("planted_10x3_s0", k);
    const SynthesisResult result = run(f, manager, options);
    expect_certified(f, manager, result);
    EXPECT_GE(result.stats.restarts, 1u) << "seed " << k;
  }
}

TEST(Manthan3, RestartScheduleIsDeterministic) {
  const dqbf::DqbfFormula f = suite_instance("planted_10x3_s0");
  Manthan3Options options;
  options.seed = paper_seed("planted_10x3_s0", 0);
  obs::Counter& runs = obs::Registry::global().counter("core_runs_total");
  obs::Counter& restarts =
      obs::Registry::global().counter("core_restarts_total");
  const std::uint64_t runs_before = runs.value();
  const std::uint64_t restarts_before = restarts.value();
  aig::Aig manager_a;
  const SynthesisResult a = run(f, manager_a, options);
  aig::Aig manager_b;
  const SynthesisResult b = run(f, manager_b, options);
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.vector.functions, b.vector.functions);
  EXPECT_EQ(a.stats.counterexamples, b.stats.counterexamples);
  EXPECT_EQ(a.stats.restarts, b.stats.restarts);
  EXPECT_GE(a.stats.restarts, 1u);
  // The registry counts calls, not attempts.
  EXPECT_EQ(runs.value() - runs_before, 2u);
  EXPECT_EQ(restarts.value() - restarts_before, 2 * a.stats.restarts);
}

TEST(Manthan3, RunWithinFirstCapDoesNotRestart) {
  // A starved learner makes the first candidates wrong, so the repair
  // loop runs, but it certifies well inside the first Luby cap (32).
  const dqbf::DqbfFormula f = testutil::small_planted(11);
  Manthan3Options options;
  options.sampler.num_samples = 4;
  options.sampler.probe_samples = 4;
  aig::Aig manager;
  const SynthesisResult result = run(f, manager, options);
  expect_certified(f, manager, result);
  ASSERT_GT(result.stats.counterexamples, 0u);
  ASSERT_LE(result.stats.counterexamples, 32u);
  EXPECT_EQ(result.stats.restarts, 0u);
}

// Soundness property sweep: across many generated instances and seeds,
// every kRealizable answer certifies and every planted-True family is
// never declared unrealizable.
struct SoundnessCase {
  int family;  // 0 planted, 1 pec, 2 succinct, 3 xor
  std::uint64_t seed;
};

class Manthan3Soundness : public ::testing::TestWithParam<SoundnessCase> {};

TEST_P(Manthan3Soundness, NeverReturnsWrongAnswer) {
  const SoundnessCase param = GetParam();
  dqbf::DqbfFormula f;
  bool known_true = true;
  switch (param.family) {
    case 0:
      f = workloads::gen_planted({7, 4, 3, 4, 20, param.seed});
      break;
    case 1:
      f = workloads::gen_pec({6, 2, 2, 2, 8, param.seed});
      break;
    case 2:
      f = workloads::gen_succinct_sat({10, 3.0, param.seed});
      break;
    default:
      f = workloads::gen_xor_chain({2, param.seed % 2 == 0, param.seed});
      break;
  }
  aig::Aig manager;
  Manthan3Options options;
  options.seed = param.seed * 31 + 7;
  const SynthesisResult result = run(f, manager, options);
  if (result.status == SynthesisStatus::kRealizable) {
    const dqbf::CertificateResult cert =
        dqbf::check_certificate(f, manager, result.vector);
    EXPECT_EQ(cert.status, dqbf::CertificateStatus::kValid);
  }
  if (known_true) {
    EXPECT_NE(result.status, SynthesisStatus::kUnrealizable)
        << "declared a True instance False";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, Manthan3Soundness,
    ::testing::Values(SoundnessCase{0, 1}, SoundnessCase{0, 2},
                      SoundnessCase{0, 3}, SoundnessCase{1, 1},
                      SoundnessCase{1, 2}, SoundnessCase{2, 1},
                      SoundnessCase{2, 2}, SoundnessCase{3, 1},
                      SoundnessCase{3, 2}, SoundnessCase{3, 3}));

}  // namespace
}  // namespace manthan::core
