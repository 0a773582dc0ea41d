// The Manthan3 engine: end-to-end synthesis on hand-crafted and generated
// DQBFs, False detection, the documented incompleteness, option knobs, and
// the soundness invariant (everything returned certifies).
#include <gtest/gtest.h>

#include <algorithm>

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
using testutil::suite_instance;
using testutil::suite_run_seed;

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

TEST(Manthan3, XorUnrealizableProvedFalse) {
  // y ↔ x0 xor x1 with H = {x0} is False, but every X extends to a model,
  // so the extension check never fires and no G_k query is UNSAT. The
  // stalled counterexamples' X-points go into the arbiter expansion; two
  // points that differ only outside H force one arbiter both ways, and
  // the UNSAT expansion proves the formula False.
  workloads::UnrealizableParams params;
  params.num_constraints = 1;
  params.extension_detectable = false;
  params.seed = 7;
  const dqbf::DqbfFormula f = workloads::gen_unrealizable(params);
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  EXPECT_EQ(result.status, SynthesisStatus::kUnrealizable);
  EXPECT_LE(result.stats.counterexamples, 8u);
  EXPECT_GE(result.stats.arbiter_points, 2u);
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

TEST(Manthan3, XorChainEventuallyResolved) {
  // The paper's §5 family: every seed ends in a certified vector.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const dqbf::DqbfFormula f = workloads::gen_xor_chain({2, false, seed});
    aig::Aig manager;
    Manthan3Options options;
    options.seed = seed;
    const SynthesisResult result = run(f, manager, options);
    SCOPED_TRACE(seed);
    expect_certified(f, manager, result);
  }
}

TEST(Manthan3, RepairLoopFixesBadCandidates) {
  // XOR-with-shared forces non-trivial functions; sampling alone rarely
  // nails them, so repair must do real work — and the result certifies.
  const dqbf::DqbfFormula f = workloads::gen_xor_chain({1, true, 3});
  aig::Aig manager;
  const SynthesisResult result = run(f, manager);
  expect_certified(f, manager, result);
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
    SCOPED_TRACE(seed);
    ASSERT_EQ(packed.status, rowwise.status);
    EXPECT_EQ(packed.vector.functions, rowwise.vector.functions);
    testutil::expect_same_counts(packed.stats, rowwise.stats);
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

/// Manthan3 seed of paper-suite run k (suite seed 42 + k).
std::uint64_t paper_seed(const std::string& name, std::uint64_t k) {
  return suite_run_seed(name, 42 + k);
}

TEST(Manthan3, SingleAttemptCertifiesFormerRestartingStreams) {
  // plantedhard_18x4_s1 is True. On these seed streams the run needs more
  // than 32 counterexamples, which used to end in a restart; one attempt
  // keeps its repairs and decision-list entries and certifies.
  const std::string name = "plantedhard_18x4_s1";
  const dqbf::DqbfFormula f = suite_instance(name);
  for (const std::uint64_t stream : testutil::kFormerRestartingStreams) {
    aig::Aig manager;
    Manthan3Options options;
    options.seed = suite_run_seed(name, stream);
    const SynthesisResult result = run(f, manager, options);
    expect_certified(f, manager, result);
    EXPECT_LE(result.stats.counterexamples, 48u) << "stream " << stream;
  }
}

TEST(Manthan3, FixedSeedRunIsDeterministic) {
  const std::string name = "plantedhard_18x4_s1";
  const dqbf::DqbfFormula f = suite_instance(name);
  Manthan3Options options;
  options.seed = suite_run_seed(name, testutil::kFormerRestartingStreams[0]);
  obs::Counter& runs = obs::Registry::global().counter("core_runs_total");
  obs::Counter& patches =
      obs::Registry::global().counter("core_arbiter_patches_total");
  obs::Counter& samples =
      obs::Registry::global().counter("core_samples_total");
  const std::uint64_t runs_before = runs.value();
  const std::uint64_t patches_before = patches.value();
  const std::uint64_t samples_before = samples.value();
  aig::Aig manager_a;
  const SynthesisResult a = run(f, manager_a, options);
  aig::Aig manager_b;
  const SynthesisResult b = run(f, manager_b, options);
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.vector.functions, b.vector.functions);
  testutil::expect_same_counts(a.stats, b.stats);
  // The registry counts calls; core_samples_total sums both sample rows.
  EXPECT_EQ(runs.value() - runs_before, 2u);
  EXPECT_EQ(patches.value() - patches_before, 2 * a.stats.arbiter_patches);
  EXPECT_EQ(samples.value() - samples_before,
            2 * (a.stats.samples + a.stats.samples_appended));
}

TEST(Manthan3, RepeatedRepairsDoNotCycle) {
  // With Ŷ fixed, plantedhard_16x6_s0's repairs of one f_k undo each
  // other: one β strengthens it, another weakens it, and the first
  // strengthens it again. Skipping the repeat sends the counterexample to
  // the arbiter expansion, and the run certifies within 32
  // counterexamples at every paper seed. Without Ŷ no such cycle forms.
  const std::string name = "plantedhard_16x6_s0";
  const dqbf::DqbfFormula f = suite_instance(name);
  obs::Counter& repeated =
      obs::Registry::global().counter("core_repeated_repairs_total");
  for (std::uint64_t k = 0; k < 3; ++k) {
    Manthan3Options options;
    options.seed = paper_seed(name, k);
    aig::Aig manager;
    const std::uint64_t repeated_before = repeated.value();
    const SynthesisResult result = run(f, manager, options);
    expect_certified(f, manager, result);
    EXPECT_LE(result.stats.counterexamples, 32u) << "seed " << k;
    EXPECT_GT(result.stats.repeated_repairs, 0u) << "seed " << k;
    EXPECT_EQ(repeated.value() - repeated_before,
              result.stats.repeated_repairs);

    options.use_yhat_in_repair = false;
    aig::Aig no_yhat_manager;
    const SynthesisResult no_yhat = run(f, no_yhat_manager, options);
    EXPECT_EQ(no_yhat.stats.repeated_repairs, 0u) << "seed " << k;
  }
}

TEST(Manthan3, ExpansionDecidesStalledSuiteRuns) {
  // unreal_2x1_s0 is False although every X-assignment extends to a
  // model: only an UNSAT expansion refutes it. xorshared_1x2_s0 is True,
  // but every G_k query is SAT (the §5 stall): only decision-list entries
  // from the expansion's model repair it. Both at every paper seed.
  const dqbf::DqbfFormula unreal = suite_instance("unreal_2x1_s0");
  const dqbf::DqbfFormula xorshared = suite_instance("xorshared_1x2_s0");
  for (std::uint64_t k = 0; k < 3; ++k) {
    Manthan3Options options;
    options.seed = paper_seed("unreal_2x1_s0", k);
    aig::Aig unreal_manager;
    const SynthesisResult refuted = run(unreal, unreal_manager, options);
    EXPECT_EQ(refuted.status, SynthesisStatus::kUnrealizable) << "seed " << k;
    EXPECT_GT(refuted.stats.arbiter_points, 0u) << "seed " << k;

    options.seed = paper_seed("xorshared_1x2_s0", k);
    aig::Aig xor_manager;
    const SynthesisResult certified = run(xorshared, xor_manager, options);
    expect_certified(xorshared, xor_manager, certified);
    EXPECT_GT(certified.stats.arbiter_patches, 0u) << "seed " << k;
  }
}

TEST(Manthan3, GeneralizedPatchesCertifyWideDependencySets) {
  // plantedhard_18x6_s0 is True with |H_k| up to 13, and almost every
  // counterexample stalls repair at a new X-point. Full-cube patches
  // spent the whole counterexample budget on it; generalised premises
  // certify it quickly at every paper seed.
  const dqbf::DqbfFormula f = suite_instance("plantedhard_18x6_s0");
  for (std::uint64_t k = 0; k < 3; ++k) {
    Manthan3Options options;
    options.seed = paper_seed("plantedhard_18x6_s0", k);
    aig::Aig manager;
    const SynthesisResult result = run(f, manager, options);
    expect_certified(f, manager, result);
    EXPECT_LE(result.stats.counterexamples, 200u) << "seed " << k;
    EXPECT_GT(result.stats.arbiter_patches, 0u) << "seed " << k;
  }
}

TEST(Manthan3, SlowPlantedStaysSlow) {
  // The suites that stop a solve in flight (service shutdown, the budget
  // watchdog, a daemon stop) rely on testutil::slow_planted() keeping a
  // default run busy: it must not be answered within 1 s.
  Manthan3Options options;
  options.time_limit_seconds = 1.0;
  aig::Aig manager;
  const SynthesisResult result =
      run(testutil::slow_planted(), manager, options);
  EXPECT_EQ(result.status, SynthesisStatus::kTimeout);
}

TEST(Manthan3, StarvedLearnerCertifiesWithin32Counterexamples) {
  // A starved learner makes the first candidates wrong, so the repair
  // loop runs, but it certifies within 32 counterexamples.
  const dqbf::DqbfFormula f = testutil::small_planted(11);
  Manthan3Options options;
  options.sampler.num_samples = 4;
  options.sampler.probe_samples = 4;
  aig::Aig manager;
  const SynthesisResult result = run(f, manager, options);
  expect_certified(f, manager, result);
  ASSERT_GT(result.stats.counterexamples, 0u);
  ASSERT_LE(result.stats.counterexamples, 32u);
}

TEST(Manthan3, RunWithoutStalledRoundLeavesExpansionUnused) {
  // Every counterexample of this run admits a repair, so the arbiter
  // expansion is never consulted and the trajectory is the plain
  // sample → learn → verify/repair loop.
  const dqbf::DqbfFormula f = testutil::small_planted(16);
  Manthan3Options options;
  options.sampler.num_samples = 4;
  options.sampler.probe_samples = 4;
  aig::Aig manager;
  const SynthesisResult result = run(f, manager, options);
  expect_certified(f, manager, result);
  ASSERT_GT(result.stats.repairs, 0u);
  EXPECT_EQ(result.stats.arbiter_points, 0u);
  EXPECT_EQ(result.stats.arbiter_patches, 0u);
}

/// A random tiny DQBF: 2–6 universals and 2–3 existentials, each
/// depending on a random subset of at most 3 (or 2) universals (so nested,
/// equal and incomparable dependency sets all occur), under a random
/// matrix of 2- and 3-literal clauses that each mention an existential.
/// Small enough for testutil::brute_force_true.
dqbf::DqbfFormula random_tiny_dqbf(std::uint64_t seed) {
  util::Rng rng(seed);
  const Var nx = static_cast<Var>(2 + rng.next_below(5));
  const Var ny = static_cast<Var>(2 + rng.next_below(2));
  dqbf::DqbfFormula f;
  f.matrix() = cnf::CnfFormula(nx + ny);
  for (Var x = 0; x < nx; ++x) f.add_universal(x);
  // At most 16 function-table bits in total (brute_force_true's limit).
  const std::size_t max_deps = ny == 2 ? 3 : 2;
  for (Var y = nx; y < nx + ny; ++y) {
    std::vector<Var> deps;
    for (Var x = 0; x < nx && deps.size() < max_deps; ++x) {
      if (rng.flip()) deps.push_back(x);
    }
    f.add_existential(y, std::move(deps));
  }
  const std::size_t num_clauses =
      static_cast<std::size_t>(nx) + rng.next_below(nx + ny);
  for (std::size_t c = 0; c < num_clauses; ++c) {
    const std::size_t width = rng.next_below(3) == 0 ? 2 : 3;
    std::vector<Var> vars{nx + static_cast<Var>(rng.next_below(ny))};
    while (vars.size() < width) {
      const Var v = static_cast<Var>(rng.next_below(nx + ny));
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
        vars.push_back(v);
      }
    }
    cnf::Clause clause;
    for (const Var v : vars) clause.push_back(rng.flip() ? pos(v) : neg(v));
    f.matrix().add_clause(clause);
  }
  return f;
}

TEST(Manthan3, SoundOnRandomTinyDqbfs) {
  // Against exhaustive ground truth: a False verdict only on False
  // formulas, and every realizable answer certifies — whichever of the
  // unsat-matrix check, the extension check, repairs or the arbiter
  // expansion produced it.
  std::size_t true_formulas = 0;
  std::size_t false_formulas = 0;
  std::size_t refuted = 0;
  std::size_t refuted_after_stall = 0;
  std::size_t certified = 0;
  for (std::uint64_t seed = 0; seed < 240; ++seed) {
    const dqbf::DqbfFormula f = random_tiny_dqbf(seed);
    const bool truth = testutil::brute_force_true(f);
    ++(truth ? true_formulas : false_formulas);
    aig::Aig manager;
    Manthan3Options options;
    options.seed = seed;
    const SynthesisResult result = run(f, manager, options);
    if (result.status == SynthesisStatus::kRealizable) {
      EXPECT_TRUE(testutil::is_certified(f, manager, result))
          << "seed " << seed;
      ++certified;
    }
    if (result.status == SynthesisStatus::kUnrealizable) {
      EXPECT_FALSE(truth) << "declared a True formula False, seed " << seed;
      ++refuted;
      if (result.stats.arbiter_points > 0) ++refuted_after_stall;
    }
  }
  // The sweep must exercise both verdicts.
  EXPECT_GE(true_formulas, 40u);
  EXPECT_GE(false_formulas, 40u);
  EXPECT_GT(certified, 0u);
  EXPECT_GT(refuted, 0u);
  EXPECT_GT(refuted_after_stall, 0u);
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
