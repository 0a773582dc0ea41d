// Constrained sampler: all samples are models, diversity, adaptive bias,
// UNSAT handling, and small model spaces returned whole.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cnf/cnf.hpp"
#include "sampler/sampler.hpp"
#include "sat/solver.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace manthan::sampler {
namespace {

using cnf::neg;
using cnf::pos;

TEST(Sampler, AllSamplesSatisfyFormula) {
  CnfFormula f(6);
  f.add_clause({pos(0), pos(1)});
  f.add_clause({neg(2), pos(3)});
  f.add_clause({pos(4), neg(5), pos(0)});
  SamplerOptions options;
  options.num_samples = 100;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {});
  ASSERT_FALSE(samples.empty());
  for (const Assignment& a : samples) EXPECT_TRUE(f.satisfied_by(a));
}

TEST(Sampler, UnsatFormulaYieldsNoSamples) {
  CnfFormula f(1);
  f.add_clause({pos(0)});
  f.add_clause({neg(0)});
  Sampler sampler;
  EXPECT_TRUE(sampler.sample(f, {}).empty());
}

TEST(Sampler, ProducesDiverseModels) {
  // 8 unconstrained variables: expect to see many distinct assignments.
  CnfFormula f(8);
  f.add_clause({pos(0), neg(0)});
  SamplerOptions options;
  options.num_samples = 64;
  options.adaptive = false;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {});
  std::set<std::vector<std::uint64_t>> distinct;
  for (const Assignment& a : samples) distinct.insert(a.words());
  EXPECT_GT(distinct.size(), 20u);
}

TEST(Sampler, CoversBothPolaritiesOfFreeVariable) {
  CnfFormula f(4);
  f.add_clause({pos(0), pos(1)});
  SamplerOptions options;
  options.num_samples = 60;
  options.adaptive = false;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {});
  int true_count = 0;
  for (const Assignment& a : samples) {
    if (a.value(cnf::Var{3})) ++true_count;
  }
  EXPECT_GT(true_count, 0);
  EXPECT_LT(true_count, static_cast<int>(samples.size()));
}

TEST(Sampler, AdaptiveBiasFollowsSkew) {
  // y (var 8) equals x0 | x1; six further free variables keep the model
  // count high. Models mostly have y = 1, and the adaptive stage should
  // not *reduce* coverage of the skewed value.
  CnfFormula f(9);
  f.add_clause({neg(8), pos(0), pos(1)});
  f.add_clause({pos(8), neg(0)});
  f.add_clause({pos(8), neg(1)});
  SamplerOptions options;
  options.num_samples = 200;
  options.adaptive = true;
  options.probe_samples = 40;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {8});
  ASSERT_GT(samples.size(), 50u);
  std::size_t y_true = 0;
  for (const Assignment& a : samples) {
    EXPECT_TRUE(f.satisfied_by(a));
    if (a.value(cnf::Var{8})) ++y_true;
  }
  // 3 of 4 (x0,x1) combinations force y=1.
  EXPECT_GT(y_true * 2, samples.size());
}

TEST(Sampler, SamplesArePairwiseDistinct) {
  // Only 4 models exist ((x0,x1) free, y = x0 | x1): requesting far more
  // must return each model at most once instead of repeats.
  CnfFormula f(3);
  f.add_clause({neg(2), pos(0), pos(1)});
  f.add_clause({pos(2), neg(0)});
  f.add_clause({pos(2), neg(1)});
  SamplerOptions options;
  options.num_samples = 64;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {2});
  ASSERT_FALSE(samples.empty());
  EXPECT_LE(samples.size(), 4u);
  std::set<std::vector<std::uint64_t>> distinct;
  for (const Assignment& a : samples) {
    EXPECT_TRUE(f.satisfied_by(a));
    EXPECT_TRUE(distinct.insert(a.words()).second)
        << "duplicate model returned";
  }
}

TEST(Sampler, DistinctSamplesAcrossProbeAndMainRounds) {
  // Adaptive mode draws in two rounds (probe + biased main) with
  // different solvers; dedup must span both.
  CnfFormula f(10);
  f.add_clause({pos(0), pos(1)});
  SamplerOptions options;
  options.num_samples = 120;
  options.adaptive = true;
  options.probe_samples = 16;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {0, 1});
  ASSERT_GT(samples.size(), 16u);  // main round actually topped up
  std::set<std::vector<std::uint64_t>> distinct;
  for (const Assignment& a : samples) distinct.insert(a.words());
  EXPECT_EQ(distinct.size(), samples.size());
}

TEST(Sampler, RespectsSampleBudget) {
  CnfFormula f(5);
  f.add_clause({pos(0), pos(1)});
  SamplerOptions options;
  options.num_samples = 17;
  Sampler sampler(options);
  EXPECT_LE(sampler.sample(f, {}).size(), 17u);
}

TEST(Sampler, DeterministicForSeed) {
  CnfFormula f(6);
  f.add_clause({pos(0), pos(1), pos(2)});
  SamplerOptions options;
  options.num_samples = 30;
  options.seed = 99;
  Sampler a(options);
  Sampler b(options);
  const auto sa = a.sample(f, {0, 1});
  const auto sb = b.sample(f, {0, 1});
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i], sb[i]);
  }
}

// --- the enumerating session ------------------------------------------------

TEST(SamplerEnumerate, ModelsValidAndPairwiseDistinctInBothModes) {
  CnfFormula f(12);
  f.add_clause({pos(0), pos(1)});
  f.add_clause({neg(2), pos(3)});
  f.add_clause({pos(4), neg(5), pos(0)});
  SamplerOptions options;
  options.num_samples = 300;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {0, 2});
  ASSERT_GT(samples.size(), 200u);
  std::set<std::vector<std::uint64_t>> distinct;
  for (const Assignment& a : samples) {
    EXPECT_TRUE(f.satisfied_by(a));
    EXPECT_TRUE(distinct.insert(a.words()).second) << "duplicate model";
  }
}

TEST(SamplerEnumerate, MatchesLegacyDistributionSanity) {
  // 8 free variables, unbiased polarities: the session must cover both
  // polarities of every variable at a healthy rate, not collapse onto a
  // corner of the model space.
  CnfFormula f(8);
  f.add_clause({pos(0), neg(0)});
  SamplerOptions options;
  options.num_samples = 200;
  options.adaptive = false;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {});
  ASSERT_GT(samples.size(), 100u);
  for (cnf::Var v = 0; v < 8; ++v) {
    std::size_t trues = 0;
    for (const Assignment& a : samples) {
      if (a.value(v)) ++trues;
    }
    const double fraction =
        static_cast<double>(trues) / static_cast<double>(samples.size());
    EXPECT_GT(fraction, 0.25) << "var " << v;
    EXPECT_LT(fraction, 0.75) << "var " << v;
  }
}

TEST(SamplerEnumerate, ExhaustsSmallModelSpacesLikeLegacy) {
  // Only 4 models exist; the session must find all of them, stop, and
  // report that it has them all.
  CnfFormula f(3);
  f.add_clause({neg(2), pos(0), pos(1)});
  f.add_clause({pos(2), neg(0)});
  f.add_clause({pos(2), neg(1)});
  SamplerOptions options;
  options.num_samples = 64;
  Sampler sampler(options);
  const std::vector<Assignment> samples = sampler.sample(f, {2});
  EXPECT_EQ(samples.size(), 4u);
  EXPECT_TRUE(sampler.stats().exhausted);
}

TEST(SamplerEnumerate, PackedMatrixAgreesWithRowUnpackedView) {
  CnfFormula f(9);
  f.add_clause({pos(0), pos(4)});
  f.add_clause({neg(1), pos(5)});
  SamplerOptions options;
  options.num_samples = 120;
  Sampler packed_sampler(options);
  const cnf::SampleMatrix matrix = packed_sampler.sample_packed(f, {0, 1});
  Sampler row_sampler(options);
  const std::vector<Assignment> rows = row_sampler.sample(f, {0, 1});
  ASSERT_EQ(matrix.num_samples(), rows.size());
  for (std::size_t s = 0; s < rows.size(); ++s) {
    EXPECT_EQ(matrix.row(s), rows[s]) << "sample " << s;
  }
}

TEST(SamplerEnumerate, DeterministicForSeed) {
  CnfFormula f(10);
  f.add_clause({pos(0), pos(1), pos(2)});
  SamplerOptions options;
  options.num_samples = 50;
  options.seed = 123;
  Sampler a(options);
  Sampler b(options);
  const auto sa = a.sample(f, {0, 1});
  const auto sb = b.sample(f, {0, 1});
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i], sb[i]);
  }
}

TEST(SamplerEnumerate, UnsatYieldsEmptyMatrix) {
  CnfFormula f(2);
  f.add_clause({pos(0)});
  f.add_clause({neg(0)});
  Sampler sampler;
  EXPECT_TRUE(sampler.sample_packed(f, {}).empty());
}

TEST(Sampler, ExpiredDeadlineShortCircuitsBeforeMainRound) {
  // The fix under test: a deadline that expires during the probe round
  // must return the probe data directly instead of spinning up the
  // main-round solver (whose draw would immediately abandon). 40 free
  // variables: the space cannot be exhausted before the deadline.
  CnfFormula f(40);
  f.add_clause({pos(0), pos(1)});
  SamplerOptions options;
  options.num_samples = 100000000;
  options.probe_samples = 100000000;  // probe absorbs the whole budget
  options.adaptive = true;
  Sampler sampler(options);
  const util::Deadline deadline(0.05);
  const auto samples = sampler.sample(f, {0}, &deadline);
  EXPECT_TRUE(deadline.expired());
  EXPECT_FALSE(samples.empty());
  EXPECT_FALSE(sampler.stats().main_round)
      << "main round started after deadline expiry";
  EXPECT_EQ(sampler.stats().main_samples, 0u);
}

TEST(Sampler, DeadlineReturnsPartialData) {
  // 40 free variables: the space cannot be exhausted before the deadline.
  CnfFormula f(40);
  f.add_clause({pos(0), pos(1)});
  SamplerOptions options;
  // A fast solver draws ~100k trivial models in under 50ms, so the request
  // must exceed any plausible machine speed for the deadline to bind.
  options.num_samples = 100000000;
  Sampler sampler(options);
  const util::Deadline deadline(0.05);
  const auto samples = sampler.sample(f, {}, &deadline);
  EXPECT_TRUE(deadline.expired());
  EXPECT_LT(samples.size(), options.num_samples);
  EXPECT_FALSE(samples.empty());
}

// --- small model spaces are returned whole -----------------------------------

/// Every model of `f`, by fingerprint, from a blocking-clause all-SAT loop
/// independent of the sampler (one solve() per model).
std::set<std::uint64_t> all_models(const CnfFormula& f) {
  std::set<std::uint64_t> models;
  sat::Solver solver;
  if (!solver.add_formula(f)) return models;
  const auto n = static_cast<std::size_t>(f.num_vars());
  while (solver.solve() == sat::Result::kSat) {
    const Assignment& model = solver.model();
    EXPECT_TRUE(models.insert(cnf::fingerprint(model, n)).second);
    cnf::Clause block;
    for (Var v = 0; v < f.num_vars(); ++v) {
      block.push_back(cnf::Lit(v, model.value(v)));
    }
    if (!solver.add_clause(block)) break;
  }
  return models;
}

std::vector<Var> existential_vars(const dqbf::DqbfFormula& formula) {
  std::vector<Var> y_vars;
  for (const auto& e : formula.existentials()) y_vars.push_back(e.var);
  return y_vars;
}

struct Draw {
  cnf::SampleMatrix matrix;
  SamplerStats stats;
};

/// The sampler draw Manthan3 makes on suite instance `name` (`formula`)
/// at the paper seed of suite seed stream `stream`: default options, Y
/// biased.
Draw paper_draw(const std::string& name, const dqbf::DqbfFormula& formula,
                std::uint64_t stream) {
  SamplerOptions options;
  options.seed = testutil::suite_run_seed(name, stream);
  Sampler sampler(options);
  cnf::SampleMatrix matrix =
      sampler.sample_packed(formula.matrix(), existential_vars(formula));
  return {std::move(matrix), sampler.stats()};
}

TEST(SamplerContract, SmallSuiteSpacesAreReturnedWhole) {
  // Suite specs whose matrix has fewer models than the 500 requested,
  // from 4 (unreal_1x1_s0) to 304 (pec_7x2_s0): at every paper seed the
  // matrix must be exactly the full model set.
  for (const std::string name : {"unreal_1x1_s0", "xoreq_1x2_s0",
                                 "controller_3x3_s1", "pec_5x2_s1",
                                 "pec_7x2_s0"}) {
    const dqbf::DqbfFormula formula = testutil::suite_instance(name);
    const std::set<std::uint64_t> expected = all_models(formula.matrix());
    ASSERT_FALSE(expected.empty()) << name;
    ASSERT_LT(expected.size(), SamplerOptions{}.num_samples) << name;
    for (const std::uint64_t stream : {42u, 43u, 44u}) {
      const Draw draw = paper_draw(name, formula, stream);
      std::set<std::uint64_t> drawn;
      for (std::size_t s = 0; s < draw.matrix.num_samples(); ++s) {
        drawn.insert(cnf::fingerprint(draw.matrix.row(s)));
      }
      EXPECT_EQ(drawn.size(), draw.matrix.num_samples())
          << name << " " << stream;
      EXPECT_EQ(drawn, expected) << name << " " << stream;
      EXPECT_TRUE(draw.stats.exhausted) << name << " " << stream;
    }
  }
}

TEST(SamplerContract, LargeSpaceDrawIsUnchanged) {
  // plantedhard_18x6_s0 has far more models than requested and its draw
  // never stalls, so exact completion must not touch it: the 500 rows are
  // the ones the random draw produced before exact completion existed.
  const std::string name = "plantedhard_18x6_s0";
  const Draw draw = paper_draw(name, testutil::suite_instance(name), 42);
  ASSERT_EQ(draw.matrix.num_samples(), 500u);
  std::uint64_t fingerprint = draw.matrix.num_samples();
  for (std::size_t s = 0; s < draw.matrix.num_samples(); ++s) {
    fingerprint =
        util::splitmix64(fingerprint ^ cnf::fingerprint(draw.matrix.row(s)));
  }
  EXPECT_EQ(fingerprint, 0x75105d33f64d4499ULL);
  EXPECT_FALSE(draw.stats.exhausted);
}

}  // namespace
}  // namespace manthan::sampler
