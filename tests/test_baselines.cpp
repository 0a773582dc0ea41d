// Baseline engines (HqsLite, PedantLite): correctness on True and False
// instances, characteristic failure modes, and soundness sweeps.
#include <gtest/gtest.h>

#include <chrono>

#include "baselines/hqs_lite.hpp"
#include "baselines/pedant_lite.hpp"
#include "dqbf/certificate.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace manthan::baselines {
namespace {

using cnf::neg;
using cnf::pos;
using cnf::Var;
using core::SynthesisResult;
using core::SynthesisStatus;
using testutil::expect_certified;
using testutil::paper_example;

// --- HqsLite ---------------------------------------------------------------

TEST(HqsLite, SolvesPaperExample) {
  const dqbf::DqbfFormula f = paper_example();
  aig::Aig manager;
  HqsLite engine;
  expect_certified(f, manager, engine.synthesize(f, manager));
}

TEST(HqsLite, SolvesSkolemInstanceWithoutExpansion) {
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.add_existential(1, {0});
  f.matrix().add_clause({pos(1), pos(0)});
  f.matrix().add_clause({neg(1), neg(0)});
  aig::Aig manager;
  HqsLite engine;
  const SynthesisResult result = engine.synthesize(f, manager);
  expect_certified(f, manager, result);
}

TEST(HqsLite, SolvesXorChainViaExpansion) {
  // Incomparable windows force genuine universal expansion.
  const dqbf::DqbfFormula f = workloads::gen_xor_chain({2, true, 1});
  aig::Aig manager;
  HqsLite engine;
  expect_certified(f, manager, engine.synthesize(f, manager));
}

TEST(HqsLite, DetectsFalseInstance) {
  const dqbf::DqbfFormula f = workloads::gen_unrealizable({2, false, 3});
  aig::Aig manager;
  HqsLite engine;
  EXPECT_EQ(engine.synthesize(f, manager).status,
            SynthesisStatus::kUnrealizable);
}

TEST(HqsLite, ExpansionLimitTriggersGracefully) {
  // Many incomparable windows: expansion variable count exceeds the cap.
  const dqbf::DqbfFormula f = workloads::gen_xor_chain({8, false, 1});
  aig::Aig manager;
  HqsLiteOptions options;
  options.max_expansion_vars = 4;
  HqsLite engine(options);
  EXPECT_EQ(engine.synthesize(f, manager).status, SynthesisStatus::kLimit);
}

TEST(HqsLite, SucceedsOnSuccinctSat) {
  const dqbf::DqbfFormula f = workloads::gen_succinct_sat({12, 3.0, 9});
  aig::Aig manager;
  HqsLite engine;
  expect_certified(f, manager, engine.synthesize(f, manager));
}

TEST(HqsLite, NoExistentialsTautology) {
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.matrix().add_clause({pos(0), neg(0)});
  aig::Aig manager;
  HqsLite engine;
  EXPECT_EQ(engine.synthesize(f, manager).status,
            SynthesisStatus::kRealizable);
}

TEST(HqsLite, NoExistentialsNonTautology) {
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.matrix().add_clause({neg(0)});
  aig::Aig manager;
  HqsLite engine;
  EXPECT_EQ(engine.synthesize(f, manager).status,
            SynthesisStatus::kUnrealizable);
}

// --- PedantLite --------------------------------------------------------------

TEST(PedantLite, SolvesPaperExample) {
  const dqbf::DqbfFormula f = paper_example();
  aig::Aig manager;
  PedantLite engine;
  expect_certified(f, manager, engine.synthesize(f, manager));
}

TEST(PedantLite, InstantOnFullyDefinedInstance) {
  // y0 <-> x0 & x1 — extracted, zero counterexamples needed after the
  // first verification pass.
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.add_universal(1);
  f.add_existential(2, {0, 1});
  f.matrix().add_clause({neg(2), pos(0)});
  f.matrix().add_clause({neg(2), pos(1)});
  f.matrix().add_clause({pos(2), neg(0), neg(1)});
  aig::Aig manager;
  PedantLite engine;
  const SynthesisResult result = engine.synthesize(f, manager);
  expect_certified(f, manager, result);
  EXPECT_EQ(result.stats.unique_defined, 1u);
}

TEST(PedantLite, StopsOnTimeDuringExtraction) {
  // slow_planted()'s matrix BDD takes PedantLite about a second to build
  // and project; the build and the projection poll the deadline.
  const dqbf::DqbfFormula f = testutil::slow_planted();
  PedantLiteOptions options;
  options.time_limit_seconds = 0.1;
  aig::Aig manager;
  const auto start = std::chrono::steady_clock::now();
  const SynthesisResult result = PedantLite(options).synthesize(f, manager);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(result.status, SynthesisStatus::kTimeout);
  EXPECT_LE(elapsed_ms.count(), 500);
}

TEST(PedantLite, ArbiterTableCompletesUnderdefinedInstance) {
  // (x ∨ y): y free when x=1; table fills in as counterexamples arrive.
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.add_existential(1, {0});
  f.matrix().add_clause({pos(0), pos(1)});
  aig::Aig manager;
  PedantLite engine;
  expect_certified(f, manager, engine.synthesize(f, manager));
}

TEST(PedantLite, DetectsExtensionFalseInstance) {
  workloads::UnrealizableParams params;
  params.num_constraints = 1;
  params.extension_detectable = true;
  params.seed = 5;
  const dqbf::DqbfFormula f = workloads::gen_unrealizable(params);
  aig::Aig manager;
  PedantLite engine;
  EXPECT_EQ(engine.synthesize(f, manager).status,
            SynthesisStatus::kUnrealizable);
}

TEST(PedantLite, XorFalseInstanceEndsBounded) {
  // The xor-shaped False instance cannot be refuted by extension checks;
  // the arbiter table oscillates and the engine gives up within bounds.
  const dqbf::DqbfFormula f = workloads::gen_unrealizable({1, false, 5});
  aig::Aig manager;
  PedantLiteOptions options;
  options.max_iterations = 200;
  PedantLite engine(options);
  const SynthesisStatus status = engine.synthesize(f, manager).status;
  EXPECT_TRUE(status == SynthesisStatus::kIncomplete ||
              status == SynthesisStatus::kLimit);
}

TEST(PedantLite, SolvesSuccinctSatByTable) {
  const dqbf::DqbfFormula f = workloads::gen_succinct_sat({10, 3.0, 13});
  aig::Aig manager;
  PedantLite engine;
  const SynthesisResult result = engine.synthesize(f, manager);
  if (result.status == SynthesisStatus::kRealizable) {
    expect_certified(f, manager, result);
  } else {
    // Bounded oscillation is an accepted outcome for the table approach.
    EXPECT_TRUE(result.status == SynthesisStatus::kIncomplete ||
                result.status == SynthesisStatus::kLimit);
  }
}

TEST(PedantLite, UnsatMatrixIsUnrealizable) {
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.add_existential(1, {0});
  f.matrix().add_clause({pos(1)});
  f.matrix().add_clause({neg(1)});
  aig::Aig manager;
  PedantLite engine;
  EXPECT_EQ(engine.synthesize(f, manager).status,
            SynthesisStatus::kUnrealizable);
}

// --- cross-engine agreement sweep -------------------------------------------

struct AgreementCase {
  int family;
  std::uint64_t seed;
};

class BaselineAgreement : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(BaselineAgreement, EnginesNeverContradict) {
  const AgreementCase param = GetParam();
  dqbf::DqbfFormula f;
  switch (param.family) {
    case 0: f = workloads::gen_planted({6, 3, 2, 4, 16, param.seed}); break;
    case 1: f = workloads::gen_pec({5, 2, 2, 2, 8, param.seed}); break;
    case 2: f = workloads::gen_xor_chain({1, false, param.seed}); break;
    default:
      f = workloads::gen_unrealizable({1, param.seed % 2 == 0, param.seed});
      break;
  }
  aig::Aig m1;
  aig::Aig m2;
  HqsLiteOptions ho;
  ho.time_limit_seconds = 20.0;
  PedantLiteOptions po;
  po.time_limit_seconds = 20.0;
  HqsLite hqs(ho);
  PedantLite pedant(po);
  const SynthesisResult rh = hqs.synthesize(f, m1);
  const SynthesisResult rp = pedant.synthesize(f, m2);
  // A definitive True from one engine must never meet a definitive False
  // from the other.
  const bool h_true = rh.status == SynthesisStatus::kRealizable;
  const bool h_false = rh.status == SynthesisStatus::kUnrealizable;
  const bool p_true = rp.status == SynthesisStatus::kRealizable;
  const bool p_false = rp.status == SynthesisStatus::kUnrealizable;
  EXPECT_FALSE(h_true && p_false);
  EXPECT_FALSE(h_false && p_true);
  if (h_true) {
    EXPECT_EQ(dqbf::check_certificate(f, m1, rh.vector).status,
              dqbf::CertificateStatus::kValid);
  }
  if (p_true) {
    EXPECT_EQ(dqbf::check_certificate(f, m2, rp.vector).status,
              dqbf::CertificateStatus::kValid);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, BaselineAgreement,
    ::testing::Values(AgreementCase{0, 1}, AgreementCase{0, 2},
                      AgreementCase{1, 1}, AgreementCase{1, 2},
                      AgreementCase{2, 1}, AgreementCase{2, 2},
                      AgreementCase{3, 1}, AgreementCase{3, 2}));

}  // namespace
}  // namespace manthan::baselines
