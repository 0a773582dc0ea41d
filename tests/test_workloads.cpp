// Workload generators: well-formedness, True-by-construction guarantees,
// determinism, and suite assembly.
#include <gtest/gtest.h>

#include <set>

#include "aig/aig_sim.hpp"
#include "sat/solver.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace manthan::workloads {
namespace {

using cnf::Var;
using testutil::brute_force_true;

TEST(Workloads, PlantedIsWellFormed) {
  const dqbf::DqbfFormula f = gen_planted({8, 4, 3, 5, 30, 42});
  EXPECT_TRUE(f.validate().empty());
  EXPECT_EQ(f.num_universals(), 8u);
  EXPECT_EQ(f.num_existentials(), 4u);
  EXPECT_GT(f.matrix().num_clauses(), 0u);
}

TEST(Workloads, PlantedMatrixIsSatisfiable) {
  const dqbf::DqbfFormula f = gen_planted({8, 4, 3, 5, 30, 43});
  sat::Solver s;
  ASSERT_TRUE(s.add_formula(f.matrix()));
  EXPECT_EQ(s.solve(), sat::Result::kSat);
}

TEST(Workloads, PlantedIsTrueByConstruction) {
  // Small instance checked against exhaustive ground truth.
  const dqbf::DqbfFormula f = gen_planted({4, 2, 2, 3, 12, 7});
  EXPECT_TRUE(brute_force_true(f));
}

TEST(Workloads, PlantedDeterministicPerSeed) {
  const dqbf::DqbfFormula a = gen_planted({6, 3, 2, 4, 20, 5});
  const dqbf::DqbfFormula b = gen_planted({6, 3, 2, 4, 20, 5});
  ASSERT_EQ(a.matrix().num_clauses(), b.matrix().num_clauses());
  for (std::size_t i = 0; i < a.matrix().num_clauses(); ++i) {
    EXPECT_EQ(a.matrix().clause(i), b.matrix().clause(i));
  }
  const dqbf::DqbfFormula c = gen_planted({6, 3, 2, 4, 20, 6});
  bool differs = a.matrix().num_clauses() != c.matrix().num_clauses();
  for (std::size_t i = 0;
       !differs && i < a.matrix().num_clauses(); ++i) {
    differs = !(a.matrix().clause(i) == c.matrix().clause(i));
  }
  EXPECT_TRUE(differs);
}

TEST(Workloads, PecIsWellFormedAndSat) {
  const dqbf::DqbfFormula f = gen_pec({7, 2, 2, 3, 12, 17});
  EXPECT_TRUE(f.validate().empty());
  sat::Solver s;
  ASSERT_TRUE(s.add_formula(f.matrix()));
  EXPECT_EQ(s.solve(), sat::Result::kSat);
}

TEST(Workloads, PecBlackboxDepsAreSubsetsOfInputs) {
  const dqbf::DqbfFormula f = gen_pec({7, 2, 3, 3, 12, 19});
  // First 3 existentials are the blackboxes with small dependency sets;
  // the Tseitin auxiliaries depend on everything.
  ASSERT_GE(f.num_existentials(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LE(f.existentials()[i].deps.size(), 3u);
  }
}

TEST(Workloads, ControllerObservableVariantShape) {
  const dqbf::DqbfFormula f = gen_controller({4, 2, 2, true, 6, 23});
  EXPECT_TRUE(f.validate().empty());
  EXPECT_EQ(f.num_universals(), 6u);  // 4 state + 2 disturbance
  sat::Solver s;
  ASSERT_TRUE(s.add_formula(f.matrix()));
  EXPECT_EQ(s.solve(), sat::Result::kSat);
}

TEST(Workloads, SuccinctSatHasEmptyDeps) {
  const dqbf::DqbfFormula f = gen_succinct_sat({12, 3.0, 29});
  EXPECT_TRUE(f.validate().empty());
  EXPECT_EQ(f.num_universals(), 0u);
  for (const auto& e : f.existentials()) EXPECT_TRUE(e.deps.empty());
  // Planted satisfiable: the matrix must be SAT.
  sat::Solver s;
  ASSERT_TRUE(s.add_formula(f.matrix()));
  EXPECT_EQ(s.solve(), sat::Result::kSat);
}

TEST(Workloads, XorChainEqualityVariantIsTrue) {
  const dqbf::DqbfFormula f = gen_xor_chain({1, false, 1});
  EXPECT_TRUE(f.validate().empty());
  EXPECT_TRUE(brute_force_true(f));
}

TEST(Workloads, XorChainSharedVariantIsTrue) {
  const dqbf::DqbfFormula f = gen_xor_chain({1, true, 1});
  EXPECT_TRUE(brute_force_true(f));
}

TEST(Workloads, XorChainHasIncomparableWindows) {
  const dqbf::DqbfFormula f = gen_xor_chain({2, false, 1});
  ASSERT_EQ(f.num_existentials(), 4u);
  EXPECT_FALSE(f.deps_subset(0, 1));
  EXPECT_FALSE(f.deps_subset(1, 0));
}

TEST(Workloads, UnrealizableIsFalse) {
  const dqbf::DqbfFormula f = gen_unrealizable({1, false, 1});
  EXPECT_TRUE(f.validate().empty());
  EXPECT_FALSE(brute_force_true(f));
}

TEST(Workloads, StandardSuiteComposition) {
  const std::vector<Instance> suite = standard_suite({1, 2023});
  EXPECT_GT(suite.size(), 30u);
  std::set<std::string> names;
  std::set<std::string> families;
  for (const Instance& inst : suite) {
    EXPECT_TRUE(inst.formula.validate().empty()) << inst.name;
    names.insert(inst.name);
    families.insert(inst.family);
  }
  EXPECT_EQ(names.size(), suite.size()) << "instance names must be unique";
  // All seven families represented.
  EXPECT_EQ(families.size(), 7u);
}

TEST(Workloads, StandardSuiteScalesUp) {
  const std::size_t small = standard_suite({1, 2023}).size();
  const std::size_t large = standard_suite({2, 2023}).size();
  EXPECT_GT(large, small);
}

TEST(Workloads, StandardSuiteDeterministic) {
  const auto a = standard_suite({1, 99});
  const auto b = standard_suite({1, 99});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].formula.matrix().num_clauses(),
              b[i].formula.matrix().num_clauses());
  }
}

}  // namespace
}  // namespace manthan::workloads
