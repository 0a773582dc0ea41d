// Cross-substrate consistency: the CDCL solver, the BDD engine, brute
// force, and the AIG simulator must agree on satisfiability, model
// counts, and function semantics — these checks catch bugs in any one
// engine by majority. The two baselines built on the BDD engine must
// answer soundly on every standard-suite spec.
#include <gtest/gtest.h>

#include "aig/aig_cnf.hpp"
#include "aig/aig_sim.hpp"
#include "baselines/hqs_lite.hpp"
#include "baselines/pedant_lite.hpp"
#include "bdd/bdd.hpp"
#include "dqbf/certificate.hpp"
#include "sampler/sampler.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace manthan {
namespace {

using cnf::Clause;
using cnf::CnfFormula;
using cnf::Lit;
using cnf::Var;

CnfFormula random_cnf(Var num_vars, std::size_t num_clauses,
                      std::size_t width, util::Rng& rng) {
  CnfFormula f(num_vars);
  for (std::size_t c = 0; c < num_clauses; ++c) {
    Clause clause;
    for (std::size_t k = 0; k < width; ++k) {
      clause.push_back(Lit(static_cast<Var>(rng.next_below(
                               static_cast<std::uint64_t>(num_vars))),
                           rng.flip()));
    }
    f.add_clause(clause);
  }
  return f;
}

/// Exact model count by exhaustive enumeration.
std::size_t brute_count(const CnfFormula& f) {
  std::size_t count = 0;
  for (std::uint64_t bits = 0; bits < (1ULL << f.num_vars()); ++bits) {
    cnf::Assignment a(static_cast<std::size_t>(f.num_vars()));
    for (Var v = 0; v < f.num_vars(); ++v) a.set(v, ((bits >> v) & 1) != 0);
    if (f.satisfied_by(a)) ++count;
  }
  return count;
}

/// Model count via the SAT solver with blocking clauses.
std::size_t solver_count(const CnfFormula& f) {
  sat::Solver s;
  if (!s.add_formula(f)) return 0;
  std::size_t count = 0;
  while (s.solve() == sat::Result::kSat) {
    ++count;
    Clause blocking;
    for (Var v = 0; v < f.num_vars(); ++v) {
      blocking.push_back(Lit(v, s.model().value(v)));
    }
    if (!s.add_clause(blocking)) break;
    if (count > 4096) break;  // safety net
  }
  return count;
}

struct CrossParams {
  Var num_vars;
  std::size_t num_clauses;
  std::size_t width;
};

class CrossCheck : public ::testing::TestWithParam<CrossParams> {};

TEST_P(CrossCheck, SatBddBruteForceAgree) {
  const CrossParams p = GetParam();
  util::Rng rng(0xfeed + p.num_vars * 17 + p.num_clauses);
  for (int round = 0; round < 15; ++round) {
    const CnfFormula f = random_cnf(p.num_vars, p.num_clauses, p.width, rng);

    const std::size_t exact = brute_count(f);

    // SAT solver: satisfiability + enumeration count.
    EXPECT_EQ(solver_count(f), exact);

    // BDD: satisfiability + algebraic count.
    bdd::Bdd b;
    const bdd::NodeId node = b.from_cnf(f);
    EXPECT_EQ(node != bdd::kFalseNode, exact > 0);
    EXPECT_DOUBLE_EQ(
        b.sat_count(node, static_cast<std::size_t>(f.num_vars())),
        static_cast<double>(exact));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, CrossCheck,
    ::testing::Values(CrossParams{4, 6, 2}, CrossParams{6, 12, 3},
                      CrossParams{8, 20, 3}, CrossParams{10, 30, 3}));

TEST(CrossCheck, AigTseitinAgreesWithBdd) {
  // Random AIG cone: SAT-check of the Tseitin encoding vs BDD truth.
  util::Rng rng(0xabc);
  for (int round = 0; round < 15; ++round) {
    aig::Aig m;
    std::vector<aig::Ref> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(m.input(i));
    for (int g = 0; g < 25; ++g) {
      const aig::Ref a = pool[rng.next_below(pool.size())] ^
                         static_cast<aig::Ref>(rng.flip());
      const aig::Ref b = pool[rng.next_below(pool.size())] ^
                         static_cast<aig::Ref>(rng.flip());
      pool.push_back(m.and_gate(a, b));
    }
    const aig::Ref f = pool.back() ^ static_cast<aig::Ref>(rng.flip());

    // BDD of the same function via ite-decomposition of the AIG cone.
    bdd::Bdd b;
    std::unordered_map<std::uint32_t, bdd::NodeId> node_of;
    for (const std::uint32_t n : cone_topo_order(m, f)) {
      const aig::Aig::Node& node = m.node(n);
      if (n == 0) {
        node_of[n] = bdd::kFalseNode;
      } else if (node.input_id >= 0) {
        node_of[n] = b.var_node(node.input_id);
      } else {
        const bdd::NodeId f0 =
            aig::ref_complemented(node.fanin0)
                ? b.not_op(node_of[aig::ref_node(node.fanin0)])
                : node_of[aig::ref_node(node.fanin0)];
        const bdd::NodeId f1 =
            aig::ref_complemented(node.fanin1)
                ? b.not_op(node_of[aig::ref_node(node.fanin1)])
                : node_of[aig::ref_node(node.fanin1)];
        node_of[n] = b.and_op(f0, f1);
      }
    }
    bdd::NodeId bdd_f = node_of[aig::ref_node(f)];
    if (aig::ref_complemented(f)) bdd_f = b.not_op(bdd_f);

    // Satisfiability of the function via Tseitin + CDCL.
    cnf::CnfFormula enc(6);
    const Lit root = aig::encode_cone(m, f, enc);
    enc.add_unit(root);
    sat::Solver s;
    const bool ok = s.add_formula(enc);
    const bool sat = ok && s.solve() == sat::Result::kSat;
    EXPECT_EQ(sat, bdd_f != bdd::kFalseNode);

    // Tautology: simulate vs BDD.
    EXPECT_EQ(aig::is_tautology(m, f), bdd_f == bdd::kTrueNode);
  }
}

TEST(CrossCheck, SamplerModelsVerifiedBySolverAndBdd) {
  util::Rng rng(0x5a5a);
  const CnfFormula f = random_cnf(8, 16, 3, rng);
  bdd::Bdd b;
  const bdd::NodeId node = b.from_cnf(f);
  sampler::SamplerOptions options;
  options.num_samples = 50;
  sampler::Sampler sampler(options);
  for (const cnf::Assignment& a : sampler.sample(f, {})) {
    std::unordered_map<std::int32_t, bool> in;
    for (Var v = 0; v < f.num_vars(); ++v) in[v] = a.value(v);
    EXPECT_TRUE(b.evaluate(node, in));
  }
}

// HqsLite and PedantLite share the BDD engine; HqsLite's node budget
// decides whether it answers at all, so a cheaper matrix build turns
// budget aborts into answers. On every standard-suite spec neither may
// declare a True-by-construction spec False, and every kRealizable must
// pass the certificate check. One test per spec, so they run in parallel.
class SuiteBaselineSoundness : public ::testing::TestWithParam<int> {};

TEST_P(SuiteBaselineSoundness, HqsAndPedantAnswersAreSound) {
  static const std::vector<workloads::Instance> suite =
      workloads::standard_suite(workloads::SuiteParams{});
  ASSERT_LT(static_cast<std::size_t>(GetParam()), suite.size());
  const workloads::Instance& instance = suite[GetParam()];
  const bool true_by_construction =
      instance.family == "planted" || instance.family == "planted_hard" ||
      instance.family == "pec" || instance.family == "succinct_sat" ||
      instance.family == "xor_chain";
  constexpr double kBudgetSeconds = 5.0;
  for (const bool hqs : {true, false}) {
    SCOPED_TRACE(instance.name + (hqs ? " HqsLite" : " PedantLite"));
    aig::Aig manager;
    core::SynthesisResult result;
    if (hqs) {
      baselines::HqsLiteOptions options;
      options.time_limit_seconds = kBudgetSeconds;
      result = baselines::HqsLite(options).synthesize(instance.formula,
                                                      manager);
    } else {
      baselines::PedantLiteOptions options;
      options.time_limit_seconds = kBudgetSeconds;
      result = baselines::PedantLite(options).synthesize(instance.formula,
                                                         manager);
    }
    if (true_by_construction) {
      EXPECT_NE(result.status, core::SynthesisStatus::kUnrealizable);
    }
    if (result.status == core::SynthesisStatus::kRealizable) {
      EXPECT_EQ(dqbf::check_certificate(instance.formula, manager,
                                        result.vector)
                    .status,
                dqbf::CertificateStatus::kValid);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StandardSuite, SuiteBaselineSoundness,
                         ::testing::Range(0, 50));

}  // namespace
}  // namespace manthan
