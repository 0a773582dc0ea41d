// ROBDD engine: canonicity, operation semantics vs truth tables,
// quantification, composition, counting, the AIG bridge, the CNF build
// schedule and the tables across growth.
#include <gtest/gtest.h>

#include "aig/aig.hpp"
#include "bdd/bdd.hpp"
#include "cnf/cnf.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace manthan::bdd {
namespace {

TEST(Bdd, TerminalsAndLiterals) {
  Bdd b;
  EXPECT_EQ(b.constant(true), kTrueNode);
  EXPECT_EQ(b.constant(false), kFalseNode);
  const NodeId x = b.var_node(0);
  EXPECT_EQ(b.not_op(b.not_op(x)), x);
  EXPECT_EQ(b.literal(0, true), x);
  EXPECT_EQ(b.not_op(x), b.literal(0, false));
}

TEST(Bdd, CanonicityViaHashConsing) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  // (x & y) built two different ways must be the same node.
  const NodeId a1 = b.and_op(x, y);
  const NodeId a2 = b.not_op(b.or_op(b.not_op(x), b.not_op(y)));
  EXPECT_EQ(a1, a2);
  // x xor y == (x & !y) | (!x & y)
  const NodeId x1 = b.xor_op(x, y);
  const NodeId x2 = b.or_op(b.and_op(x, b.not_op(y)),
                            b.and_op(b.not_op(x), y));
  EXPECT_EQ(x1, x2);
}

TEST(Bdd, EvaluateAgreesWithSemantics) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  const NodeId z = b.var_node(2);
  const NodeId f = b.ite(x, y, z);
  for (int bits = 0; bits < 8; ++bits) {
    std::unordered_map<std::int32_t, bool> in{
        {0, (bits & 1) != 0}, {1, (bits & 2) != 0}, {2, (bits & 4) != 0}};
    EXPECT_EQ(b.evaluate(f, in), in[0] ? in[1] : in[2]);
  }
}

TEST(Bdd, TautologyIsTrueNode) {
  Bdd b;
  const NodeId x = b.var_node(0);
  EXPECT_EQ(b.or_op(x, b.not_op(x)), kTrueNode);
  EXPECT_EQ(b.and_op(x, b.not_op(x)), kFalseNode);
}

TEST(Bdd, ExistsCollapsesVariable) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  const NodeId f = b.and_op(x, y);
  EXPECT_EQ(b.exists(f, {0}), y);
  EXPECT_EQ(b.exists(f, {0, 1}), kTrueNode);
  EXPECT_EQ(b.forall(f, {0}), kFalseNode);
  const NodeId g = b.or_op(x, y);
  EXPECT_EQ(b.forall(g, {0}), y);
}

TEST(Bdd, RestrictMatchesCofactor) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  const NodeId f = b.xor_op(x, y);
  EXPECT_EQ(b.restrict_var(f, 0, true), b.not_op(y));
  EXPECT_EQ(b.restrict_var(f, 0, false), y);
}

TEST(Bdd, ComposeSemantics) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  const NodeId z = b.var_node(2);
  // f = x & y; x := (y | z)  =>  (y|z) & y == y
  const NodeId f = b.and_op(x, y);
  EXPECT_EQ(b.compose(f, 0, b.or_op(y, z)), y);
}

TEST(Bdd, SupportListsVariables) {
  Bdd b;
  b.declare_order({4, 2, 9});
  const NodeId f = b.and_op(b.var_node(4), b.xor_op(b.var_node(2),
                                                    b.var_node(9)));
  // Support is reported in level (declaration) order.
  EXPECT_EQ(b.support(f), (std::vector<std::int32_t>{4, 2, 9}));
  EXPECT_TRUE(b.support(kTrueNode).empty());
}

TEST(Bdd, SatCount) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  EXPECT_DOUBLE_EQ(b.sat_count(b.and_op(x, y), 2), 1.0);
  EXPECT_DOUBLE_EQ(b.sat_count(b.or_op(x, y), 2), 3.0);
  EXPECT_DOUBLE_EQ(b.sat_count(b.xor_op(x, y), 2), 2.0);
  EXPECT_DOUBLE_EQ(b.sat_count(kTrueNode, 2), 4.0);
  EXPECT_DOUBLE_EQ(b.sat_count(kFalseNode, 2), 0.0);
  // Extra unconstrained variables double the count.
  EXPECT_DOUBLE_EQ(b.sat_count(b.and_op(x, y), 4), 4.0);
}

TEST(Bdd, PickModelSatisfies) {
  Bdd b;
  const NodeId x = b.var_node(0);
  const NodeId y = b.var_node(1);
  const NodeId f = b.and_op(b.not_op(x), y);
  std::unordered_map<std::int32_t, bool> model;
  ASSERT_TRUE(b.pick_model(f, model));
  EXPECT_TRUE(b.evaluate(f, model));
  EXPECT_FALSE(b.pick_model(kFalseNode, model));
}

TEST(Bdd, FromCnfSemantics) {
  cnf::CnfFormula f(3);
  f.add_clause({cnf::pos(0), cnf::neg(1)});
  f.add_clause({cnf::pos(1), cnf::pos(2)});
  Bdd b;
  const NodeId node = b.from_cnf(f);
  for (int bits = 0; bits < 8; ++bits) {
    cnf::Assignment a(3);
    std::unordered_map<std::int32_t, bool> in;
    for (int v = 0; v < 3; ++v) {
      const bool value = ((bits >> v) & 1) != 0;
      a.set(v, value);
      in[v] = value;
    }
    EXPECT_EQ(b.evaluate(node, in), f.satisfied_by(a));
  }
}

TEST(Bdd, FromCnfLimitedAborts) {
  // A formula whose BDD has exponentially many nodes under the identity
  // order would exceed a tiny budget; use several xor constraints.
  cnf::CnfFormula f(12);
  for (int i = 0; i + 1 < 12; i += 2) {
    f.add_clause({cnf::pos(i), cnf::pos(i + 1)});
    f.add_clause({cnf::neg(i), cnf::neg(i + 1)});
  }
  Bdd b;
  EXPECT_FALSE(b.from_cnf_limited(f, 4).has_value());
  Bdd b2;
  EXPECT_TRUE(b2.from_cnf_limited(f, 100000).has_value());
}

/// The conjunction of `formula`'s clauses in input order, each clause the
/// disjunction of its literals in input order.
NodeId in_order_conjunction(Bdd& b, const cnf::CnfFormula& formula) {
  NodeId acc = kTrueNode;
  for (const cnf::Clause& clause : formula.clauses()) {
    NodeId c = kFalseNode;
    for (const cnf::Lit l : clause) {
      c = b.or_op(c, b.literal(l.var(), !l.negated()));
    }
    acc = b.and_op(acc, c);
  }
  return acc;
}

TEST(Bdd, BottomUpBuildIsSameRobdd) {
  util::Rng rng(4242);
  std::vector<cnf::CnfFormula> formulas;
  for (int round = 0; round < 30; ++round) {
    const cnf::Var n = 6 + static_cast<cnf::Var>(rng.next_below(10));
    cnf::CnfFormula f(n);
    const std::size_t clauses = 2 + rng.next_below(4 * n);
    for (std::size_t c = 0; c < clauses; ++c) {
      cnf::Clause clause;
      const std::size_t width = 1 + rng.next_below(4);
      for (std::size_t k = 0; k < width; ++k) {
        clause.push_back(cnf::Lit(
            static_cast<cnf::Var>(rng.next_below(n)), rng.flip()));
      }
      f.add_clause(clause);
    }
    formulas.push_back(std::move(f));
  }
  formulas.push_back(testutil::suite_instance("pec_7x2_s0").matrix());
  formulas.push_back(testutil::suite_instance("controller_4x3_s0").matrix());
  for (const cnf::CnfFormula& f : formulas) {
    Bdd b;
    const std::optional<NodeId> bottom_up =
        b.from_cnf_limited(f, std::size_t{1} << 30);
    ASSERT_TRUE(bottom_up.has_value());
    EXPECT_EQ(*bottom_up, in_order_conjunction(b, f));
  }
}

TEST(Bdd, TablesStayCanonicalAcrossGrowth) {
  // OR_i (x_i & x_{n+i}) under the order x_0..x_{2n-1} has about 2^(n+1)
  // nodes: enough to double both tables many times over. x_{2n} is
  // declared below them and is not in the support.
  constexpr std::int32_t n = 16;
  Bdd b;
  std::vector<std::int32_t> order;
  for (std::int32_t v = 0; v <= 2 * n; ++v) order.push_back(v);
  b.declare_order(order);
  const auto pairs = [&](std::int32_t count) {
    NodeId acc = kFalseNode;
    for (std::int32_t i = 0; i < count; ++i) {
      acc = b.or_op(acc, b.and_op(b.var_node(i), b.var_node(n + i)));
    }
    return acc;
  };
  const NodeId f = pairs(n);
  ASSERT_GE(b.num_nodes(), 100000u);
  const std::size_t grown = b.num_nodes();
  // The rebuild is answered by the computed table; these walks call mk on
  // every node of f again and must find each one in the unique table.
  EXPECT_EQ(pairs(n), f);
  EXPECT_EQ(b.restrict_var(f, 2 * n, true), f);
  EXPECT_EQ(b.exists(f, {2 * n}), f);
  EXPECT_EQ(b.num_nodes(), grown);

  // Cofactor x_2..x_{n-1} away: (x_0 & x_n) | (x_1 & x_{n+1}) is left,
  // the same node as building it directly.
  NodeId g = f;
  for (std::int32_t i = 2; i < n; ++i) g = b.restrict_var(g, i, false);
  EXPECT_EQ(g, pairs(2));
  EXPECT_EQ(b.support(g), (std::vector<std::int32_t>{0, 1, n, n + 1}));

  // exists/forall/restrict against truth tables over g's support.
  const NodeId ex = b.exists(g, {0});
  const NodeId all = b.forall(g, {0});
  const NodeId pos = b.restrict_var(g, n, true);
  for (int bits = 0; bits < 16; ++bits) {
    std::unordered_map<std::int32_t, bool> in{{0, (bits & 1) != 0},
                                              {1, (bits & 2) != 0},
                                              {n, (bits & 4) != 0},
                                              {n + 1, (bits & 8) != 0}};
    const auto g_at = [&](bool x0, bool xn) {
      std::unordered_map<std::int32_t, bool> at = in;
      at[0] = x0;
      at[n] = xn;
      return b.evaluate(g, at);
    };
    EXPECT_EQ(b.evaluate(ex, in), g_at(false, in[n]) || g_at(true, in[n]));
    EXPECT_EQ(b.evaluate(all, in), g_at(false, in[n]) && g_at(true, in[n]));
    EXPECT_EQ(b.evaluate(pos, in), g_at(in[0], true));
  }
}

TEST(Bdd, DagSizeCountsNodes) {
  Bdd b;
  const NodeId x = b.var_node(0);
  EXPECT_EQ(b.dag_size(kTrueNode), 1u);
  EXPECT_EQ(b.dag_size(x), 3u);  // node + two terminals
}

TEST(Bdd, DeclareOrderRespected) {
  Bdd b;
  b.declare_order({5, 3, 1});
  // Top variable of a conjunction is the first declared one.
  const NodeId f = b.and_op(b.var_node(1), b.var_node(5));
  EXPECT_EQ(b.var_of(f), 5);
}

TEST(BddAig, ConversionPreservesSemantics) {
  util::Rng rng(31);
  for (int round = 0; round < 10; ++round) {
    // Random CNF -> BDD -> AIG; compare on all assignments.
    cnf::CnfFormula f(5);
    for (int c = 0; c < 8; ++c) {
      cnf::Clause clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(cnf::Lit(
            static_cast<cnf::Var>(rng.next_below(5)), rng.flip()));
      }
      f.add_clause(clause);
    }
    Bdd b;
    const NodeId node = b.from_cnf(f);
    aig::Aig manager;
    const aig::Ref ref = bdd_to_aig(b, node, manager);
    for (int bits = 0; bits < 32; ++bits) {
      std::unordered_map<std::int32_t, bool> in;
      cnf::Assignment a(5);
      for (int v = 0; v < 5; ++v) {
        const bool value = ((bits >> v) & 1) != 0;
        in[v] = value;
        a.set(v, value);
      }
      EXPECT_EQ(manager.evaluate(ref, in), f.satisfied_by(a));
    }
  }
}

// Property: BDD ops agree with AIG simulation on random expressions.
TEST(BddProperty, RandomExpressionAgreement) {
  util::Rng rng(77);
  for (int round = 0; round < 15; ++round) {
    Bdd b;
    aig::Aig m;
    std::vector<NodeId> bp;
    std::vector<aig::Ref> ap;
    for (int i = 0; i < 5; ++i) {
      bp.push_back(b.var_node(i));
      ap.push_back(m.input(i));
    }
    for (int g = 0; g < 20; ++g) {
      const std::size_t i = rng.next_below(bp.size());
      const std::size_t j = rng.next_below(bp.size());
      switch (rng.next_below(3)) {
        case 0:
          bp.push_back(b.and_op(bp[i], bp[j]));
          ap.push_back(m.and_gate(ap[i], ap[j]));
          break;
        case 1:
          bp.push_back(b.or_op(bp[i], b.not_op(bp[j])));
          ap.push_back(m.or_gate(ap[i], aig::ref_not(ap[j])));
          break;
        default:
          bp.push_back(b.xor_op(bp[i], bp[j]));
          ap.push_back(m.xor_gate(ap[i], ap[j]));
          break;
      }
    }
    for (int bits = 0; bits < 32; ++bits) {
      std::unordered_map<std::int32_t, bool> in;
      for (int v = 0; v < 5; ++v) in[v] = ((bits >> v) & 1) != 0;
      EXPECT_EQ(b.evaluate(bp.back(), in), m.evaluate(ap.back(), in));
    }
  }
}

// Regression guard on the clause schedule: deepest-clause-first keeps the
// manager at 9,027 nodes on this matrix, where an in-order build
// allocates 30,952.
TEST(UniqueDef, MatrixBddStaysSmall) {
  const dqbf::DqbfFormula f = testutil::suite_instance("pec_7x2_s0");
  Bdd b;
  ASSERT_TRUE(b.from_cnf_limited(f.matrix(), 200000).has_value());
  EXPECT_LE(b.num_nodes(), 12000u);
}

}  // namespace
}  // namespace manthan::bdd
