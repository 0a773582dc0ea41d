// AIG package: hashing, folding, composition, support, CNF encoding, and
// simulation agreement properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_cnf.hpp"
#include "aig/aig_sim.hpp"
#include "aig/incremental_cnf.hpp"
#include "cnf/sample_matrix.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace manthan::aig {
namespace {

TEST(Aig, ConstantsAndNegation) {
  EXPECT_EQ(ref_not(kFalseRef), kTrueRef);
  EXPECT_EQ(ref_not(kTrueRef), kFalseRef);
  EXPECT_EQ(Aig::constant(true), kTrueRef);
  EXPECT_EQ(Aig::constant(false), kFalseRef);
}

TEST(Aig, ConstantFolding) {
  Aig m;
  const Ref a = m.input(0);
  EXPECT_EQ(m.and_gate(a, kFalseRef), kFalseRef);
  EXPECT_EQ(m.and_gate(a, kTrueRef), a);
  EXPECT_EQ(m.and_gate(a, a), a);
  EXPECT_EQ(m.and_gate(a, ref_not(a)), kFalseRef);
  EXPECT_EQ(m.or_gate(a, kTrueRef), kTrueRef);
  EXPECT_EQ(m.or_gate(a, kFalseRef), a);
}

TEST(Aig, StructuralHashing) {
  Aig m;
  const Ref a = m.input(0);
  const Ref b = m.input(1);
  EXPECT_EQ(m.and_gate(a, b), m.and_gate(b, a));
  const std::size_t nodes = m.num_nodes();
  (void)m.and_gate(a, b);
  EXPECT_EQ(m.num_nodes(), nodes);
}

TEST(Aig, EvaluateBasicGates) {
  Aig m;
  const Ref a = m.input(0);
  const Ref b = m.input(1);
  const Ref conj = m.and_gate(a, b);
  const Ref x = m.xor_gate(a, b);
  for (const bool va : {false, true}) {
    for (const bool vb : {false, true}) {
      std::unordered_map<std::int32_t, bool> in{{0, va}, {1, vb}};
      EXPECT_EQ(m.evaluate(conj, in), va && vb);
      EXPECT_EQ(m.evaluate(x, in), va != vb);
      EXPECT_EQ(m.evaluate(m.or_gate(a, b), in), va || vb);
      EXPECT_EQ(m.evaluate(m.equiv_gate(a, b), in), va == vb);
      EXPECT_EQ(m.evaluate(m.implies_gate(a, b), in), !va || vb);
    }
  }
}

TEST(Aig, IteSemantics) {
  Aig m;
  const Ref c = m.input(0);
  const Ref t = m.input(1);
  const Ref e = m.input(2);
  const Ref ite = m.ite_gate(c, t, e);
  for (int bits = 0; bits < 8; ++bits) {
    std::unordered_map<std::int32_t, bool> in{
        {0, (bits & 1) != 0}, {1, (bits & 2) != 0}, {2, (bits & 4) != 0}};
    EXPECT_EQ(m.evaluate(ite, in), in[0] ? in[1] : in[2]);
  }
}

TEST(Aig, AndAllOrAll) {
  Aig m;
  std::vector<Ref> inputs;
  for (int i = 0; i < 5; ++i) inputs.push_back(m.input(i));
  const Ref conj = m.and_all(inputs);
  const Ref disj = m.or_all(inputs);
  EXPECT_EQ(m.and_all({}), kTrueRef);
  EXPECT_EQ(m.or_all({}), kFalseRef);
  std::unordered_map<std::int32_t, bool> all_true;
  std::unordered_map<std::int32_t, bool> one_false;
  for (int i = 0; i < 5; ++i) {
    all_true[i] = true;
    one_false[i] = i != 2;
  }
  EXPECT_TRUE(m.evaluate(conj, all_true));
  EXPECT_FALSE(m.evaluate(conj, one_false));
  EXPECT_TRUE(m.evaluate(disj, one_false));
}

TEST(Aig, SupportReflectsCone) {
  Aig m;
  const Ref a = m.input(3);
  const Ref b = m.input(7);
  const Ref c = m.input(5);
  const Ref f = m.or_gate(m.and_gate(a, b), c);
  EXPECT_EQ(m.support(f), (std::vector<std::int32_t>{3, 5, 7}));
  EXPECT_TRUE(m.support(kTrueRef).empty());
  EXPECT_EQ(m.support(a), (std::vector<std::int32_t>{3}));
}

TEST(Aig, ComposeSubstitutesInputs) {
  Aig m;
  const Ref a = m.input(0);
  const Ref b = m.input(1);
  const Ref c = m.input(2);
  const Ref f = m.xor_gate(a, b);
  // b := a & c  =>  f' = a xor (a & c)
  const Ref composed = m.compose(f, {{1, m.and_gate(a, c)}});
  for (int bits = 0; bits < 8; ++bits) {
    std::unordered_map<std::int32_t, bool> in{
        {0, (bits & 1) != 0}, {1, (bits & 2) != 0}, {2, (bits & 4) != 0}};
    EXPECT_EQ(m.evaluate(composed, in), in[0] != (in[0] && in[2]));
  }
  // Substituted variable no longer in support.
  const auto support = m.support(composed);
  EXPECT_EQ(std::count(support.begin(), support.end(), 1), 0);
}

TEST(Aig, ComposeIsSimultaneous) {
  // swap inputs: {0 -> x1, 1 -> x0} must not cascade.
  Aig m;
  const Ref a = m.input(0);
  const Ref b = m.input(1);
  const Ref f = m.and_gate(a, ref_not(b));
  const Ref swapped = m.compose(f, {{0, b}, {1, a}});
  std::unordered_map<std::int32_t, bool> in{{0, false}, {1, true}};
  EXPECT_EQ(m.evaluate(swapped, in), true && !false);
}

TEST(Aig, CofactorFixesInput) {
  Aig m;
  const Ref a = m.input(0);
  const Ref b = m.input(1);
  const Ref f = m.xor_gate(a, b);
  const Ref f1 = m.cofactor(f, 0, true);
  std::unordered_map<std::int32_t, bool> in{{1, true}};
  EXPECT_FALSE(m.evaluate(f1, in));
  in[1] = false;
  EXPECT_TRUE(m.evaluate(f1, in));
}

TEST(AigSim, Simulate64MatchesEvaluate) {
  util::Rng rng(42);
  Aig m;
  std::vector<Ref> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(m.input(i));
  for (int g = 0; g < 30; ++g) {
    const Ref a = pool[rng.next_below(pool.size())] ^
                  static_cast<Ref>(rng.flip());
    const Ref b = pool[rng.next_below(pool.size())] ^
                  static_cast<Ref>(rng.flip());
    pool.push_back(m.and_gate(a, b));
  }
  const Ref f = pool.back();
  std::unordered_map<std::int32_t, std::uint64_t> patterns;
  for (int i = 0; i < 6; ++i) patterns[i] = rng.next();
  const std::uint64_t word = simulate64(m, f, patterns);
  for (int bit = 0; bit < 64; ++bit) {
    std::unordered_map<std::int32_t, bool> in;
    for (int i = 0; i < 6; ++i) in[i] = ((patterns[i] >> bit) & 1) != 0;
    EXPECT_EQ(((word >> bit) & 1) != 0, m.evaluate(f, in)) << "bit " << bit;
  }
}

TEST(AigSim, TautologyDetection) {
  Aig m;
  const Ref a = m.input(0);
  const Ref b = m.input(1);
  EXPECT_TRUE(is_tautology(m, kTrueRef));
  EXPECT_FALSE(is_tautology(m, kFalseRef));
  EXPECT_TRUE(is_tautology(m, m.or_gate(a, ref_not(a))));
  EXPECT_FALSE(is_tautology(m, m.or_gate(a, b)));
  // (a -> b) or (b -> a) is a tautology.
  EXPECT_TRUE(is_tautology(
      m, m.or_gate(m.implies_gate(a, b), m.implies_gate(b, a))));
}

TEST(AigSim, TautologyWithManyInputs) {
  // Force the multi-word path (> 6 support variables).
  Aig m;
  std::vector<Ref> ins;
  for (int i = 0; i < 9; ++i) ins.push_back(m.input(i));
  const Ref conj = m.and_all(ins);
  EXPECT_TRUE(is_tautology(m, m.or_gate(conj, ref_not(conj))));
  EXPECT_FALSE(is_tautology(m, m.or_all(ins)));
}

TEST(AigSim, SemanticEquality) {
  Aig m;
  const Ref a = m.input(0);
  const Ref b = m.input(1);
  // De Morgan.
  const Ref lhs = ref_not(m.and_gate(a, b));
  const Ref rhs = m.or_gate(ref_not(a), ref_not(b));
  EXPECT_TRUE(semantically_equal(m, lhs, rhs));
  EXPECT_FALSE(semantically_equal(m, a, b));
}

TEST(AigSim, TruthTable) {
  Aig m;
  const Ref a = m.input(0);
  const Ref b = m.input(1);
  const std::vector<bool> tt = truth_table(m, m.and_gate(a, b), {0, 1});
  EXPECT_EQ(tt, (std::vector<bool>{false, false, false, true}));
}

TEST(AigCnf, EncodingEquisatisfiable) {
  // SAT check of an encoded cone agrees with simulation.
  util::Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    Aig m;
    std::vector<Ref> pool;
    for (int i = 0; i < 5; ++i) pool.push_back(m.input(i));
    for (int g = 0; g < 15; ++g) {
      const Ref a = pool[rng.next_below(pool.size())] ^
                    static_cast<Ref>(rng.flip());
      const Ref b = pool[rng.next_below(pool.size())] ^
                    static_cast<Ref>(rng.flip());
      pool.push_back(m.and_gate(a, b));
    }
    const Ref f = pool.back() ^ static_cast<Ref>(rng.flip());

    cnf::CnfFormula cnf_formula(5);
    const cnf::Lit root = encode_cone(m, f, cnf_formula);
    cnf_formula.add_unit(root);
    sat::Solver solver;
    const bool ok = solver.add_formula(cnf_formula);
    const sat::Result r = ok ? solver.solve() : sat::Result::kUnsat;

    // f satisfiable (not constant-false over its support)?
    const bool satisfiable = !is_tautology(m, ref_not(f));
    EXPECT_EQ(r == sat::Result::kSat, satisfiable);
    if (r == sat::Result::kSat) {
      std::unordered_map<std::int32_t, bool> in;
      for (int i = 0; i < 5; ++i) in[i] = solver.model().value(i);
      EXPECT_TRUE(m.evaluate(f, in));
    }
  }
}

TEST(AigCnf, ConstantCone) {
  Aig m;
  cnf::CnfFormula f(0);
  const cnf::Lit t = encode_cone(m, kTrueRef, f);
  f.add_unit(t);
  sat::Solver solver;
  solver.add_formula(f);
  EXPECT_EQ(solver.solve(), sat::Result::kSat);

  cnf::CnfFormula g(0);
  const cnf::Lit fl = encode_cone(m, kFalseRef, g);
  g.add_unit(fl);
  sat::Solver solver2;
  const bool ok = solver2.add_formula(g);
  EXPECT_TRUE(!ok || solver2.solve() == sat::Result::kUnsat);
}

// --- cone walkers and the incremental encoder -----------------------------

/// Random cone over `inputs` inputs with `gates` AND gates.
Ref random_cone(Aig& m, int inputs, int gates, util::Rng& rng) {
  std::vector<Ref> pool;
  for (int i = 0; i < inputs; ++i) pool.push_back(m.input(i));
  const auto draw = [&] {
    return pool[rng.next_below(pool.size())] ^ static_cast<Ref>(rng.flip());
  };
  for (int g = 0; g < gates; ++g) {
    const Ref a = draw();
    const Ref b = draw();
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        pool.push_back(m.and_gate(a, b));
        break;
      case 2:
        pool.push_back(m.xor_gate(a, b));
        break;
      default:
        pool.push_back(m.ite_gate(draw(), a, b));
        break;
    }
  }
  return pool.back() ^ static_cast<Ref>(rng.flip());
}

/// Reference walk with a node-keyed map (open = false, done = true): the
/// order cone_topo_order must reproduce exactly, since Manthan3's
/// supports, compositions and encodings follow it.
std::vector<std::uint32_t> reference_topo_order(const Aig& aig, Ref root) {
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> stack{ref_node(root)};
  std::unordered_map<std::uint32_t, bool> state;
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    const auto it = state.find(n);
    if (it != state.end() && it->second) {
      stack.pop_back();
      continue;
    }
    const Aig::Node& node = aig.node(n);
    if (it == state.end()) {
      state.emplace(n, false);
      if (node.input_id < 0 && n != 0) {
        stack.push_back(ref_node(node.fanin0));
        stack.push_back(ref_node(node.fanin1));
        continue;
      }
    }
    state[n] = true;
    order.push_back(n);
    stack.pop_back();
  }
  return order;
}

TEST(AigWalk, TopoOrderInterleavedAcrossManagers) {
  // The walker's per-thread marks are sized by the largest manager seen
  // and reused by the next walk, whatever its manager: walks over a small
  // and a large manager alternate, each checked against the reference.
  util::Rng rng(31);
  Aig small;
  Aig large;
  std::vector<Ref> small_roots;
  std::vector<Ref> large_roots;
  for (int i = 0; i < 8; ++i) {
    small_roots.push_back(random_cone(small, 3, 4, rng));
    large_roots.push_back(random_cone(large, 12, 300, rng));
  }
  small_roots.push_back(kTrueRef);
  large_roots.push_back(large.input(5));
  ASSERT_LT(small.num_nodes() * 10, large.num_nodes());
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < small_roots.size(); ++i) {
      EXPECT_EQ(cone_topo_order(small, small_roots[i]),
                reference_topo_order(small, small_roots[i]))
          << "small root " << i;
      EXPECT_EQ(cone_topo_order(large, large_roots[i]),
                reference_topo_order(large, large_roots[i]))
          << "large root " << i;
    }
  }
}

TEST(AigWalk, EncoderCacheGrowsWithTheManager) {
  // Encode, grow the manager well past its size at the first encode, and
  // encode a cone over old and new nodes: the dense node cache must
  // resize, keep its old entries, and encode only the new gates.
  util::Rng rng(37);
  constexpr int kInputs = 5;
  Aig m;
  sat::Solver solver;
  solver.reserve_vars(kInputs);
  IncrementalCnfEncoder encoder(
      m, [&]() { return solver.new_var(); },
      [&](const cnf::Clause& c) { solver.add_clause(c); });
  const Ref first = random_cone(m, kInputs, 10, rng);
  const cnf::Lit first_lit = encoder.encode(first);
  const std::size_t nodes_at_first = m.num_nodes();
  const std::uint64_t encoded_at_first = encoder.stats().gates_encoded;
  const Ref extra = random_cone(m, kInputs, 200, rng);
  const Ref second = m.xor_gate(first, extra);
  ASSERT_GT(m.num_nodes(), 4 * nodes_at_first);
  const cnf::Lit lit = encoder.encode(second);
  // Each gate variable belongs to its own AND node, and the second cone
  // contains the first. The first call's gates are cached, so the second
  // pays only for nodes of its cone that hold no variable yet: the nodes
  // outside the first cone and the first cone's absorbed interior nodes
  // that the new logic reaches.
  EXPECT_GT(encoded_at_first, 0u);
  EXPECT_LE(encoder.stats().gates_encoded, m.cone_size(second));
  EXPECT_GT(encoder.stats().nodes_reused, 0u);
  // The resize kept the first call's entries: its root still maps to the
  // same literal, and asking for it again defines nothing.
  const std::uint64_t encoded_after_second = encoder.stats().gates_encoded;
  EXPECT_EQ(encoder.encode(first), first_lit);
  EXPECT_EQ(encoder.stats().gates_encoded, encoded_after_second);
  for (std::uint32_t bits = 0; bits < (1u << kInputs); ++bits) {
    std::vector<cnf::Lit> assumptions;
    std::unordered_map<std::int32_t, bool> inputs;
    for (std::int32_t i = 0; i < kInputs; ++i) {
      const bool value = ((bits >> i) & 1u) != 0;
      inputs[i] = value;
      assumptions.push_back(value ? cnf::pos(i) : cnf::neg(i));
    }
    ASSERT_EQ(solver.solve(assumptions), sat::Result::kSat);
    EXPECT_EQ(solver.model().value(lit), m.evaluate(second, inputs))
        << "input pattern " << bits;
  }
}

TEST(AigWalk, ConeWalksFromFourThreads) {
  // Walkers keep per-thread scratch (marks, dense node maps). Four
  // threads walk a shared manager and compose and simulate in their own
  // managers at once; every result must match the single-threaded one.
  util::Rng rng(41);
  Aig shared;
  std::vector<Ref> roots;
  for (int i = 0; i < 6; ++i) {
    roots.push_back(random_cone(shared, 10, 120, rng));
  }
  std::vector<std::vector<std::uint32_t>> expected_orders;
  std::vector<std::vector<std::int32_t>> expected_supports;
  for (const Ref r : roots) {
    expected_orders.push_back(reference_topo_order(shared, r));
    expected_supports.push_back(shared.support(r));
  }
  cnf::SampleMatrix samples(10);
  for (int s = 0; s < 200; ++s) {
    cnf::Assignment a(10);
    for (cnf::Var v = 0; v < 10; ++v) a.set(v, rng.flip());
    samples.append(a);
  }
  std::vector<std::vector<std::uint64_t>> expected_sims;
  for (const Ref r : roots) {
    expected_sims.push_back(simulate_matrix(shared, r, samples));
  }

  constexpr int kThreads = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng local_rng(100 + static_cast<std::uint64_t>(t));
      Aig own;
      const Ref own_root = random_cone(own, 10, 60 + 40 * t, local_rng);
      for (int round = 0; round < 50; ++round) {
        const std::size_t i =
            static_cast<std::size_t>(round + t) % roots.size();
        if (cone_topo_order(shared, roots[i]) != expected_orders[i]) {
          ++failures[t];
        }
        if (shared.support(roots[i]) != expected_supports[i]) ++failures[t];
        if (simulate_matrix(shared, roots[i], samples) != expected_sims[i]) {
          ++failures[t];
        }
        // Compose in the thread's own manager: substituting inputs by
        // themselves must rebuild the same edge.
        std::unordered_map<std::int32_t, Ref> identity;
        for (std::int32_t id = 0; id < 10; ++id) identity[id] = own.input(id);
        if (own.compose(own_root, identity) != own_root) ++failures[t];
        if (cone_topo_order(own, own_root) !=
            reference_topo_order(own, own_root)) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace manthan::aig
