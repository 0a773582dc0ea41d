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

// --- exhaustive checks against per-assignment evaluation ------------------

/// Truth table of `root` over `ids` from Aig::evaluate, one assignment at
/// a time (row r sets ids[j] to bit j of r): the hash-map reference the
/// word-parallel kernel must agree with.
std::vector<bool> evaluated_table(const Aig& m, Ref root,
                                  const std::vector<std::int32_t>& ids) {
  std::vector<bool> table(std::size_t{1} << ids.size());
  std::unordered_map<std::int32_t, bool> inputs;
  for (std::size_t row = 0; row < table.size(); ++row) {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      inputs[ids[j]] = ((row >> j) & 1) != 0;
    }
    table[row] = m.evaluate(root, inputs);
  }
  return table;
}

/// Sorted union of the supports of `roots`.
std::vector<std::int32_t> union_support(const Aig& m,
                                        const std::vector<Ref>& roots) {
  std::vector<std::int32_t> ids;
  for (const Ref r : roots) {
    for (const std::int32_t id : m.support(r)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

/// Shannon expansion of `f` on its first support input: equal to `f`,
/// but structurally a different cone (unless `f` is constant).
Ref shannon(Aig& m, Ref f) {
  const std::vector<std::int32_t> ids = m.support(f);
  if (ids.empty()) return f;
  return m.ite_gate(m.input(ids[0]), m.cofactor(f, ids[0], true),
                    m.cofactor(f, ids[0], false));
}

/// Compares every exhaustive check on `roots` (cones of `m`) with
/// evaluated_table over their union support: is_tautology and
/// truth_table of each root, semantically_equal of each pair, and
/// clause_is_tautology of the whole list.
void expect_checks_match_evaluate(Aig& m, const std::vector<Ref>& roots,
                                  util::Rng& rng) {
  const std::vector<std::int32_t> ids = union_support(m, roots);
  std::vector<std::vector<bool>> tables;
  std::vector<bool> clause(std::size_t{1} << ids.size(), false);
  for (const Ref r : roots) {
    tables.push_back(evaluated_table(m, r, ids));
    for (std::size_t row = 0; row < clause.size(); ++row) {
      if (tables.back()[row]) clause[row] = true;
    }
  }
  const auto all_true = [](const std::vector<bool>& t) {
    return std::find(t.begin(), t.end(), false) == t.end();
  };
  for (std::size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(is_tautology(m, roots[i]), all_true(tables[i]))
        << "root " << i << ", support " << ids.size();
    // Any order, and ids outside the support, are allowed: row r of the
    // table over `order` is the row over `ids` whose bits follow r.
    std::vector<std::int32_t> order = ids;
    for (std::size_t j = order.size(); j > 1; --j) {
      std::swap(order[j - 1], order[rng.next_below(j)]);
    }
    order.insert(order.begin() + static_cast<std::ptrdiff_t>(
                                     rng.next_below(order.size() + 1)),
                 1000);
    std::vector<std::size_t> id_bit(order.size(), 0);
    for (std::size_t j = 0; j < order.size(); ++j) {
      const auto at = std::lower_bound(ids.begin(), ids.end(), order[j]);
      if (at != ids.end() && *at == order[j]) {
        id_bit[j] = std::size_t{1} << (at - ids.begin());
      }
    }
    std::vector<bool> expected(std::size_t{1} << order.size());
    for (std::size_t row = 0; row < expected.size(); ++row) {
      std::size_t id_row = 0;
      for (std::size_t j = 0; j < order.size(); ++j) {
        if (((row >> j) & 1) != 0) id_row |= id_bit[j];
      }
      expected[row] = tables[i][id_row];
    }
    EXPECT_EQ(truth_table(m, roots[i], order), expected)
        << "root " << i << ", support " << ids.size();
    for (std::size_t j = 0; j < roots.size(); ++j) {
      EXPECT_EQ(semantically_equal(m, roots[i], roots[j]),
                tables[i] == tables[j])
          << "roots " << i << ", " << j << ", support " << ids.size();
    }
  }
  EXPECT_EQ(clause_is_tautology(m, roots), all_true(clause))
      << "support " << ids.size();
}

TEST(AigSim, ExhaustiveChecksMatchEvaluate) {
  util::Rng rng(42);
  // Random cones over 0-16 inputs with gaps between input ids, unused
  // inputs, constants in the pool (folded away or left as roots),
  // complemented roots, and several roots over one shared pool. (The
  // NAND cones below reach 20 inputs.)
  for (const int inputs : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16}) {
    for (int round = 0; round < (inputs > 11 ? 1 : 4); ++round) {
      Aig m;
      std::vector<Ref> pool{kFalseRef, kTrueRef};
      for (int i = 0; i < inputs + 2; ++i) {
        const Ref in = m.input(3 * i + static_cast<int>(rng.next_below(3)));
        if (i < inputs) pool.push_back(in);
      }
      const auto draw = [&] {
        return pool[rng.next_below(pool.size())] ^
               static_cast<Ref>(rng.flip());
      };
      const int gates = inputs > 13 ? inputs + 4 : 3 * inputs + 4;
      for (int g = 0; g < gates; ++g) {
        const Ref a = draw();
        const Ref b = draw();
        switch (rng.next_below(3)) {
          case 0: pool.push_back(m.and_gate(a, b)); break;
          case 1: pool.push_back(m.xor_gate(a, b)); break;
          default: pool.push_back(m.or_gate(a, b)); break;
        }
      }
      // Chain every input into the last root so the support reaches
      // `inputs`.
      Ref all = inputs > 0 ? pool[2] : kFalseRef;
      for (int i = 3; i < inputs + 2; ++i) {
        const Ref in = pool[i] ^ static_cast<Ref>(rng.flip());
        all = rng.flip() ? m.or_gate(all, in) : m.xor_gate(all, in);
      }
      if (ref_regular(pool.back()) != ref_regular(all)) {
        all = m.xor_gate(all, pool.back());
      }
      all ^= static_cast<Ref>(rng.flip());
      ASSERT_EQ(m.support(all).size(), static_cast<std::size_t>(inputs));
      // The reference costs 2^inputs evaluate walks per root, so the
      // widest cones keep two roots.
      std::vector<Ref> roots{all, shannon(m, all)};
      if (inputs <= 13) {
        const Ref f = draw();
        roots.push_back(f);
        roots.push_back(shannon(m, f));
        roots.push_back(draw());
        // Tautologies only a full enumeration can confirm.
        roots.push_back(m.or_gate(all, ref_not(shannon(m, all))));
        roots.push_back(m.or_gate(f, draw()));
      }
      expect_checks_match_evaluate(m, roots, rng);
    }
  }

  // The cone the former 64-pattern simulate test drew: 30 AND gates over
  // 6 inputs, now checked over all 64 assignments.
  {
    util::Rng cone_rng(42);
    Aig m;
    std::vector<Ref> pool;
    for (int i = 0; i < 6; ++i) pool.push_back(m.input(i));
    for (int g = 0; g < 30; ++g) {
      const Ref a = pool[cone_rng.next_below(pool.size())] ^
                    static_cast<Ref>(cone_rng.flip());
      const Ref b = pool[cone_rng.next_below(pool.size())] ^
                    static_cast<Ref>(cone_rng.flip());
      pool.push_back(m.and_gate(a, b));
    }
    expect_checks_match_evaluate(m, {pool.back(), shannon(m, pool.back())},
                                 rng);
  }

  // A cone false only on the last pattern of the last block: NAND of all
  // inputs is false only where every input is 1. Below six inputs the
  // one word holds several copies of the patterns, all-ones included, so
  // each copy must read false there. Up to 13 inputs the reference
  // enumerates every assignment; at 20 it checks the all-ones one.
  for (const int inputs : {1, 3, 5, 6, 7, 12, 13, 20}) {
    Aig m;
    std::vector<Ref> ins;
    std::vector<std::int32_t> ids;
    std::vector<Ref> negated;
    for (int i = 0; i < inputs; ++i) {
      ids.push_back(2 * i + 1);
      ins.push_back(m.input(ids.back()));
      negated.push_back(ref_not(ins.back()));
    }
    const Ref nand = ref_not(m.and_all(ins));
    EXPECT_FALSE(is_tautology(m, nand)) << inputs << " inputs";
    EXPECT_FALSE(clause_is_tautology(m, negated)) << inputs << " inputs";
    EXPECT_FALSE(semantically_equal(m, nand, kTrueRef)) << inputs << " inputs";
    const std::vector<bool> table = truth_table(m, nand, ids);
    ASSERT_EQ(table.size(), std::size_t{1} << inputs);
    EXPECT_EQ(std::count(table.begin(), table.end(), false), 1);
    EXPECT_FALSE(table.back());
    std::unordered_map<std::int32_t, bool> all_ones;
    for (const std::int32_t id : ids) all_ones[id] = true;
    EXPECT_FALSE(m.evaluate(nand, all_ones));
    if (inputs <= 13) expect_checks_match_evaluate(m, {nand}, rng);
  }

  // Constant roots and the empty clause.
  Aig m;
  EXPECT_TRUE(is_tautology(m, kTrueRef));
  EXPECT_FALSE(is_tautology(m, kFalseRef));
  EXPECT_FALSE(clause_is_tautology(m, {}));
  EXPECT_TRUE(clause_is_tautology(m, {kFalseRef, kTrueRef}));
  EXPECT_EQ(truth_table(m, kTrueRef, {4, 9}),
            (std::vector<bool>{true, true, true, true}));
}

TEST(AigSim, ExhaustiveChecksFromFourThreads) {
  // The kernel flattens into per-thread scratch. Four threads run every
  // exhaustive check on a shared manager and on their own managers at
  // once; every answer must match the single-threaded one.
  util::Rng rng(43);
  Aig shared;
  std::vector<Ref> roots;
  std::vector<std::int32_t> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(i);
  for (int i = 0; i < 6; ++i) roots.push_back(random_cone(shared, 12, 60, rng));
  roots.push_back(shared.or_gate(roots[0], ref_not(shannon(shared, roots[0]))));
  std::vector<bool> expected_tautology;
  std::vector<std::vector<bool>> expected_tables;
  std::vector<bool> expected_equal;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    expected_tautology.push_back(is_tautology(shared, roots[i]));
    expected_tables.push_back(truth_table(shared, roots[i], ids));
    expected_equal.push_back(
        semantically_equal(shared, roots[i], roots[(i + 1) % roots.size()]));
  }
  EXPECT_TRUE(expected_tautology.back());
  const bool expected_clause = clause_is_tautology(shared, roots);

  constexpr int kThreads = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng local_rng(200 + static_cast<std::uint64_t>(t));
      Aig own;
      const Ref own_root = random_cone(own, 10, 40 + 20 * t, local_rng);
      const Ref own_copy = shannon(own, own_root);
      for (int round = 0; round < 30; ++round) {
        const std::size_t i =
            static_cast<std::size_t>(round + t) % roots.size();
        if (is_tautology(shared, roots[i]) != expected_tautology[i]) {
          ++failures[t];
        }
        if (truth_table(shared, roots[i], ids) != expected_tables[i]) {
          ++failures[t];
        }
        if (semantically_equal(shared, roots[i],
                               roots[(i + 1) % roots.size()]) !=
            expected_equal[i]) {
          ++failures[t];
        }
        if (clause_is_tautology(shared, roots) != expected_clause) {
          ++failures[t];
        }
        if (!semantically_equal(own, own_root, own_copy)) ++failures[t];
        if (!is_tautology(own, own.or_gate(own_root, ref_not(own_copy)))) {
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

TEST(AigWalk, UnionConeListsEachNodeOnceAfterItsFanins) {
  util::Rng rng(44);
  Aig m;
  std::vector<Ref> roots;
  for (int i = 0; i < 4; ++i) roots.push_back(random_cone(m, 8, 40, rng));
  roots.push_back(roots[1]);
  std::vector<std::uint32_t> order{7, 7, 7};  // cleared by the walk
  cone_topo_order(m, roots.data(), roots.size(), order);
  std::vector<std::uint32_t> expected;
  for (const Ref r : roots) {
    for (const std::uint32_t n : cone_topo_order(m, r)) expected.push_back(n);
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());
  std::vector<std::uint32_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, expected);
  std::unordered_map<std::uint32_t, std::size_t> position;
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (const std::uint32_t n : order) {
    const Aig::Node& node = m.node(n);
    if (n == 0 || node.input_id >= 0) continue;
    EXPECT_LT(position.at(ref_node(node.fanin0)), position.at(n));
    EXPECT_LT(position.at(ref_node(node.fanin1)), position.at(n));
  }
  // One root: the single-root overload's order exactly.
  cone_topo_order(m, &roots[2], 1, order);
  EXPECT_EQ(order, cone_topo_order(m, roots[2]));
}

}  // namespace
}  // namespace manthan::aig
