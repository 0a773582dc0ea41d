// Canonical spec fingerprints: invariance under the representation
// freedoms a cache key must absorb (clause order, literal order,
// role-preserving variable renaming), sensitivity to everything semantic
// (clauses, roles, dependency sets), and a collision smoke sweep over
// randomized families.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "test_util.hpp"
#include "dqbf/dqbf.hpp"
#include "dqbf/fingerprint.hpp"
#include "workloads/workloads.hpp"

namespace manthan::dqbf {
namespace {

using cnf::Clause;
using cnf::Lit;
using cnf::Var;

/// Rebuild `f` with every variable v renamed to perm[v] (roles and
/// dependency sets carried along) — the isomorphism the fingerprint must
/// be blind to.
DqbfFormula rename(const DqbfFormula& f, const std::vector<Var>& perm) {
  DqbfFormula out;
  out.matrix().ensure_vars(f.matrix().num_vars());
  for (const Var u : f.universals()) out.add_universal(perm[u]);
  for (const Existential& e : f.existentials()) {
    std::vector<Var> deps;
    deps.reserve(e.deps.size());
    for (const Var d : e.deps) deps.push_back(perm[d]);
    out.add_existential(perm[e.var], std::move(deps));
  }
  for (const Clause& clause : f.matrix().clauses()) {
    Clause mapped;
    mapped.reserve(clause.size());
    for (const Lit l : clause) mapped.emplace_back(perm[l.var()], l.negated());
    out.matrix().add_clause(mapped);
  }
  return out;
}

/// Rebuild `f` with clauses and in-clause literal order shuffled.
DqbfFormula shuffle_clauses(const DqbfFormula& f, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  DqbfFormula out;
  out.matrix().ensure_vars(f.matrix().num_vars());
  for (const Var u : f.universals()) out.add_universal(u);
  for (const Existential& e : f.existentials()) {
    out.add_existential(e.var, e.deps);
  }
  std::vector<Clause> clauses = f.matrix().clauses();
  std::shuffle(clauses.begin(), clauses.end(), rng);
  for (Clause& clause : clauses) {
    std::shuffle(clause.begin(), clause.end(), rng);
    out.matrix().add_clause(clause);
  }
  return out;
}

std::vector<Var> random_permutation(Var n, std::uint64_t seed) {
  std::vector<Var> perm(static_cast<std::size_t>(n));
  for (Var v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

TEST(Fingerprint, ToStringIs32HexDigits) {
  const Fingerprint fp = fingerprint(testutil::paper_example());
  const std::string hex = to_string(fp);
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(Fingerprint, ComparisonOperators) {
  const Fingerprint a{1, 2};
  const Fingerprint b{1, 3};
  const Fingerprint c{2, 0};
  EXPECT_EQ(a, a);
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_FALSE(c < a);
}

TEST(Fingerprint, ClauseAndLiteralPermutationInvariance) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const DqbfFormula f = testutil::small_planted(seed);
    const CanonicalForm base = canonicalize(f);
    const CanonicalForm shuffled = canonicalize(shuffle_clauses(f, 77 * seed));
    EXPECT_EQ(base.spec, shuffled.spec);
  }
}

TEST(Fingerprint, VariableRenamingInvariance) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const DqbfFormula f = testutil::small_planted(seed);
    const std::vector<Var> perm =
        random_permutation(f.matrix().num_vars(), 1000 + seed);
    const DqbfFormula renamed = rename(f, perm);
    const CanonicalForm base = canonicalize(f);
    const CanonicalForm iso = canonicalize(renamed);
    EXPECT_EQ(base.spec, iso.spec);
  }
}

TEST(Fingerprint, RenamingPlusShufflingInvariance) {
  const DqbfFormula f = testutil::paper_example();
  const std::vector<Var> perm =
      random_permutation(f.matrix().num_vars(), 9);
  const DqbfFormula twisted = shuffle_clauses(rename(f, perm), 31);
  EXPECT_EQ(fingerprint(f), fingerprint(twisted));
}

TEST(Fingerprint, SensitiveToClauseChanges) {
  const DqbfFormula f = testutil::paper_example();
  DqbfFormula extra = f;
  extra.matrix().add_clause({cnf::pos(0), cnf::neg(3)});
  EXPECT_NE(fingerprint(f), fingerprint(extra));
}

TEST(Fingerprint, SensitiveToDependencySets) {
  // Shrinking one Henkin set changes the spec though the matrix is
  // untouched.
  DqbfFormula f = testutil::paper_example();
  DqbfFormula narrowed;
  narrowed.matrix().ensure_vars(f.matrix().num_vars());
  for (const Var u : f.universals()) narrowed.add_universal(u);
  const auto& exs = f.existentials();
  for (std::size_t i = 0; i < exs.size(); ++i) {
    std::vector<Var> deps = exs[i].deps;
    if (i == 1) deps.pop_back();
    narrowed.add_existential(exs[i].var, std::move(deps));
  }
  for (const Clause& clause : f.matrix().clauses()) {
    narrowed.matrix().add_clause(clause);
  }
  const CanonicalForm base = canonicalize(f);
  const CanonicalForm changed = canonicalize(narrowed);
  EXPECT_NE(base.spec, changed.spec);
}

TEST(Fingerprint, DistinctAcrossGeneratorFamilies) {
  const std::vector<workloads::Instance> suite =
      workloads::standard_suite({1, 2023});
  std::set<Fingerprint> seen;
  for (const workloads::Instance& instance : suite) {
    seen.insert(fingerprint(instance.formula));
  }
  EXPECT_EQ(seen.size(), suite.size());
}

TEST(Fingerprint, CollisionSmokeSweep) {
  // Randomized planted / xor-chain families: every distinct generation
  // must hash distinctly (128 bits; a collision here means a structural
  // bug, not bad luck).
  std::set<Fingerprint> seen;
  std::size_t generated = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const std::size_t clauses : {18u, 24u}) {
      workloads::PlantedParams params{6, 3, 3, 4, clauses, seed};
      seen.insert(fingerprint(workloads::gen_planted(params)));
      ++generated;
    }
  }
  // Xor chains are deterministic in num_pairs (the seed only matters
  // with xor_with_shared), so sweep the structural parameter.
  for (std::size_t pairs = 1; pairs <= 5; ++pairs) {
    for (const bool shared : {false, true}) {
      workloads::XorChainParams xparams;
      xparams.num_pairs = pairs;
      xparams.xor_with_shared = shared;
      seen.insert(fingerprint(workloads::gen_xor_chain(xparams)));
      ++generated;
    }
  }
  EXPECT_EQ(seen.size(), generated);
}

}  // namespace
}  // namespace manthan::dqbf
