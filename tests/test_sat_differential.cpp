// Differential testing of the CDCL solver against brute-force
// enumeration on hundreds of random small CNFs: SAT/UNSAT agreement,
// model validity, core soundness and minimality-side conditions under
// assumptions, and incremental clause addition. This is the safety net
// behind the flat clause-arena storage rewrite; run it under
// MANTHAN_SANITIZE=ON to sweep the arena/GC paths for memory errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "cnf/cnf.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace manthan::sat {
namespace {

using cnf::Assignment;
using cnf::Clause;
using cnf::CnfFormula;
using cnf::Lit;
using cnf::Var;

/// Brute-force satisfiability (up to ~20 variables); returns a model.
std::optional<Assignment> brute_force_model(const CnfFormula& f) {
  const Var n = f.num_vars();
  for (std::uint64_t bits = 0; bits < (1ULL << n); ++bits) {
    Assignment a(static_cast<std::size_t>(n));
    for (Var v = 0; v < n; ++v) a.set(v, ((bits >> v) & 1) != 0);
    if (f.satisfied_by(a)) return a;
  }
  return std::nullopt;
}

CnfFormula random_cnf(Var num_vars, std::size_t num_clauses,
                      std::size_t max_width, util::Rng& rng) {
  CnfFormula f(num_vars);
  for (std::size_t c = 0; c < num_clauses; ++c) {
    Clause clause;
    const std::size_t width = 1 + rng.next_below(max_width);
    for (std::size_t k = 0; k < width; ++k) {
      const Var v = static_cast<Var>(
          rng.next_below(static_cast<std::uint64_t>(num_vars)));
      clause.push_back(Lit(v, rng.flip()));
    }
    f.add_clause(clause);
  }
  return f;
}

/// ~200 random CNFs of mixed width and density, solved plain.
TEST(SolverDifferential, AgreesWithBruteForceOnRandomCnfs) {
  util::Rng rng(0x5a7e11fe);
  int checked = 0;
  for (int round = 0; round < 200; ++round) {
    const Var num_vars = static_cast<Var>(3 + rng.next_below(10));  // 3..12
    const std::size_t num_clauses =
        2 + rng.next_below(static_cast<std::uint64_t>(6 * num_vars));
    const CnfFormula f = random_cnf(num_vars, num_clauses, 4, rng);
    const std::optional<Assignment> reference = brute_force_model(f);
    Solver s;
    ++checked;
    if (!s.add_formula(f)) {
      // Root-level conflict during loading is itself an UNSAT verdict.
      EXPECT_FALSE(reference.has_value()) << f.to_string();
      continue;
    }
    const Result r = s.solve();
    ASSERT_NE(r, Result::kUnknown);
    EXPECT_EQ(r == Result::kSat, reference.has_value()) << f.to_string();
    if (r == Result::kSat) {
      EXPECT_TRUE(f.satisfied_by(s.model())) << f.to_string();
    }
  }
  EXPECT_EQ(checked, 200);
}

/// Same formulas solved under random assumptions: verdicts must match the
/// brute force of (formula + assumption units), and UNSAT cores must be a
/// subset of the assumptions that is genuinely unsatisfiable.
TEST(SolverDifferential, AssumptionVerdictsAndCoresAreSound) {
  util::Rng rng(0xc0de5eed);
  int unsat_cores_checked = 0;
  for (int round = 0; round < 200; ++round) {
    const Var num_vars = static_cast<Var>(4 + rng.next_below(8));  // 4..11
    const std::size_t num_clauses =
        4 + rng.next_below(static_cast<std::uint64_t>(5 * num_vars));
    const CnfFormula f = random_cnf(num_vars, num_clauses, 3, rng);
    std::vector<Lit> assumptions;
    const std::size_t num_assumptions = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < num_assumptions; ++i) {
      assumptions.push_back(
          Lit(static_cast<Var>(rng.next_below(
                  static_cast<std::uint64_t>(num_vars))),
              rng.flip()));
    }
    CnfFormula with_units = f;
    for (const Lit a : assumptions) with_units.add_clause({a});
    const bool expected = brute_force_model(with_units).has_value();

    Solver s;
    if (!s.add_formula(f)) {
      EXPECT_FALSE(expected);
      continue;
    }
    const Result r = s.solve(assumptions);
    ASSERT_NE(r, Result::kUnknown);
    EXPECT_EQ(r == Result::kSat, expected) << with_units.to_string();
    if (r == Result::kSat) {
      const Assignment& m = s.model();
      EXPECT_TRUE(f.satisfied_by(m));
      for (const Lit a : assumptions) EXPECT_TRUE(m.value(a));
    } else {
      // Core \subseteq assumptions ...
      for (const Lit l : s.core()) {
        EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                  assumptions.end());
      }
      // ... and formula + core alone is UNSAT.
      CnfFormula with_core = f;
      for (const Lit l : s.core()) with_core.add_clause({l});
      EXPECT_FALSE(brute_force_model(with_core).has_value())
          << with_core.to_string();
      ++unsat_cores_checked;
    }
  }
  EXPECT_GT(unsat_cores_checked, 10);
}

/// Incremental use: clauses arrive in batches with solves in between;
/// the verdict after each batch must match brute force on the prefix.
TEST(SolverDifferential, IncrementalBatchesMatchBruteForce) {
  util::Rng rng(0xbadc0de1);
  for (int round = 0; round < 60; ++round) {
    const Var num_vars = static_cast<Var>(5 + rng.next_below(6));  // 5..10
    const CnfFormula all =
        random_cnf(num_vars, 10 + rng.next_below(30), 3, rng);
    Solver s;
    s.ensure_vars(num_vars);
    CnfFormula prefix(num_vars);
    bool solver_ok = true;
    for (std::size_t i = 0; i < all.num_clauses(); ++i) {
      prefix.add_clause(all.clause(i));
      if (solver_ok) solver_ok = s.add_clause(all.clause(i));
      if (i % 7 != 6) continue;  // solve every 7th clause
      const bool expected = brute_force_model(prefix).has_value();
      if (!solver_ok) {
        EXPECT_FALSE(expected);
        break;
      }
      const Result r = s.solve();
      EXPECT_EQ(r == Result::kSat, expected) << prefix.to_string();
      if (r == Result::kSat) {
        EXPECT_TRUE(prefix.satisfied_by(s.model()));
      }
    }
  }
}

/// Dense instances with long clauses, re-solved after the verdict: the
/// solver must stay internally consistent across repeated heavy solves.
TEST(SolverDifferential, DenseInstancesStayConsistent) {
  util::Rng rng(0x9e3779b9);
  int unsat = 0;
  for (int round = 0; round < 8; ++round) {
    const CnfFormula f = random_cnf(18, 130, 5, rng);
    const bool expected = brute_force_model(f).has_value();
    Solver s;
    if (!s.add_formula(f)) {
      EXPECT_FALSE(expected);
      continue;
    }
    const Result r = s.solve();
    EXPECT_EQ(r == Result::kSat, expected);
    if (r == Result::kSat) {
      EXPECT_TRUE(f.satisfied_by(s.model()));
    } else {
      ++unsat;
    }
    // The solver must stay usable after heavy learnt churn.
    EXPECT_EQ(s.solve() == Result::kSat, expected);
  }
  (void)unsat;
}

/// Incremental sessions with activation-literal retirement interleaved
/// between solves: after every step the verdict under the live guards
/// must match brute force over the permanent clauses plus the bodies of
/// the still-active guarded groups.
TEST(SolverDifferential, RetireInterleavedAcrossSessions) {
  util::Rng rng(0xfeedbeef);
  const auto random_clause = [&rng](Var num_vars) {
    Clause c;
    const std::size_t width = 1 + rng.next_below(3);
    for (std::size_t k = 0; k < width; ++k) {
      c.push_back(Lit(static_cast<Var>(rng.next_below(
                          static_cast<std::uint64_t>(num_vars))),
                      rng.flip()));
    }
    return c;
  };
  for (int round = 0; round < 40; ++round) {
    const Var num_vars = static_cast<Var>(6 + rng.next_below(5));  // 6..10
    Solver s;
    s.ensure_vars(num_vars);
    CnfFormula permanent(num_vars);
    std::vector<Lit> acts;
    std::vector<std::vector<Clause>> guarded;
    std::vector<bool> active;
    bool ok = true;
    for (int step = 0; step < 12 && ok; ++step) {
      const std::size_t perm = 1 + rng.next_below(3);
      for (std::size_t i = 0; i < perm && ok; ++i) {
        const Clause c = random_clause(num_vars);
        permanent.add_clause(c);
        ok = s.add_clause(c);
      }
      if (ok) {
        const Lit act = cnf::pos(s.new_var());
        std::vector<Clause> group;
        const std::size_t width = 1 + rng.next_below(2);
        for (std::size_t i = 0; i < width; ++i) {
          const Clause c = random_clause(num_vars);
          s.add_clause_activated(c, act);
          group.push_back(c);
        }
        acts.push_back(act);
        guarded.push_back(std::move(group));
        active.push_back(true);
      }
      if (ok && rng.flip() && !acts.empty()) {
        const std::size_t i = rng.next_below(acts.size());
        if (active[i]) {
          s.retire({acts[i]});
          active[i] = false;
        }
      }
      // Reference: permanent clauses plus every active group's bodies.
      CnfFormula reference = permanent;
      for (std::size_t i = 0; i < guarded.size(); ++i) {
        if (!active[i]) continue;
        for (const Clause& c : guarded[i]) reference.add_clause(c);
      }
      const bool expected = brute_force_model(reference).has_value();
      if (!ok) {
        // Loading refuted the permanent part.
        EXPECT_FALSE(brute_force_model(permanent).has_value());
        break;
      }
      std::vector<Lit> assumptions;
      for (std::size_t i = 0; i < acts.size(); ++i) {
        if (active[i]) assumptions.push_back(acts[i]);
      }
      const Result r = s.solve(assumptions);
      ASSERT_NE(r, Result::kUnknown);
      EXPECT_EQ(r == Result::kSat, expected) << reference.to_string();
      if (r == Result::kSat) {
        EXPECT_TRUE(reference.satisfied_by(s.model()))
            << reference.to_string();
      } else {
        for (const Lit l : s.core()) {
          EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
                    assumptions.end());
        }
      }
    }
  }
}

}  // namespace
}  // namespace manthan::sat
