// CDCL solver: correctness against a brute-force reference, assumptions,
// UNSAT cores, incremental use, and randomized property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cnf/cnf.hpp"
#include "cnf/sample_matrix.hpp"
#include "sat/solver.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace manthan::sat {
namespace {

using cnf::Clause;
using cnf::CnfFormula;
using cnf::Lit;
using cnf::neg;
using cnf::pos;
using cnf::Var;

/// Brute-force satisfiability over up to 24 variables.
bool brute_force_sat(const CnfFormula& f) {
  const Var n = f.num_vars();
  for (std::uint64_t bits = 0; bits < (1ULL << n); ++bits) {
    cnf::Assignment a(static_cast<std::size_t>(n));
    for (Var v = 0; v < n; ++v) a.set(v, ((bits >> v) & 1) != 0);
    if (f.satisfied_by(a)) return true;
  }
  return false;
}

TEST(Solver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(Solver, SingleUnit) {
  Solver s;
  s.add_clause({pos(0)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.model().value(0));
}

TEST(Solver, ConflictingUnitsAreUnsat) {
  Solver s;
  s.add_clause({pos(0)});
  EXPECT_FALSE(s.add_clause({neg(0)}));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, PropagationChain) {
  // 0 -> 1 -> 2 -> 3, with unit 0.
  Solver s;
  s.add_clause({pos(0)});
  s.add_clause({neg(0), pos(1)});
  s.add_clause({neg(1), pos(2)});
  s.add_clause({neg(2), pos(3)});
  ASSERT_EQ(s.solve(), Result::kSat);
  for (Var v = 0; v < 4; ++v) EXPECT_TRUE(s.model().value(v));
}

TEST(Solver, PigeonholeTwoInOneIsUnsat) {
  // Two pigeons, one hole.
  Solver s;
  s.add_clause({pos(0)});  // pigeon 1 in hole
  s.add_clause({pos(1)});  // pigeon 2 in hole
  s.add_clause({neg(0), neg(1)});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, XorChainSat) {
  // (a xor b), (b xor c) as CNF; satisfiable.
  Solver s;
  s.add_clause({pos(0), pos(1)});
  s.add_clause({neg(0), neg(1)});
  s.add_clause({pos(1), pos(2)});
  s.add_clause({neg(1), neg(2)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_NE(s.model().value(0), s.model().value(1));
  EXPECT_NE(s.model().value(1), s.model().value(2));
}

TEST(Solver, ModelSatisfiesFormula) {
  CnfFormula f;
  f.add_clause({pos(0), neg(1), pos(2)});
  f.add_clause({neg(0), pos(1)});
  f.add_clause({neg(2), neg(0)});
  Solver s;
  s.add_formula(f);
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(f.satisfied_by(s.model()));
}

TEST(Solver, AssumptionsRestrictModels) {
  Solver s;
  s.add_clause({pos(0), pos(1)});
  ASSERT_EQ(s.solve({neg(0)}), Result::kSat);
  EXPECT_FALSE(s.model().value(0));
  EXPECT_TRUE(s.model().value(1));
}

TEST(Solver, ContradictoryAssumptionsGiveCore) {
  Solver s;
  s.ensure_vars(2);
  ASSERT_EQ(s.solve({pos(0), neg(0)}), Result::kUnsat);
  const std::vector<Lit>& core = s.core();
  EXPECT_EQ(core.size(), 2u);
  EXPECT_NE(std::find(core.begin(), core.end(), pos(0)), core.end());
  EXPECT_NE(std::find(core.begin(), core.end(), neg(0)), core.end());
}

TEST(Solver, CoreIsSubsetOfAssumptions) {
  Solver s;
  s.add_clause({neg(0), neg(1)});
  s.add_clause({neg(2), neg(3)});
  const std::vector<Lit> assumptions{pos(0), pos(1), pos(4)};
  ASSERT_EQ(s.solve(assumptions), Result::kUnsat);
  for (const Lit l : s.core()) {
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
              assumptions.end());
  }
  // pos(4) is irrelevant and must not appear.
  EXPECT_EQ(std::find(s.core().begin(), s.core().end(), pos(4)),
            s.core().end());
}

TEST(Solver, CoreIdentifiesRelevantAssumptions) {
  // unit clauses force a conflict only via assumptions 0 and 1.
  Solver s;
  s.add_clause({neg(0), pos(2)});
  s.add_clause({neg(1), neg(2)});
  ASSERT_EQ(s.solve({pos(0), pos(1), pos(3), pos(4)}), Result::kUnsat);
  std::vector<Lit> core = s.core();
  std::sort(core.begin(), core.end());
  EXPECT_EQ(core, (std::vector<Lit>{pos(0), pos(1)}));
}

TEST(Solver, UnsatWithoutAssumptionsHasEmptyCore) {
  Solver s;
  s.add_clause({pos(0)});
  s.add_clause({neg(0)});
  ASSERT_EQ(s.solve({pos(1)}), Result::kUnsat);
  EXPECT_TRUE(s.core().empty());
}

TEST(Solver, IncrementalSolvingAcrossClauses) {
  Solver s;
  s.add_clause({pos(0), pos(1)});
  ASSERT_EQ(s.solve(), Result::kSat);
  s.add_clause({neg(0)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.model().value(1));
  s.add_clause({neg(1)});
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(Solver, RepeatedSolveCallsAreStable) {
  Solver s;
  s.add_clause({pos(0), pos(1)});
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(s.solve(), Result::kSat);
    ASSERT_EQ(s.solve({neg(0), neg(1)}), Result::kUnsat);
  }
}

TEST(Solver, TautologicalClauseIgnored) {
  Solver s;
  s.add_clause({pos(0), neg(0)});
  s.add_clause({pos(1)});
  ASSERT_EQ(s.solve({neg(0)}), Result::kSat);
  EXPECT_FALSE(s.model().value(0));
}

TEST(Solver, DuplicateLiteralsDeduplicated) {
  Solver s;
  s.add_clause({pos(0), pos(0), pos(0)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.model().value(0));
}

TEST(Solver, FixedValueAfterRootPropagation) {
  Solver s;
  s.add_clause({pos(0)});
  s.add_clause({neg(0), pos(1)});
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(s.fixed_value(pos(0)), cnf::LBool::kTrue);
  EXPECT_EQ(s.fixed_value(neg(1)), cnf::LBool::kFalse);
}

// ---------------------------------------------------------------------------
// Property sweep: agreement with brute force on random small formulas.
// ---------------------------------------------------------------------------

struct RandomCnfParams {
  Var num_vars;
  std::size_t num_clauses;
  std::size_t width;
};

class SolverRandomAgreement
    : public ::testing::TestWithParam<RandomCnfParams> {};

CnfFormula random_cnf(const RandomCnfParams& p, util::Rng& rng) {
  CnfFormula f(p.num_vars);
  for (std::size_t c = 0; c < p.num_clauses; ++c) {
    Clause clause;
    for (std::size_t k = 0; k < p.width; ++k) {
      const Var v = static_cast<Var>(rng.next_below(
          static_cast<std::uint64_t>(p.num_vars)));
      clause.push_back(cnf::Lit(v, rng.flip()));
    }
    f.add_clause(clause);
  }
  return f;
}

TEST_P(SolverRandomAgreement, MatchesBruteForce) {
  const RandomCnfParams p = GetParam();
  util::Rng rng(0xc0ffee + p.num_vars * 131 + p.num_clauses);
  for (int round = 0; round < 40; ++round) {
    const CnfFormula f = random_cnf(p, rng);
    Solver s;
    const bool added = s.add_formula(f);
    const bool expected = brute_force_sat(f);
    if (!added) {
      EXPECT_FALSE(expected);
      continue;
    }
    const Result r = s.solve();
    EXPECT_EQ(r == Result::kSat, expected);
    if (r == Result::kSat) {
      EXPECT_TRUE(f.satisfied_by(s.model()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCnfs, SolverRandomAgreement,
    ::testing::Values(RandomCnfParams{4, 8, 2}, RandomCnfParams{5, 15, 2},
                      RandomCnfParams{6, 20, 3}, RandomCnfParams{8, 34, 3},
                      RandomCnfParams{10, 42, 3},
                      RandomCnfParams{12, 50, 4}));

// Core validity property: the core, taken as units, must be UNSAT.
TEST(SolverProperty, CoresAreGenuinelyUnsat) {
  util::Rng rng(0xdead);
  int unsat_seen = 0;
  for (int round = 0; round < 60; ++round) {
    const CnfFormula f = random_cnf({8, 30, 3}, rng);
    Solver s;
    if (!s.add_formula(f)) continue;
    // Random assumptions over a few variables.
    std::vector<Lit> assumptions;
    for (Var v = 0; v < 4; ++v) {
      assumptions.push_back(cnf::Lit(v, rng.flip()));
    }
    if (s.solve(assumptions) != Result::kUnsat) continue;
    ++unsat_seen;
    // Re-solve a fresh solver with the core as unit clauses: must be UNSAT.
    Solver fresh;
    fresh.add_formula(f);
    bool consistent = true;
    for (const Lit l : s.core()) consistent &= fresh.add_clause({l});
    EXPECT_TRUE(!consistent || fresh.solve() == Result::kUnsat);
  }
  EXPECT_GT(unsat_seen, 0);
}

TEST(SolverStats, CountsActivity) {
  Solver s;
  // A formula that forces some search.
  util::Rng rng(99);
  const CnfFormula f = random_cnf({12, 50, 3}, rng);
  s.add_formula(f);
  s.solve();
  EXPECT_GT(s.stats().propagations, 0u);
}

TEST(SolverStats, MaxLearntsRescalesWithIncrementalClauses) {
  // Regression: the learnt budget was computed once from the problem size
  // of the *first* solve and never again, so MaxSAT-style incremental
  // clause additions ran with a budget sized for an almost-empty solver.
  Solver s;
  s.add_clause({pos(0), pos(1)});
  ASSERT_EQ(s.solve(), Result::kSat);
  const double initial = s.stats().max_learnts;
  EXPECT_GE(initial, 1000.0);
  // Grow the problem well past 3 * initial clauses between solves.
  const int extra = 6000;
  for (int i = 0; i < extra; ++i) {
    const Var base = static_cast<Var>(2 + 3 * i);
    s.add_clause({pos(base), pos(base + 1), pos(base + 2)});
  }
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_GE(s.stats().max_learnts, static_cast<double>(extra) / 3.0);
  EXPECT_GT(s.stats().max_learnts, initial);
}

TEST(SolverStats, ArenaReclaimsRemovedLearnts) {
  // A hard unsatisfiable instance drives thousands of conflicts through
  // clause learning and database reductions; removed learnt records must
  // be garbage collected, keeping the wasted share of the arena bounded
  // by the ~20% GC trigger (plus the single reduction that preceded it).
  util::Rng rng(0xfeed);
  Solver s;
  const CnfFormula f = random_cnf({140, 640, 3}, rng);
  if (!s.add_formula(f)) GTEST_SKIP() << "root-level conflict";
  const Result r = s.solve();
  EXPECT_EQ(r, Result::kUnsat);
  const SolverStats& st = s.stats();
  ASSERT_GT(st.db_reductions, 0u) << "instance too easy to exercise reduce_db";
  EXPECT_GT(st.gc_runs, 0u);
  // Post-reduction invariant: removals end with a GC check, so waste can
  // never exceed the ~20% trigger share of the arena.
  EXPECT_LE(st.wasted_bytes * 5, st.arena_bytes)
      << "wasted=" << st.wasted_bytes << " arena=" << st.arena_bytes;
  // LBD tier census was recorded by the last reduction.
  EXPECT_GT(st.tier_core + st.tier_mid + st.tier_local, 0u);
}

TEST(SolverCancel, TokenComposedIntoDeadlineStopsSolve) {
  // The CancelToken rides on the same decisions+propagations poll as the
  // wall-clock deadline: a cancelled token must stop the solve with
  // kUnknown after at most one poll interval of extra work, and leave
  // the solver reusable.
  util::Rng rng(7);
  Solver s;
  const CnfFormula f = random_cnf({60, 250, 3}, rng);
  if (!s.add_formula(f)) GTEST_SKIP() << "root-level conflict";
  util::CancelToken token;
  token.cancel();
  const util::Deadline deadline(0.0, &token);
  const std::uint64_t before = s.stats().decisions + s.stats().propagations;
  EXPECT_EQ(s.solve({}, deadline), Result::kUnknown);
  EXPECT_LT(s.stats().decisions + s.stats().propagations - before, 10000u);
  token.reset();
  const util::Deadline fresh(0.0, &token);
  EXPECT_NE(s.solve({}, fresh), Result::kUnknown);
}

TEST(SolverCancel, TokenCancelledMidEnumerationStopsSession) {
  // Cancel the token from inside the sink, mid-session: the enumeration
  // must stop with kUnknown at the next poll instead of descending
  // forever, and the models already harvested stay delivered.
  util::Rng rng(11);
  Solver s;
  const CnfFormula f = random_cnf({30, 60, 3}, rng);
  if (!s.add_formula(f)) GTEST_SKIP() << "root-level conflict";
  util::CancelToken token;
  const util::Deadline deadline(0.0, &token);
  std::size_t models = 0;
  const Result r = s.enumerate(
      [&](const cnf::Assignment& model) {
        EXPECT_TRUE(f.satisfied_by(model));
        if (++models == 3) token.cancel();
        return true;  // never stop voluntarily — only the token may
      },
      {}, &deadline);
  EXPECT_EQ(r, Result::kUnknown);
  // The poll rides the decisions+propagations counter, so a few hundred
  // cheap models can land between the cancel and the next poll — but
  // the session must stop within one poll interval, not run forever.
  EXPECT_GE(models, 3u);
  EXPECT_LT(models, 100000u);
  // The solver must come back reusable after the interrupted session.
  token.reset();
  EXPECT_NE(s.solve(), Result::kUnknown);
}

// ---------------------------------------------------------------------------
// Distinct enumeration: every model exactly once, then UNSAT.
// ---------------------------------------------------------------------------

/// Fingerprints of every model of `f` (brute force, up to 14 variables).
std::set<std::uint64_t> brute_force_models(const CnfFormula& f) {
  std::set<std::uint64_t> models;
  const Var n = f.num_vars();
  for (std::uint64_t bits = 0; bits < (1ULL << n); ++bits) {
    cnf::Assignment a(static_cast<std::size_t>(n));
    for (Var v = 0; v < n; ++v) a.set(v, ((bits >> v) & 1) != 0);
    if (f.satisfied_by(a)) models.insert(cnf::fingerprint(a));
  }
  return models;
}

TEST(SolverDistinct, ReportsEveryModelOnceThenUnsat) {
  // 60 seeded random 3-CNFs of 6–14 variables at 2–5 clauses per
  // variable. Each one is enumerated by two distinct sessions on one
  // solver: the first sink stops halfway (kSat), the second finishes
  // (kUnsat). Together they must report the brute-force model set, each
  // model once, and leave the solver UNSAT.
  util::Rng rng(0xd157);
  std::size_t total_models = 0;
  for (int round = 0; round < 60; ++round) {
    const auto n = static_cast<Var>(6 + round % 9);
    const CnfFormula f = random_cnf(
        {n, static_cast<std::size_t>(n) * (2 + round % 4), 3}, rng);
    const std::set<std::uint64_t> expected = brute_force_models(f);
    total_models += expected.size();
    SolverOptions options;
    options.random_polarity = true;
    options.seed = static_cast<std::uint64_t>(round);
    Solver s(options);
    if (!s.add_formula(f)) {
      EXPECT_TRUE(expected.empty());
      continue;
    }
    std::set<std::uint64_t> reported;
    const std::size_t stop_after = expected.size() / 2;
    const auto sink = [&](const cnf::Assignment& model) {
      EXPECT_TRUE(f.satisfied_by(model));
      EXPECT_TRUE(reported.insert(cnf::fingerprint(model)).second)
          << "model reported twice, round " << round;
      return reported.size() != stop_after;
    };
    if (stop_after > 0) {
      EXPECT_EQ(s.enumerate(sink, {}, nullptr, EnumerateMode::kDistinct),
                Result::kSat)
          << "round " << round;
      EXPECT_EQ(reported.size(), stop_after);
    }
    EXPECT_EQ(s.enumerate(sink, {}, nullptr, EnumerateMode::kDistinct),
              Result::kUnsat)
        << "round " << round;
    EXPECT_EQ(reported, expected) << "round " << round;
    EXPECT_EQ(s.solve(), Result::kUnsat) << "round " << round;
  }
  EXPECT_GT(total_models, 1000u);
}

TEST(SolverDistinct, TakesOverFromRandomSessionWithoutRepeats) {
  // The sampler's switch: a random session that revisits models, then a
  // distinct session on the same solver that reports each model once.
  util::Rng rng(0x5eed);
  const CnfFormula f = random_cnf({12, 30, 3}, rng);
  const std::set<std::uint64_t> expected = brute_force_models(f);
  ASSERT_GT(expected.size(), 20u);
  SolverOptions options;
  options.random_polarity = true;
  Solver s(options);
  ASSERT_TRUE(s.add_formula(f));
  std::size_t random_models = 0;
  EXPECT_EQ(s.enumerate([&](const cnf::Assignment&) {
              return ++random_models < 2 * expected.size();
            }),
            Result::kSat);
  std::set<std::uint64_t> reported;
  EXPECT_EQ(s.enumerate(
                [&](const cnf::Assignment& model) {
                  EXPECT_TRUE(
                      reported.insert(cnf::fingerprint(model)).second);
                  return true;
                },
                {}, nullptr, EnumerateMode::kDistinct),
            Result::kUnsat);
  EXPECT_EQ(reported, expected);
}

TEST(SolverDistinct, TokenCancelledMidSessionGivesUnknown) {
  // 30 variables: far more models than one poll interval can report, so
  // only the token can end the session.
  util::Rng rng(11);
  Solver s;
  const CnfFormula f = random_cnf({30, 60, 3}, rng);
  if (!s.add_formula(f)) GTEST_SKIP() << "root-level conflict";
  util::CancelToken token;
  const util::Deadline deadline(0.0, &token);
  std::set<std::uint64_t> reported;
  const Result r = s.enumerate(
      [&](const cnf::Assignment& model) {
        EXPECT_TRUE(f.satisfied_by(model));
        EXPECT_TRUE(reported.insert(cnf::fingerprint(model)).second);
        if (reported.size() == 3) token.cancel();
        return true;
      },
      {}, &deadline, EnumerateMode::kDistinct);
  EXPECT_EQ(r, Result::kUnknown);
  EXPECT_GE(reported.size(), 3u);
  EXPECT_LT(reported.size(), 100000u);
  // Reusable, and the models already reported stay blocked.
  token.reset();
  ASSERT_EQ(s.solve(), Result::kSat);
  EXPECT_EQ(reported.count(cnf::fingerprint(s.model())), 0u);
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(SolverDistinct, RejectsAssumptions) {
  Solver s;
  s.add_clause({pos(0), pos(1)});
  EXPECT_DEATH(s.enumerate([](const cnf::Assignment&) { return true; },
                           {pos(0)}, nullptr, EnumerateMode::kDistinct),
               "");
}
#endif

TEST(Solver, ReserveVarsAllocatesContiguousBlock) {
  Solver s;
  EXPECT_EQ(s.reserve_vars(10), 0);
  EXPECT_EQ(s.num_vars(), 10);
  EXPECT_EQ(s.reserve_vars(5), 10);
  EXPECT_EQ(s.new_var(), 15);
}

TEST(Solver, ActivationClauseBindsOnlyWhileAssumed) {
  Solver s;
  const Var x = s.new_var();
  const Lit act = pos(s.new_var());
  // (x) guarded by act: free without the assumption, binding with it.
  EXPECT_TRUE(s.add_clause_activated({pos(x)}, act));
  EXPECT_EQ(s.solve({neg(x)}), Result::kSat);
  EXPECT_EQ(s.solve({act, neg(x)}), Result::kUnsat);
  EXPECT_EQ(s.solve({act}), Result::kSat);
  EXPECT_TRUE(s.model().value(pos(x)));
}

TEST(Solver, RetireFreesTheConstraintAndCountsStats) {
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  const Lit act = pos(s.new_var());
  EXPECT_TRUE(s.add_clause_activated({pos(x), pos(y)}, act));
  EXPECT_TRUE(s.add_clause_activated({pos(x), neg(y)}, act));
  EXPECT_EQ(s.solve({act, neg(x)}), Result::kUnsat);
  // At least the two guarded problem clauses; learnt clauses that
  // recorded the guard during the UNSAT solve are reclaimed too.
  const std::size_t reclaimed = s.retire(act);
  EXPECT_GE(reclaimed, 2u);
  EXPECT_EQ(s.stats().retired_clauses, reclaimed);
  EXPECT_EQ(s.stats().retired_activations, 1u);
  // Without the guard the old constraint is gone for good.
  EXPECT_EQ(s.solve({neg(x), neg(y)}), Result::kSat);
  EXPECT_GE(s.stats().vars_allocated, 3u);
}

TEST(Solver, RetireReclaimsArenaViaGc) {
  // Enough guarded ternaries to push waste past the ~20% GC trigger once
  // retired; afterwards the solver still answers correctly.
  Solver s;
  const Var base = s.reserve_vars(40);
  s.add_clause({pos(base), pos(base + 1)});  // permanent clause survives
  const Lit act = pos(s.new_var());
  for (Var v = 0; v + 2 < 40; ++v) {
    EXPECT_TRUE(s.add_clause_activated(
        {pos(base + v), pos(base + v + 1), pos(base + v + 2)}, act));
  }
  ASSERT_EQ(s.solve({act}), Result::kSat);
  const std::uint64_t arena_before = s.stats().arena_bytes;
  const std::size_t reclaimed = s.retire(act);
  EXPECT_GE(reclaimed, 30u);
  EXPECT_GE(s.stats().gc_runs, 1u);
  EXPECT_LT(s.stats().arena_bytes, arena_before);
  EXPECT_EQ(s.stats().wasted_bytes, 0u);
  EXPECT_EQ(s.solve({}), Result::kSat);
  EXPECT_EQ(s.solve({neg(base), neg(base + 1)}), Result::kUnsat);
}

TEST(Solver, RetiredGuardsDoNotPoisonLaterSolves) {
  // Interleave guarded sessions with unguarded solving: each retired
  // session must leave no semantic trace (MaxSAT round usage pattern).
  util::Rng rng(11);
  Solver s;
  const CnfFormula f = random_cnf({30, 90, 3}, rng);
  if (!s.add_formula(f)) GTEST_SKIP() << "root-level conflict";
  Solver reference;
  ASSERT_TRUE(reference.add_formula(f));
  for (int session = 0; session < 10; ++session) {
    const Lit act = pos(s.new_var());
    for (int c = 0; c < 20; ++c) {
      Clause clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(Lit(static_cast<Var>(rng.next_below(30)),
                             rng.flip()));
      }
      s.add_clause_activated(clause, act);
    }
    s.solve({act});
    s.retire(act);
    // Same random assumption triple must get the same verdict as an
    // untouched reference solver.
    std::vector<Lit> assumptions;
    for (int k = 0; k < 3; ++k) {
      assumptions.push_back(Lit(static_cast<Var>(rng.next_below(30)),
                                rng.flip()));
    }
    EXPECT_EQ(s.solve(assumptions), reference.solve(assumptions))
        << "session " << session;
  }
}

TEST(Solver, ReseedChangesSearchNotVerdict) {
  util::Rng rng(3);
  const CnfFormula f = random_cnf({40, 160, 3}, rng);
  Solver s;
  if (!s.add_formula(f)) GTEST_SKIP() << "root-level conflict";
  const Result first = s.solve();
  s.reseed(0xfeedULL);
  s.options().random_polarity = true;
  EXPECT_EQ(s.solve(), first);
}

}  // namespace
}  // namespace manthan::sat
