// Shared helpers for the test suites: canonical DQBF fixtures, tiny
// DQDIMACS text fixtures, planted-formula builders, standard-suite
// instances and their run seeds, a brute-force ground-truth check, a
// certificate-check matcher and a run-counter comparison. Everything is
// inline and header-only; a suite only pays the link dependencies of the
// helpers it actually calls.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/manthan3.hpp"
#include "dqbf/certificate.hpp"
#include "dqbf/dqbf.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace manthan::testutil {

/// The running example from the paper:
/// ∀x1,x2,x3 ∃{x1}y1 ∃{x1,x2}y2 ∃{x2,x3}y3.
/// (x1 ∨ y1) ∧ (y2 ↔ (y1 ∨ ¬x2)) ∧ (y3 ↔ (x2 ∨ x3))
inline dqbf::DqbfFormula paper_example() {
  dqbf::DqbfFormula f;
  for (cnf::Var x = 0; x < 3; ++x) f.add_universal(x);
  f.add_existential(3, {0});
  f.add_existential(4, {0, 1});
  f.add_existential(5, {1, 2});
  f.matrix().add_clause({cnf::pos(0), cnf::pos(3)});
  f.matrix().add_clause({cnf::neg(4), cnf::pos(3), cnf::neg(1)});
  f.matrix().add_clause({cnf::pos(4), cnf::neg(3)});
  f.matrix().add_clause({cnf::pos(4), cnf::pos(1)});
  f.matrix().add_clause({cnf::neg(5), cnf::pos(1), cnf::pos(2)});
  f.matrix().add_clause({cnf::pos(5), cnf::neg(1)});
  f.matrix().add_clause({cnf::pos(5), cnf::neg(2)});
  return f;
}

/// ∀x1,x2 ∃{x1}y. (y ↔ x1) — the smallest realizable spec with a proper
/// dependency restriction (y may not see x2).
inline dqbf::DqbfFormula identity_spec() {
  dqbf::DqbfFormula f;
  f.add_universal(0);
  f.add_universal(1);
  f.add_existential(2, {0});
  f.matrix().add_clause({cnf::neg(2), cnf::pos(0)});
  f.matrix().add_clause({cnf::pos(2), cnf::neg(0)});
  return f;
}

/// Tiny DQDIMACS text exercising a-, d- and e-lines (1-based variables):
/// ∀x1,x2 ∃{x1}y3 ∃{x1,x2}y4 ∃{x1,x2}y5 with two clauses.
inline std::string tiny_dqdimacs() {
  return
      "p cnf 5 2\n"
      "a 1 2 0\n"
      "d 3 1 0\n"
      "d 4 1 2 0\n"
      "e 5 0\n"
      "1 3 0\n"
      "-4 5 2 0\n";
}

// --- planted-formula builders (realizable by construction) -----------------
// Canonical parameter points shared by several suites; pick the smallest
// size that exercises what you need so suites stay fast.

/// 6 universals / 3 existentials — small enough for exhaustive checking.
inline dqbf::DqbfFormula tiny_planted(std::uint64_t seed,
                                      std::size_t num_clauses = 18) {
  return workloads::gen_planted({6, 3, 3, 4, num_clauses, seed});
}

/// 8 universals / 4 existentials — the default mid-size instance.
inline dqbf::DqbfFormula small_planted(std::uint64_t seed,
                                       std::size_t num_clauses = 30) {
  return workloads::gen_planted({8, 4, 3, 5, num_clauses, seed});
}

/// 14 universals / 8 existentials with wide dependency sets — big enough
/// that engines do real work, used by the deadline/timeout suites.
inline dqbf::DqbfFormula hard_planted(std::uint64_t seed) {
  return workloads::gen_planted({14, 8, 7, 8, 80, seed});
}

/// 32 universals / 16 existentials with XOR functions over a nested
/// dependency chain of up to 28 universals: a True instance that a
/// default Manthan3 run works on for seconds (Manthan3.SlowPlantedStaysSlow
/// guards this). Suites that must interrupt a solve in flight use it.
inline dqbf::DqbfFormula slow_planted() {
  workloads::PlantedParams params{32, 16, 8, 12, 800, 3};
  params.xor_functions = true;
  params.nested_deps = true;
  params.dep_size_max = 28;
  return workloads::gen_planted(params);
}

/// An instance of the standard suite, by name.
inline dqbf::DqbfFormula suite_instance(const std::string& name) {
  for (workloads::Instance& instance :
       workloads::standard_suite(workloads::SuiteParams{})) {
    if (instance.name == name) return std::move(instance.formula);
  }
  ADD_FAILURE() << "no suite instance " << name;
  return {};
}

/// Manthan3 seed of `name`'s run on suite seed stream `stream`, as
/// portfolio::Runner derives it (engine index 0).
inline std::uint64_t suite_run_seed(const std::string& name,
                                    std::uint64_t stream) {
  return util::derive_seed(stream, util::hash64(name), 0);
}

/// Suite seed streams on which a default Manthan3 run of
/// plantedhard_18x4_s1 needs more than 32 counterexamples (33–41), the
/// length of the first attempt when Manthan3 still restarted. Tests that
/// need a long repair run use them.
inline constexpr std::uint64_t kFormerRestartingStreams[] = {1004, 1020,
                                                             1025};

// --- ground truth ------------------------------------------------------------

/// Exhaustive ground-truth DQBF check for tiny instances: enumerate all
/// Henkin function tables and test whether some vector satisfies φ for
/// every X. Only feasible for a handful of variables.
inline bool brute_force_true(const dqbf::DqbfFormula& f) {
  const auto& ex = f.existentials();
  const auto& universals = f.universals();
  const std::size_t nx = universals.size();
  // Total table bits across all existentials.
  std::size_t table_bits = 0;
  for (const auto& e : ex) table_bits += 1ULL << e.deps.size();
  if (table_bits > 16 || nx > 10) ADD_FAILURE() << "instance too large";
  for (std::uint64_t tables = 0; tables < (1ULL << table_bits); ++tables) {
    bool all_x_ok = true;
    for (std::uint64_t xbits = 0; xbits < (1ULL << nx) && all_x_ok;
         ++xbits) {
      cnf::Assignment a(
          static_cast<std::size_t>(f.matrix().num_vars()));
      for (std::size_t i = 0; i < nx; ++i) {
        a.set(universals[i], ((xbits >> i) & 1) != 0);
      }
      // Apply each function table.
      std::size_t offset = 0;
      for (const auto& e : ex) {
        std::size_t index = 0;
        for (std::size_t d = 0; d < e.deps.size(); ++d) {
          if (a.value(e.deps[d])) index |= 1ULL << d;
        }
        a.set(e.var, ((tables >> (offset + index)) & 1) != 0);
        offset += 1ULL << e.deps.size();
      }
      if (!f.matrix().satisfied_by(a)) all_x_ok = false;
    }
    if (all_x_ok) return true;
  }
  return false;
}

// --- certificate-check matcher ---------------------------------------------

/// Predicate form usable as EXPECT_TRUE(is_certified(f, manager, result));
/// failure messages carry the synthesis status and certificate verdict.
inline ::testing::AssertionResult is_certified(
    const dqbf::DqbfFormula& f, const aig::Aig& manager,
    const core::SynthesisResult& result) {
  if (result.status != core::SynthesisStatus::kRealizable) {
    return ::testing::AssertionFailure()
           << "synthesis did not return kRealizable (status="
           << static_cast<int>(result.status) << ")";
  }
  const dqbf::CertificateResult cert =
      dqbf::check_certificate(f, manager, result.vector);
  if (cert.status != dqbf::CertificateStatus::kValid) {
    return ::testing::AssertionFailure()
           << "certificate check rejected the vector (status="
           << static_cast<int>(cert.status) << ")";
  }
  return ::testing::AssertionSuccess();
}

/// Hard-failing form: aborts the calling test on an uncertified result.
inline void expect_certified(const dqbf::DqbfFormula& f,
                             const aig::Aig& manager,
                             const core::SynthesisResult& result) {
  ASSERT_EQ(result.status, core::SynthesisStatus::kRealizable);
  EXPECT_TRUE(is_certified(f, manager, result));
}

/// EXPECT_EQ on every kCount row of core::kStatFields.
inline void expect_same_counts(const core::SynthesisStats& a,
                               const core::SynthesisStats& b) {
  for (const core::StatField& f : core::kStatFields) {
    if (f.kind != core::StatKind::kCount) continue;
    EXPECT_EQ(a.*f.integer, b.*f.integer) << f.name;
  }
}

}  // namespace manthan::testutil
