// Partial MaxSAT via the Fu-Malik core-guided algorithm.
//
// Role in the paper: Open-WBO. Manthan3's FindCandi subroutine makes one
// partial-MaxSAT call per counterexample: the specification plus the
// X-valuation are hard constraints, and (y_i <-> sigma[y'_i]) units are
// soft; the soft clauses falsified in an optimal solution identify the
// candidate functions that must be repaired.
//
// Algorithm: repeatedly solve with one fresh selector literal per active
// soft clause assumed; every UNSAT core yields a set of soft clauses that
// cannot all hold, each of which gets a relaxation variable with an
// at-most-one side constraint; the number of iterations equals the optimum.
#pragma once

#include <vector>

#include "sat/solver.hpp"
#include "util/timer.hpp"

namespace manthan::maxsat {

using cnf::Assignment;
using cnf::Clause;
using cnf::CnfFormula;
using cnf::Lit;
using cnf::Var;

enum class MaxSatStatus { kOptimal, kUnsatisfiableHard, kUnknown };

/// Round-scoped partial MaxSAT over a *shared persistent* SAT solver.
///
/// The repair loop solves one MaxSAT instance per counterexample whose
/// hard part is always  φ ∧ (X ↔ π[X])  and whose soft part is always a
/// set of unit literals (Y ↔ σ[Y']). MaxSatSolver would re-encode φ every
/// round; this class instead borrows a solver that already holds φ (the
/// engine's φ solver) and runs Fu-Malik *inside one activation scope*:
///
///   * hard X-units are plain assumptions — nothing is added for them;
///   * each soft unit gets a selector clause (soft ∨ s), and every
///     Fu-Malik artifact (selector clauses, relaxed copies, at-most-one
///     constraints) is guarded by a single per-round activation literal;
///   * when the round ends the guard is retired, so the borrowed solver
///     keeps only φ plus whatever matrix-level clauses it learnt — those
///     persist and speed up every later extension check, repair query,
///     and MaxSAT round.
class IncrementalMaxSat {
 public:
  struct Stats {
    std::uint64_t rounds = 0;
    std::uint64_t sat_calls = 0;
    /// Fu-Malik relaxation iterations summed over all rounds (== the sum
    /// of the optima).
    std::uint64_t cores_relaxed = 0;
  };

  /// `solver` must already contain the hard clauses and outlive the
  /// object; it is returned to root level (with the round's machinery
  /// retired) after every solve_round().
  explicit IncrementalMaxSat(sat::Solver& solver) : solver_(solver) {}

  /// Minimize the number of falsified `soft` unit literals subject to the
  /// solver's clauses plus the `hard` unit assumptions.
  MaxSatStatus solve_round(const std::vector<Lit>& hard,
                           const std::vector<Lit>& soft,
                           const util::Deadline* deadline = nullptr);

  /// Minimum number of falsified softs; valid after kOptimal.
  std::size_t cost() const { return cost_; }
  /// Whether soft literal `index` holds in the optimum found by the last
  /// solve_round().
  bool soft_satisfied(std::size_t index) const { return soft_value_[index]; }

  /// The optimal assignment (the borrowed solver's full model at the
  /// optimum, so it includes solver-internal selector variables above the
  /// caller's block); valid after kOptimal. The synthesis loop appends it
  /// — truncated to matrix variables — to the training matrix
  /// (cross-round sample reuse: it is a model of φ ∧ (X ↔ π[X])).
  const Assignment& model() const { return model_; }

  const Stats& stats() const { return stats_; }

 private:
  cnf::Var fresh_round_var();

  sat::Solver& solver_;
  std::vector<bool> soft_value_;
  Assignment model_;
  std::size_t cost_ = 0;
  /// Round-local selector/relaxation variables, recycled across rounds:
  /// after retire() every clause (and learnt clause) mentioning them is
  /// gone — they all carried the round guard — so the variables are
  /// completely unconstrained again. Without recycling the borrowed
  /// solver's variable count grows by ~|softs| · iterations every round,
  /// and per-solve O(num_vars) work (model extraction, GC root walks)
  /// turns quadratic in the number of counterexamples. Only the round
  /// guard itself is never recycled: its negation is asserted as a
  /// permanent unit.
  std::vector<Var> round_vars_;
  std::size_t round_vars_used_ = 0;
  Stats stats_;
};

class MaxSatSolver {
 public:
  MaxSatSolver();

  /// Declare the user variable space; solver-internal selector variables
  /// live above this range and never leak into the reported model.
  void ensure_vars(Var n);

  void add_hard(Clause clause);
  void add_hard_formula(const CnfFormula& formula);

  /// Add a soft clause (weight 1); returns its index.
  std::size_t add_soft(Clause clause);

  /// Solve to optimality (or until the deadline expires).
  MaxSatStatus solve(const util::Deadline* deadline = nullptr);

  /// Minimum number of falsified soft clauses; valid after kOptimal.
  std::size_t cost() const { return cost_; }

  /// Optimal assignment restricted to user variables.
  const Assignment& model() const { return model_; }

  /// Whether soft clause `index` holds in the optimal assignment.
  bool soft_satisfied(std::size_t index) const;

 private:
  sat::Solver solver_;
  Var user_vars_ = 0;
  std::vector<Clause> soft_original_;   // as given by the caller
  std::vector<Clause> soft_working_;    // original + relaxation literals
  std::vector<Lit> soft_selector_;      // current selector per soft clause
  std::size_t cost_ = 0;
  Assignment model_;
  bool hard_conflict_ = false;
};

}  // namespace manthan::maxsat
