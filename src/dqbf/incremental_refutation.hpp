// Persistent, incrementally updated refutation check for the verify loop.
//
// Manthan3's verification solves  E(X,Y') = ¬φ(X,Y') ∧ (Y' ↔ f)  once per
// counterexample. The one-shot path (build_refutation_cnf + a fresh
// sat::Solver) re-encodes the whole matrix negation and every candidate
// cone each round and throws away all learnt clauses. This class owns one
// verify solver for the whole synthesis run instead:
//
//   * the matrix negation (per-clause falsification selectors + the
//     "some clause falsified" disjunction) is encoded exactly once;
//   * candidate cones are encoded through an aig::IncrementalCnfEncoder,
//     whose gate cache persists — a repair that conjoins onto an old root
//     only encodes the new gates. The encoder gives each AND supergate
//     and each mux one variable rather than one per 2-input AND, so a
//     learnt tree's path cube costs one variable, not d−1; an interior
//     node a later cone reaches is re-encoded as its own gate (sound,
//     since every definition is a full equivalence over a fresh
//     variable). The one-shot build_refutation_cnf stays plain Tseitin,
//     an independent encoding for the certificate checker and the
//     differential tests;
//   * the per-candidate output equivalence  y_i ↔ f_i  is guarded by an
//     activation literal. check() assumes the current guards; when a
//     repair changes candidate i, the old guard is retired (its clauses —
//     and any learnt clauses that recorded it — are reclaimed by the
//     solver's arena GC) and a fresh guarded equivalence is added.
//
// Learnt clauses over the matrix/selector/cone variables survive across
// rounds, so each verification resumes from everything the previous
// rounds proved. Per-round work is O(changed cones + search), independent
// of the formula size.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/incremental_cnf.hpp"
#include "dqbf/dqbf.hpp"
#include "sat/solver.hpp"
#include "util/timer.hpp"

namespace manthan::dqbf {

class IncrementalRefutation {
 public:
  struct Stats {
    /// check() calls (verification rounds).
    std::uint64_t rounds = 0;
    /// Candidate output equivalences freshly (re-)encoded.
    std::uint64_t cones_encoded = 0;
    /// Round-candidates whose cached encoding was reused as-is.
    std::uint64_t cones_reused = 0;
    /// Old candidate guards retired (one per repaired candidate).
    std::uint64_t activations_retired = 0;
    /// From the cone encoder: gate variables defined (AND supergates,
    /// muxes, the constant); absorbed interior nodes count nothing.
    std::uint64_t aig_nodes_encoded = 0;
  };

  /// `formula` and `manager` must outlive the object. The solver is
  /// seeded from `options`; callers may retune search randomization and
  /// reseed between rounds via solver().
  IncrementalRefutation(const DqbfFormula& formula, const aig::Aig& manager,
                        sat::SolverOptions options = {});

  /// Swap in `candidate` (retiring the guards of changed cones only) and
  /// solve the refutation. kSat means the candidate vector is wrong and
  /// model() holds the counterexample; kUnsat certifies it.
  sat::Result check(const HenkinVector& candidate,
                    const util::Deadline& deadline);
  sat::Result check(const HenkinVector& candidate);

  const cnf::Assignment& model() const { return solver_.model(); }
  sat::Solver& solver() { return solver_; }

  const Stats& stats() const;

 private:
  void relink(const HenkinVector& candidate);

  const DqbfFormula& formula_;
  sat::Solver solver_;
  aig::IncrementalCnfEncoder encoder_;
  std::vector<aig::Ref> current_;      // last-linked candidate roots
  std::vector<cnf::Lit> activation_;   // current guard per existential
  std::vector<bool> linked_;
  std::vector<cnf::Lit> assumptions_;  // scratch, rebuilt per check()
  mutable Stats stats_;
};

}  // namespace manthan::dqbf
