// Detection and extraction of uniquely defined existential variables.
//
// Role in the paper: the UNIQUE preprocessor; PedantLite runs it before
// its arbiter search. (Manthan3 does not: on the standard suite the
// definitions saved 7 of 1,996 counterexamples for about a fifth of busy
// time, so it learns every candidate.) An existential y_i is
// uniquely defined by its Henkin set H_i under φ when any two models of φ
// agreeing on H_i agree on y_i — decided by Padoa's method: the doubled
// formula  φ(V) ∧ φ(V') ∧ (H_i ↔ H_i') ∧ y_i ∧ ¬y_i'  is SAT iff y_i is
// NOT defined. For defined variables the definition itself is extracted
// through the BDD engine:  def_i(H_i) = (∃ V∖(H_i∪{y_i}) φ)|_{y_i=1}.
// Definitions are forced: every valid Henkin vector of a True DQBF agrees
// with them, so they are safe initial candidates that typically never need
// repair.
#pragma once

#include <optional>

#include "aig/aig.hpp"
#include "bdd/bdd.hpp"
#include "dqbf/dqbf.hpp"
#include "sat/solver.hpp"
#include "util/timer.hpp"

namespace manthan::core {

struct UniqueDefOptions {
  /// Skip BDD extraction entirely above this matrix size.
  std::size_t max_matrix_vars = 96;
  /// Abort the matrix-BDD build beyond this node count. The cap counts
  /// every node the manager allocates, intermediate conjunctions included;
  /// under Bdd's deepest-clause-first schedule those are about a third of
  /// what an in-order build allocates (30,952 -> 9,027 nodes on
  /// pec_7x2_s0), so the cap is a looser bound than it was: a matrix
  /// whose in-order build would exceed it can now build within it.
  std::size_t max_bdd_nodes = 200000;
};

class UniqueDefExtractor {
 public:
  UniqueDefExtractor(const dqbf::DqbfFormula& formula,
                     UniqueDefOptions options = {});

  /// Padoa definability check for existential index `i`. kUnknown on
  /// deadline expiry.
  enum class Defined { kYes, kNo, kUnknown };
  Defined is_defined(std::size_t i, const util::Deadline* deadline = nullptr);

  /// Extract the definition of existential `i` as an AIG over H_i.
  /// Returns nullopt when the BDD budget is exceeded or `deadline`
  /// expires during the BDD work (caller falls back to its search). Only
  /// meaningful when is_defined(i) == kYes.
  std::optional<aig::Ref> extract(std::size_t i, aig::Aig& manager,
                                  const util::Deadline* deadline = nullptr);

 private:
  bool ensure_padoa_solver();
  bool ensure_matrix_bdd(const util::Deadline* deadline);

  const dqbf::DqbfFormula& formula_;
  UniqueDefOptions options_;

  // Doubled formula for Padoa checks: copy 2 of variable v is v + shift.
  std::optional<sat::Solver> padoa_solver_;
  std::vector<cnf::Lit> universal_eq_selector_;  // indexed by universal pos
  cnf::Var shift_ = 0;
  bool padoa_broken_ = false;

  std::optional<bdd::Bdd> bdd_;
  bdd::NodeId matrix_bdd_ = bdd::kFalseNode;
  bool bdd_failed_ = false;
};

}  // namespace manthan::core
