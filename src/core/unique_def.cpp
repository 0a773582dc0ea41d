#include "core/unique_def.hpp"

#include <algorithm>

namespace manthan::core {

UniqueDefExtractor::UniqueDefExtractor(const dqbf::DqbfFormula& formula,
                                       UniqueDefOptions options)
    : formula_(formula), options_(options) {}

bool UniqueDefExtractor::ensure_padoa_solver() {
  if (padoa_solver_.has_value()) return !padoa_broken_;
  padoa_solver_.emplace();
  sat::Solver& solver = *padoa_solver_;
  const cnf::CnfFormula& matrix = formula_.matrix();
  shift_ = matrix.num_vars();
  solver.ensure_vars(2 * shift_);

  // φ(V) and φ(V').
  for (const cnf::Clause& clause : matrix.clauses()) {
    solver.add_clause(clause);
    cnf::Clause shifted;
    shifted.reserve(clause.size());
    for (const cnf::Lit l : clause) {
      shifted.push_back(cnf::Lit(l.var() + shift_, l.negated()));
    }
    solver.add_clause(shifted);
  }
  // One activation selector per universal: s_x -> (x <-> x').
  universal_eq_selector_.clear();
  for (const cnf::Var x : formula_.universals()) {
    const cnf::Lit s = cnf::pos(solver.new_var());
    solver.add_clause({~s, cnf::neg(x), cnf::pos(x + shift_)});
    solver.add_clause({~s, cnf::pos(x), cnf::neg(x + shift_)});
    universal_eq_selector_.push_back(s);
  }
  padoa_broken_ = false;
  return true;
}

UniqueDefExtractor::Defined UniqueDefExtractor::is_defined(
    std::size_t i, const util::Deadline* deadline) {
  if (!ensure_padoa_solver()) return Defined::kUnknown;
  sat::Solver& solver = *padoa_solver_;
  const dqbf::Existential& e = formula_.existentials()[i];

  std::vector<cnf::Lit> assumptions;
  const std::vector<cnf::Var>& universals = formula_.universals();
  for (std::size_t pos = 0; pos < universals.size(); ++pos) {
    if (std::binary_search(e.deps.begin(), e.deps.end(), universals[pos])) {
      assumptions.push_back(universal_eq_selector_[pos]);
    }
  }
  assumptions.push_back(cnf::pos(e.var));
  assumptions.push_back(cnf::neg(e.var + shift_));

  const sat::Result result = deadline != nullptr
                                 ? solver.solve(assumptions, *deadline)
                                 : solver.solve(assumptions);
  switch (result) {
    case sat::Result::kUnsat: return Defined::kYes;
    case sat::Result::kSat: return Defined::kNo;
    case sat::Result::kUnknown: return Defined::kUnknown;
  }
  return Defined::kUnknown;
}

bool UniqueDefExtractor::ensure_matrix_bdd(const util::Deadline* deadline) {
  if (bdd_failed_) return false;
  const bool built = bdd_.has_value();
  if (!built) {
    if (static_cast<std::size_t>(formula_.matrix().num_vars()) >
        options_.max_matrix_vars) {
      bdd_failed_ = true;
      return false;
    }
    bdd_.emplace();
  }
  // Installed on every call, so the projection that follows polls the
  // caller's current deadline. A build it stops is not retried.
  bdd_->set_abort_check([this, deadline]() {
    return (deadline != nullptr && deadline->expired()) ||
           bdd_->num_nodes() > options_.max_bdd_nodes;
  });
  if (built) return true;
  try {
    const std::optional<bdd::NodeId> matrix =
        bdd_->from_cnf_limited(formula_.matrix(), options_.max_bdd_nodes);
    if (!matrix.has_value()) {
      bdd_.reset();
      bdd_failed_ = true;
      return false;
    }
    matrix_bdd_ = *matrix;
  } catch (const bdd::BddAborted&) {
    bdd_.reset();
    bdd_failed_ = true;
    return false;
  }
  return true;
}

std::optional<aig::Ref> UniqueDefExtractor::extract(
    std::size_t i, aig::Aig& manager, const util::Deadline* deadline) {
  if (!ensure_matrix_bdd(deadline)) return std::nullopt;
  const dqbf::Existential& e = formula_.existentials()[i];

  // Quantify out everything except H_i ∪ {y_i}, then cofactor y_i := 1.
  std::vector<std::int32_t> eliminate;
  for (cnf::Var v = 0; v < formula_.matrix().num_vars(); ++v) {
    if (v == e.var) continue;
    if (std::binary_search(e.deps.begin(), e.deps.end(), v)) continue;
    eliminate.push_back(v);
  }
  try {
    const bdd::NodeId projected = bdd_->exists(matrix_bdd_, eliminate);
    const bdd::NodeId definition =
        bdd_->restrict_var(projected, e.var, true);
    return bdd_to_aig(*bdd_, definition, manager);
  } catch (const bdd::BddAborted&) {
    return std::nullopt;
  }
}

}  // namespace manthan::core
