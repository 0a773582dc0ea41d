#include "maxsat/maxsat.hpp"

#include <algorithm>
#include <unordered_set>

namespace manthan::maxsat {

Var IncrementalMaxSat::fresh_round_var() {
  if (round_vars_used_ < round_vars_.size()) {
    return round_vars_[round_vars_used_++];
  }
  const Var v = solver_.new_var();
  round_vars_.push_back(v);
  ++round_vars_used_;
  return v;
}

MaxSatStatus IncrementalMaxSat::solve_round(const std::vector<Lit>& hard,
                                            const std::vector<Lit>& soft,
                                            const util::Deadline* deadline) {
  ++stats_.rounds;
  cost_ = 0;
  soft_value_.assign(soft.size(), false);
  round_vars_used_ = 0;
  // One activation guard scopes every clause this round adds.
  const Lit round = cnf::pos(solver_.new_var());
  std::vector<Lit> selector(soft.size());
  // Working incarnation of each soft: the unit plus every relaxation
  // literal granted so far (Fu-Malik accumulates them).
  std::vector<Clause> working(soft.size());
  for (std::size_t i = 0; i < soft.size(); ++i) {
    selector[i] = cnf::pos(fresh_round_var());
    working[i] = {soft[i]};
    Clause incarnation = working[i];
    incarnation.push_back(selector[i]);
    solver_.add_clause_activated(incarnation, round);
  }

  MaxSatStatus status = MaxSatStatus::kUnknown;
  std::vector<Lit> assumptions;
  // Hard-only pre-check. With hards as assumptions an unsatisfiable hard
  // part would otherwise keep producing cores that happen to mention soft
  // selectors, relaxing forever; deciding it up front bounds the loop by
  // the classic Fu-Malik argument (in the repair loop this query was just
  // proven satisfiable by the extension check, so it is near-free).
  assumptions.push_back(round);
  assumptions.insert(assumptions.end(), hard.begin(), hard.end());
  {
    ++stats_.sat_calls;
    const sat::Result result =
        deadline != nullptr ? solver_.solve(assumptions, *deadline)
                            : solver_.solve(assumptions);
    if (result != sat::Result::kSat) {
      solver_.retire(round);
      return result == sat::Result::kUnknown
                 ? MaxSatStatus::kUnknown
                 : MaxSatStatus::kUnsatisfiableHard;
    }
  }
  while (true) {
    assumptions.clear();
    assumptions.push_back(round);
    assumptions.insert(assumptions.end(), hard.begin(), hard.end());
    for (const Lit s : selector) assumptions.push_back(~s);
    ++stats_.sat_calls;
    const sat::Result result =
        deadline != nullptr ? solver_.solve(assumptions, *deadline)
                            : solver_.solve(assumptions);
    if (result == sat::Result::kUnknown) {
      status = MaxSatStatus::kUnknown;
      break;
    }
    if (result == sat::Result::kSat) {
      const Assignment& model = solver_.model();
      for (std::size_t i = 0; i < soft.size(); ++i) {
        soft_value_[i] = model.value(soft[i]);
      }
      model_ = model;
      status = MaxSatStatus::kOptimal;
      break;
    }
    // UNSAT: the core is a subset of the assumptions. Soft selectors in it
    // get Fu-Malik-relaxed; a core without any soft selector (hard units,
    // the guard, or the borrowed clauses alone) means the hards conflict.
    std::unordered_set<std::int32_t> core_codes;
    for (const Lit a : solver_.core()) core_codes.insert(a.code());
    std::vector<std::size_t> core_softs;
    for (std::size_t i = 0; i < selector.size(); ++i) {
      if (core_codes.count((~selector[i]).code()) != 0) {
        core_softs.push_back(i);
      }
    }
    if (core_softs.empty()) {
      status = MaxSatStatus::kUnsatisfiableHard;
      break;
    }
    ++cost_;
    ++stats_.cores_relaxed;
    std::vector<Lit> relax_vars;
    relax_vars.reserve(core_softs.size());
    for (const std::size_t i : core_softs) {
      // Disable the old incarnation for the rest of the round ...
      solver_.add_clause_activated({selector[i]}, round);
      // ... and re-add it with one more relaxation literal and a fresh
      // selector.
      const Lit relax = cnf::pos(fresh_round_var());
      relax_vars.push_back(relax);
      working[i].push_back(relax);
      const Lit fresh = cnf::pos(fresh_round_var());
      Clause incarnation = working[i];
      incarnation.push_back(fresh);
      solver_.add_clause_activated(incarnation, round);
      selector[i] = fresh;
    }
    // Pairwise at-most-one over the new relaxation variables.
    for (std::size_t i = 0; i < relax_vars.size(); ++i) {
      for (std::size_t j = i + 1; j < relax_vars.size(); ++j) {
        solver_.add_clause_activated({~relax_vars[i], ~relax_vars[j]}, round);
      }
    }
  }
  // Retiring the guard reclaims every round-local clause (and any learnt
  // clause that recorded it); matrix-level learnt clauses persist.
  solver_.retire(round);
  return status;
}

MaxSatSolver::MaxSatSolver() = default;

void MaxSatSolver::ensure_vars(Var n) {
  user_vars_ = std::max(user_vars_, n);
  solver_.ensure_vars(n);
}

void MaxSatSolver::add_hard(Clause clause) {
  for (const Lit l : clause) ensure_vars(l.var() + 1);
  if (!solver_.add_clause(std::move(clause))) hard_conflict_ = true;
}

void MaxSatSolver::add_hard_formula(const CnfFormula& formula) {
  ensure_vars(formula.num_vars());
  if (!solver_.add_formula(formula)) hard_conflict_ = true;
}

std::size_t MaxSatSolver::add_soft(Clause clause) {
  for (const Lit l : clause) ensure_vars(l.var() + 1);
  const std::size_t index = soft_original_.size();
  soft_original_.push_back(clause);
  // Append a selector: assuming ~selector activates the clause.
  const Lit selector = cnf::pos(solver_.new_var());
  clause.push_back(selector);
  soft_working_.push_back(clause);
  soft_selector_.push_back(selector);
  solver_.add_clause(soft_working_.back());
  return index;
}

MaxSatStatus MaxSatSolver::solve(const util::Deadline* deadline) {
  if (hard_conflict_) return MaxSatStatus::kUnsatisfiableHard;
  cost_ = 0;
  while (true) {
    std::vector<Lit> assumptions;
    assumptions.reserve(soft_selector_.size());
    for (const Lit s : soft_selector_) assumptions.push_back(~s);
    const sat::Result result =
        deadline != nullptr ? solver_.solve(assumptions, *deadline)
                            : solver_.solve(assumptions);
    if (result == sat::Result::kUnknown) return MaxSatStatus::kUnknown;
    if (result == sat::Result::kSat) {
      const Assignment& full = solver_.model();
      model_.resize(static_cast<std::size_t>(user_vars_));
      for (Var v = 0; v < user_vars_; ++v) model_.set(v, full.value(v));
      return MaxSatStatus::kOptimal;
    }
    // UNSAT: the core is a set of ~selector assumptions that cannot hold
    // together. An empty core means the hard clauses alone are UNSAT.
    const std::vector<Lit>& core = solver_.core();
    std::unordered_set<std::int32_t> core_selector_codes;
    for (const Lit a : core) core_selector_codes.insert((~a).code());
    std::vector<std::size_t> core_softs;
    for (std::size_t i = 0; i < soft_selector_.size(); ++i) {
      if (core_selector_codes.count(soft_selector_[i].code()) != 0) {
        core_softs.push_back(i);
      }
    }
    if (core_softs.empty()) return MaxSatStatus::kUnsatisfiableHard;

    // Fu-Malik relaxation: each soft clause in the core gets a fresh
    // relaxation variable; at most one of them may fire.
    ++cost_;
    std::vector<Lit> relax_vars;
    relax_vars.reserve(core_softs.size());
    for (const std::size_t i : core_softs) {
      // Permanently disable the old incarnation of the clause ...
      solver_.add_clause({soft_selector_[i]});
      // ... and re-add it with an extra relaxation literal and a fresh
      // selector.
      const Lit relax = cnf::pos(solver_.new_var());
      relax_vars.push_back(relax);
      Clause next = soft_working_[i];
      next.pop_back();  // old selector
      next.push_back(relax);
      const Lit selector = cnf::pos(solver_.new_var());
      next.push_back(selector);
      soft_working_[i] = next;
      soft_selector_[i] = selector;
      solver_.add_clause(next);
    }
    // Pairwise at-most-one over the new relaxation variables.
    for (std::size_t i = 0; i < relax_vars.size(); ++i) {
      for (std::size_t j = i + 1; j < relax_vars.size(); ++j) {
        solver_.add_clause({~relax_vars[i], ~relax_vars[j]});
      }
    }
  }
}

bool MaxSatSolver::soft_satisfied(std::size_t index) const {
  const Clause& clause = soft_original_[index];
  return std::any_of(clause.begin(), clause.end(),
                     [&](Lit l) { return model_.value(l); });
}

}  // namespace manthan::maxsat
