#include "dqbf/incremental_refutation.hpp"

namespace manthan::dqbf {

IncrementalRefutation::IncrementalRefutation(const DqbfFormula& formula,
                                             const aig::Aig& manager,
                                             sat::SolverOptions options)
    : formula_(formula),
      solver_(options),
      encoder_(
          manager, [this]() { return solver_.new_var(); },
          [this](const cnf::Clause& c) { solver_.add_clause(c); }) {
  const cnf::CnfFormula& matrix = formula.matrix();
  // The matrix variable block comes first so cone inputs (universal and
  // existential variables) land on their own CNF variables.
  solver_.reserve_vars(matrix.num_vars());

  // ¬φ, encoded once: one selector per clause asserting that the clause
  // is falsified; at least one selector must fire. (One-sided Tseitin
  // suffices for satisfiability-preserving negation.)
  cnf::Clause selectors;
  selectors.reserve(matrix.num_clauses());
  cnf::Clause binary(2);
  for (const cnf::Clause& clause : matrix.clauses()) {
    const cnf::Lit selector = cnf::pos(solver_.new_var());
    binary[0] = ~selector;
    for (const cnf::Lit l : clause) {
      binary[1] = ~l;
      solver_.add_clause(binary);
    }
    selectors.push_back(selector);
  }
  // An empty matrix has no falsifiable clause: the empty selector clause
  // makes the solver root-unsatisfiable, i.e. every candidate certifies.
  solver_.add_clause(selectors);

  const std::size_t m = formula.existentials().size();
  current_.assign(m, aig::kFalseRef);
  activation_.assign(m, cnf::kUndefLit);
  linked_.assign(m, false);
}

void IncrementalRefutation::relink(const HenkinVector& candidate) {
  ++stats_.rounds;
  const std::vector<Existential>& ex = formula_.existentials();
  // Retire the stale guards of every changed cone in one batch, so one
  // learnt-database sweep covers the whole round regardless of how many
  // candidates a counterexample repaired.
  std::vector<std::size_t> changed;
  std::vector<cnf::Lit> stale;
  for (std::size_t i = 0; i < ex.size(); ++i) {
    if (linked_[i] && current_[i] == candidate.functions[i]) {
      ++stats_.cones_reused;
      continue;
    }
    changed.push_back(i);
    if (linked_[i]) stale.push_back(activation_[i]);
  }
  if (!stale.empty()) {
    solver_.retire(stale);
    stats_.activations_retired += stale.size();
  }
  for (const std::size_t i : changed) {
    // The cone definition is permanent (cached by the encoder); only
    // the output equivalence y_i ↔ root is guarded, so a later repair
    // can retire it without touching the shared definitions.
    const cnf::Lit root = encoder_.encode(candidate.functions[i]);
    const cnf::Lit act = cnf::pos(solver_.new_var());
    const cnf::Lit y = cnf::pos(ex[i].var);
    solver_.add_clause_activated({~y, root}, act);
    solver_.add_clause_activated({y, ~root}, act);
    activation_[i] = act;
    current_[i] = candidate.functions[i];
    linked_[i] = true;
    ++stats_.cones_encoded;
  }
  assumptions_.clear();
  for (std::size_t i = 0; i < ex.size(); ++i) {
    assumptions_.push_back(activation_[i]);
  }
}

sat::Result IncrementalRefutation::check(const HenkinVector& candidate,
                                         const util::Deadline& deadline) {
  relink(candidate);
  return solver_.solve(assumptions_, deadline);
}

sat::Result IncrementalRefutation::check(const HenkinVector& candidate) {
  relink(candidate);
  return solver_.solve(assumptions_);
}

const IncrementalRefutation::Stats& IncrementalRefutation::stats() const {
  stats_.aig_nodes_encoded = encoder_.stats().gates_encoded;
  return stats_;
}

}  // namespace manthan::dqbf
