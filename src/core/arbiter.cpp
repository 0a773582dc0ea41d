#include "core/arbiter.hpp"

namespace manthan::core {

using cnf::Lit;
using cnf::Var;

std::vector<bool> cube_bits(const cnf::Assignment& point,
                            const std::vector<Var>& deps) {
  std::vector<bool> bits;
  bits.reserve(deps.size());
  for (const Var d : deps) bits.push_back(point.value(d));
  return bits;
}

aig::Ref prepend_entry(aig::Aig& manager, const std::vector<Var>& deps,
                       const std::vector<bool>& cube, bool value,
                       aig::Ref rest) {
  std::vector<aig::Ref> lits;
  lits.reserve(cube.size());
  for (std::size_t b = 0; b < cube.size(); ++b) {
    const aig::Ref in = manager.input(deps[b]);
    lits.push_back(cube[b] ? in : aig::ref_not(in));
  }
  return manager.ite_gate(manager.and_all(lits), aig::Aig::constant(value),
                          rest);
}

aig::Ref decision_list(aig::Aig& manager, const std::vector<Var>& deps,
                       const CubeTable& table, aig::Ref fallback) {
  aig::Ref acc = fallback;
  for (const auto& [cube, value] : table) {
    acc = prepend_entry(manager, deps, cube, value, acc);
  }
  return acc;
}

ArbiterExpansion::ArbiterExpansion(const dqbf::DqbfFormula& formula)
    : formula_(formula), ids_(formula.num_existentials()) {}

std::size_t ArbiterExpansion::arbiter_for(std::size_t k,
                                          std::vector<bool> cube) {
  const auto [it, fresh] = ids_[k].try_emplace(cube, arbiters_.size());
  if (fresh) {
    arbiters_.push_back({k, std::move(cube), solver_->new_var()});
  }
  return it->second;
}

sat::Result ArbiterExpansion::add_point(const cnf::Assignment& point,
                                        const util::Deadline& deadline) {
  if (!solver_.has_value()) solver_.emplace();
  const std::vector<dqbf::Existential>& ex = formula_.existentials();
  point_arbiters_.clear();
  for (std::size_t k = 0; k < ex.size(); ++k) {
    point_arbiters_.push_back(arbiter_for(k, cube_bits(point, ex[k].deps)));
  }
  flipped_.clear();
  const bool fresh_point =
      points_.insert(cube_bits(point, formula_.universals())).second;
  // Once UNSAT, always UNSAT; a repeated point adds nothing to a model.
  if (last_ == sat::Result::kUnsat) return last_;
  if (!fresh_point && last_ == sat::Result::kSat) return last_;

  if (fresh_point) {
    // The matrix at point[X]: clauses a universal literal satisfies drop
    // out, false universal literals vanish, y_k becomes a_{k, point[H_k]}.
    // A variable no quantifier binds gets a fresh copy per point — the
    // weakest reading, so UNSAT stays a proof under any convention.
    std::unordered_map<Var, Var> free_copy;
    std::vector<Lit> clause;
    for (const cnf::Clause& c : formula_.matrix().clauses()) {
      clause.clear();
      bool satisfied = false;
      for (const Lit l : c) {
        const Var v = l.var();
        if (formula_.is_universal(v)) {
          if (point.value(l)) {
            satisfied = true;
            break;
          }
          continue;
        }
        Var mapped;
        if (formula_.is_existential(v)) {
          mapped = arbiters_[point_arbiters_[formula_.existential_index(v)]]
                       .var;
        } else {
          const auto [it, fresh] = free_copy.try_emplace(v, cnf::kNoVar);
          if (fresh) it->second = solver_->new_var();
          mapped = it->second;
        }
        clause.push_back(l.negated() ? cnf::neg(mapped) : cnf::pos(mapped));
      }
      if (satisfied) continue;
      if (!solver_->add_clause(clause)) {
        last_ = sat::Result::kUnsat;
        return last_;
      }
    }
  }

  last_ = solver_->solve({}, deadline);
  if (last_ != sat::Result::kSat) return last_;
  const cnf::Assignment& model = solver_->model();
  const std::size_t known = values_.size();
  values_.resize(arbiters_.size());
  for (std::size_t id = 0; id < arbiters_.size(); ++id) {
    const bool now = model.value(arbiters_[id].var);
    if (id < known && now != values_[id]) flipped_.push_back(id);
    values_[id] = now;
  }
  return last_;
}

}  // namespace manthan::core
