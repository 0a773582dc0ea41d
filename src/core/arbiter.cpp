#include "core/arbiter.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/popcount.hpp"

namespace manthan::core {

using cnf::Lit;
using cnf::Var;

namespace {

PackedCube pack_cube(const cnf::Assignment& point,
                     const std::vector<Var>& deps) {
  PackedCube words((deps.size() + 63) / 64, 0);
  for (std::size_t b = 0; b < deps.size(); ++b) {
    if (point.value(deps[b])) words[b / 64] |= std::uint64_t{1} << (b % 64);
  }
  return words;
}

}  // namespace

std::vector<bool> cube_bits(const cnf::Assignment& point,
                            const std::vector<Var>& deps) {
  std::vector<bool> bits;
  bits.reserve(deps.size());
  for (const Var d : deps) bits.push_back(point.value(d));
  return bits;
}

std::vector<Lit> cube_premise(const std::vector<Var>& deps,
                              const std::vector<bool>& cube) {
  std::vector<Lit> premise;
  premise.reserve(cube.size());
  for (std::size_t b = 0; b < cube.size(); ++b) {
    premise.push_back(cube[b] ? cnf::pos(deps[b]) : cnf::neg(deps[b]));
  }
  return premise;
}

aig::Ref prepend_entry(aig::Aig& manager, const DecisionEntry& entry,
                       aig::Ref rest) {
  std::vector<aig::Ref> lits;
  lits.reserve(entry.premise.size());
  for (const Lit l : entry.premise) {
    const aig::Ref in = manager.input(l.var());
    lits.push_back(l.negated() ? aig::ref_not(in) : in);
  }
  return manager.ite_gate(manager.and_all(lits),
                          aig::Aig::constant(entry.value), rest);
}

aig::Ref decision_list(aig::Aig& manager,
                       const std::vector<DecisionEntry>& entries,
                       aig::Ref fallback) {
  aig::Ref acc = fallback;
  for (const DecisionEntry& entry : entries) {
    acc = prepend_entry(manager, entry, acc);
  }
  return acc;
}

ArbiterExpansion::ArbiterExpansion(const dqbf::DqbfFormula& formula)
    : formula_(formula), ids_(formula.num_existentials()) {}

std::size_t ArbiterExpansion::arbiter_for(std::size_t k, PackedCube cube) {
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
    point_arbiters_.push_back(arbiter_for(k, pack_cube(point, ex[k].deps)));
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

std::vector<Lit> ArbiterExpansion::generalize(std::size_t id) const {
  const Arbiter& a = arbiters_[id];
  const bool value = values_[id];
  const PackedCube& cube = a.cube;
  const auto distance = [&](const PackedCube& other) {
    std::size_t bits = 0;
    for (std::size_t w = 0; w < cube.size(); ++w) {
      bits += util::popcount64(cube[w] ^ other[w]);
    }
    return bits;
  };
  // y_k's other arbiters: same value (nearest first, ties by id) and
  // different value.
  std::vector<std::pair<std::size_t, std::size_t>> agree;
  std::vector<const PackedCube*> disagree;
  for (const auto& [other_cube, other] : ids_[a.existential]) {
    if (other == id) continue;
    if (values_[other] == value) {
      agree.emplace_back(distance(other_cube), other);
    } else {
      disagree.push_back(&other_cube);
    }
  }
  std::sort(agree.begin(), agree.end());

  // keep: mask of the premise's literals, bit-aligned with the cube. The
  // premise covers a cube d exactly when (d ^ cube) & keep is zero.
  PackedCube keep(cube.size(), ~std::uint64_t{0});
  PackedCube widened(cube.size());
  for (const auto& [dist, other] : agree) {
    const PackedCube& other_cube = arbiters_[other].cube;
    for (std::size_t w = 0; w < cube.size(); ++w) {
      widened[w] = keep[w] & ~(cube[w] ^ other_cube[w]);
    }
    if (widened == keep) continue;  // already covered
    const bool covers_disagreeing = std::any_of(
        disagree.begin(), disagree.end(), [&](const PackedCube* d) {
          for (std::size_t w = 0; w < cube.size(); ++w) {
            if (((*d)[w] ^ cube[w]) & widened[w]) return false;
          }
          return true;
        });
    if (!covers_disagreeing) keep.swap(widened);
  }

  const std::vector<Var>& deps = formula_.existentials()[a.existential].deps;
  std::vector<Lit> premise;
  for (std::size_t b = 0; b < deps.size(); ++b) {
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    if (!(keep[b / 64] & bit)) continue;
    premise.push_back(cube[b / 64] & bit ? cnf::pos(deps[b])
                                         : cnf::neg(deps[b]));
  }
  return premise;
}

}  // namespace manthan::core
