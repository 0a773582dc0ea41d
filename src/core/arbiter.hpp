// Arbiter variables and decision lists over dependency cubes — Pedant's
// machinery (Reichl, Slivovsky & Szeider, SAT 2021), shared by Manthan3's
// repair of last resort and the PedantLite baseline.
//
// A Henkin function f_k is a table over assignments of H_k. Pedant names
// each table cell it has seen with an *arbiter variable* a_{k,c} (the
// value of y_k on the H_k-cube c) and represents the function as a
// decision list: ite(H_k = c1, v1, ite(H_k = c2, v2, ... default)). The
// entries mention only H_k, so prepending one never breaks admissibility.
//
// ArbiterExpansion is the matching universal expansion: every added
// X-point π contributes the matrix instantiated at π[X], with each y_k
// replaced by a_{k, π[H_k]}. Any Henkin vector induces an arbiter
// assignment (a_{k,c} = f_k(c)) that satisfies every such copy, so an
// UNSAT expansion proves the DQBF False. A SAT expansion proposes, for
// each arbiter, a value consistent with all points seen so far.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/cnf.hpp"
#include "dqbf/dqbf.hpp"
#include "sat/solver.hpp"
#include "util/timer.hpp"

namespace manthan::core {

/// Values of `point` on the sorted dependency set `deps`: the H-cube the
/// point falls into.
std::vector<bool> cube_bits(const cnf::Assignment& point,
                            const std::vector<cnf::Var>& deps);

/// A decision list's entries: H-cube bits → output value. Cubes are full
/// assignments of the same dependency set, so entries are disjoint.
using CubeTable = std::map<std::vector<bool>, bool>;

/// The AIG of `table` layered over `fallback`: every entry in table order
/// becomes ite(H = cube, value, rest).
aig::Ref decision_list(aig::Aig& manager, const std::vector<cnf::Var>& deps,
                       const CubeTable& table, aig::Ref fallback);

/// ite(H = cube, value, rest): one entry prepended to a decision list.
aig::Ref prepend_entry(aig::Aig& manager, const std::vector<cnf::Var>& deps,
                       const std::vector<bool>& cube, bool value,
                       aig::Ref rest);

class ArbiterExpansion {
 public:
  struct Arbiter {
    std::size_t existential = 0;  ///< index into formula.existentials()
    std::vector<bool> cube;       ///< the H_k-cube this arbiter decides
    cnf::Var var = cnf::kNoVar;   ///< the arbiter's solver variable
  };

  /// `formula` must outlive the expansion. The solver is created on the
  /// first add_point(), so an unused expansion costs nothing.
  explicit ArbiterExpansion(const dqbf::DqbfFormula& formula);

  /// Add the matrix instantiated at point[X] (a repeated X-point adds
  /// nothing) and solve. kUnsat proves the DQBF False; kUnknown means the
  /// deadline expired. After kSat, value(), point_arbiters() and flipped()
  /// describe the new model.
  sat::Result add_point(const cnf::Assignment& point,
                        const util::Deadline& deadline);

  /// Arbiter ids of the last added point, indexed like existentials().
  const std::vector<std::size_t>& point_arbiters() const {
    return point_arbiters_;
  }
  /// Arbiters that existed before the last solve and changed value in it.
  const std::vector<std::size_t>& flipped() const { return flipped_; }
  const Arbiter& arbiter(std::size_t id) const { return arbiters_[id]; }
  /// The arbiter's value in the latest model.
  bool value(std::size_t id) const { return values_[id]; }
  std::size_t num_arbiters() const { return arbiters_.size(); }
  /// Distinct X-points added so far.
  std::size_t num_points() const { return points_.size(); }

 private:
  std::size_t arbiter_for(std::size_t k, std::vector<bool> cube);

  const dqbf::DqbfFormula& formula_;
  std::optional<sat::Solver> solver_;
  /// Per existential: H_k-cube → arbiter id.
  std::vector<std::unordered_map<std::vector<bool>, std::size_t>> ids_;
  std::vector<Arbiter> arbiters_;
  std::vector<bool> values_;
  std::unordered_set<std::vector<bool>> points_;  // X-cubes added
  std::vector<std::size_t> point_arbiters_;
  std::vector<std::size_t> flipped_;
  sat::Result last_ = sat::Result::kSat;
};

}  // namespace manthan::core
