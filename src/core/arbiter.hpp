// Arbiter variables and decision lists over dependency cubes — Pedant's
// machinery (Reichl, Slivovsky & Szeider, SAT 2021), shared by Manthan3's
// repair of last resort and the PedantLite baseline.
//
// A Henkin function f_k is a table over assignments of H_k. Pedant names
// each table cell it has seen with an *arbiter variable* a_{k,c} (the
// value of y_k on the H_k-cube c) and represents the function as a
// decision list: ite(p1, v1, ite(p2, v2, ... default)), where each
// premise p is a conjunction of H_k literals. The entries mention only
// H_k, so prepending one never breaks admissibility.
//
// Premises need not be full cubes, so entries may overlap and their order
// matters: a point takes the value of the first (newest) entry whose
// premise it satisfies. PedantLite's premises are full cubes, hence
// disjoint. Manthan3's come from ArbiterExpansion::generalize() and
// usually cover many cubes each.
//
// ArbiterExpansion is the matching universal expansion: every added
// X-point π contributes the matrix instantiated at π[X], with each y_k
// replaced by a_{k, π[H_k]}. Any Henkin vector induces an arbiter
// assignment (a_{k,c} = f_k(c)) that satisfies every such copy, so an
// UNSAT expansion proves the DQBF False. A SAT expansion proposes, for
// each arbiter, a value consistent with all points seen so far.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
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

/// An H-cube packed 64 bits to a word: bit b % 64 of word b / 64 is the
/// value of deps[b]. Bits past |H| are zero.
using PackedCube = std::vector<std::uint64_t>;

/// The literals fixing `deps` to `cube`: a full-cube premise.
std::vector<cnf::Lit> cube_premise(const std::vector<cnf::Var>& deps,
                                   const std::vector<bool>& cube);

/// One decision-list entry: `value` wherever every premise literal holds.
struct DecisionEntry {
  std::vector<cnf::Lit> premise;
  bool value = false;
};

/// ite(premise, value, rest): one entry prepended to a decision list.
aig::Ref prepend_entry(aig::Aig& manager, const DecisionEntry& entry,
                       aig::Ref rest);

/// The AIG of `entries` layered over `fallback` oldest first, so the last
/// entry ends up on top and takes precedence over every earlier one.
aig::Ref decision_list(aig::Aig& manager,
                       const std::vector<DecisionEntry>& entries,
                       aig::Ref fallback);

class ArbiterExpansion {
 public:
  struct Arbiter {
    std::size_t existential = 0;  ///< index into formula.existentials()
    PackedCube cube;              ///< the H_k-cube this arbiter decides
    cnf::Var var = cnf::kNoVar;   ///< the arbiter's solver variable
  };

  /// `formula` must outlive the expansion. The solver is created on the
  /// first add_point(), so an unused expansion costs nothing.
  explicit ArbiterExpansion(const dqbf::DqbfFormula& formula);

  /// Add the matrix instantiated at point[X] (a repeated X-point adds
  /// nothing) and solve. kUnsat proves the DQBF False; kUnknown means the
  /// deadline expired. After kSat, value(), point_arbiters(), flipped()
  /// and generalize() describe the new model.
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

  /// A premise for arbiter `id` = (k, c) with model value v, as H_k
  /// literals in dependency order: the bottom-up least general
  /// generalisation of c over the latest model. Starting from the full
  /// cube c, the other arbiters of y_k with value v are visited nearest
  /// first (Hamming distance to c, ties by id); each widens the premise to
  /// the literals its cube shares with it, unless the widened premise
  /// would cover an arbiter of y_k with value ≠ v. With no such widening
  /// the premise is the full cube.
  std::vector<cnf::Lit> generalize(std::size_t id) const;

 private:
  std::size_t arbiter_for(std::size_t k, PackedCube cube);

  const dqbf::DqbfFormula& formula_;
  std::optional<sat::Solver> solver_;
  /// Per existential: H_k-cube → arbiter id.
  std::vector<std::map<PackedCube, std::size_t>> ids_;
  std::vector<Arbiter> arbiters_;
  std::vector<bool> values_;
  std::unordered_set<std::vector<bool>> points_;  // X-cubes added
  std::vector<std::size_t> point_arbiters_;
  std::vector<std::size_t> flipped_;
  sat::Result last_ = sat::Result::kSat;
};

}  // namespace manthan::core
