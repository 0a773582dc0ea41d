// HqspreLite — a DQBF preprocessor in the spirit of HQSpre (Wimmer et
// al., TACAS 2017), which the paper's evaluation discusses explicitly
// (HQS2 invokes it implicitly; Pedant degrades with it; Manthan3 runs
// without it).
//
// Implemented sound DQBF-preserving transformations:
//   * tautology and duplicate-literal removal,
//   * universal reduction: a universal literal x is deleted from a clause
//     when no existential literal of that clause may depend on x,
//   * detection of False-by-universal-unit: a clause left with only
//     universal literals (or empty) falsifies the formula,
//   * existential unit propagation: a unit existential fixes its function
//     to a constant and simplifies the matrix,
//   * existential pure-literal elimination: an existential occurring with
//     one polarity only is fixed to the satisfying constant,
//   * subsumption elimination and self-subsuming resolution (pointwise
//     sound, so no quantifier-prefix restriction applies).
//
// The clause passes run over an occurrence-list database with 64-bit
// clause abstractions, using the screening/subset kernels in
// sat/simplify.hpp; the DQBF-aware universal reduction stays local.
//
// Eliminated existentials are recorded on a reconstruction stack so a
// Henkin vector of the simplified formula extends to one of the original
// formula (reconstruct()).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "dqbf/dqbf.hpp"

namespace manthan::preprocess {

struct PreprocessStats {
  std::size_t tautologies_removed = 0;
  std::size_t universal_literals_reduced = 0;
  std::size_t units_propagated = 0;
  std::size_t pure_literals_eliminated = 0;
  std::size_t clauses_subsumed = 0;
  std::size_t literals_strengthened = 0;
  std::size_t rounds = 0;
};

struct PreprocessResult {
  /// The simplified formula; existentials keep their variable ids (some
  /// may have been eliminated — they no longer occur in the matrix and
  /// are *absent* from simplified.existentials()).
  dqbf::DqbfFormula simplified;
  /// False detected during preprocessing (empty / all-universal clause).
  bool proven_false = false;
  /// Constants assigned to eliminated existentials (var, value).
  std::vector<std::pair<dqbf::Var, bool>> eliminated;
  PreprocessStats stats;
};

class HqspreLite {
 public:
  /// Run simplification to fixpoint.
  PreprocessResult run(const dqbf::DqbfFormula& formula) const;

  /// Extend a Henkin vector of the simplified formula to the original
  /// one: functions for eliminated variables are the recorded constants.
  /// `simplified_functions` is indexed like result.simplified
  /// .existentials(); the return is indexed like original.existentials().
  static std::vector<aig::Ref> reconstruct(
      const dqbf::DqbfFormula& original, const PreprocessResult& result,
      const std::vector<aig::Ref>& simplified_functions);
};

}  // namespace manthan::preprocess
