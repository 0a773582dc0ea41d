#include <algorithm>

#include "aig/aig_sim.hpp"
#include "workloads/gen_util.hpp"
#include "workloads/workloads.hpp"

namespace manthan::workloads {

using cnf::Var;

dqbf::DqbfFormula gen_planted(const PlantedParams& params) {
  util::Rng rng(params.seed);
  dqbf::DqbfFormula formula;
  const std::size_t nx = params.num_universals;
  const std::size_t ny = params.num_existentials;
  for (std::size_t i = 0; i < nx; ++i) {
    formula.add_universal(static_cast<Var>(i));
  }

  // Dependency sets (random or a nested chain) and planted functions.
  aig::Aig manager;
  std::vector<aig::Ref> planted(ny);
  std::vector<Var> y_vars(ny);
  const std::vector<Var> permutation = detail::random_subset(nx, nx, rng);
  for (std::size_t i = 0; i < ny; ++i) {
    std::vector<Var> deps;
    if (params.nested_deps) {
      // Prefix of one shared permutation: H_1 ⊆ H_2 ⊆ … ⊆ H_m.
      const std::size_t lo = std::min(params.dep_size, nx);
      const std::size_t hi = std::min(
          params.dep_size_max == 0 ? params.dep_size : params.dep_size_max,
          nx);
      const std::size_t size =
          ny > 1 ? lo + i * (hi - lo) / (ny - 1) : hi;
      deps.assign(permutation.begin(),
                  permutation.begin() + static_cast<std::ptrdiff_t>(size));
    } else {
      deps = detail::random_subset(nx, std::min(params.dep_size, nx), rng);
    }
    y_vars[i] = static_cast<Var>(nx + i);
    formula.add_existential(y_vars[i], deps);
    planted[i] = detail::random_function(manager, deps,
                                         params.function_gates, rng,
                                         params.xor_functions);
  }

  // Emit random clauses over X ∪ Y that the planted vector satisfies for
  // every X valuation: a clause is kept iff, with each y_i replaced by its
  // planted function, it is a tautology over X. The check reads the
  // literals' union cone directly, so rejected attempts leave nothing in
  // the manager; both buffers are reused across attempts.
  std::size_t emitted = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = params.num_clauses * 200;
  cnf::Clause clause;
  std::vector<aig::Ref> substituted;
  while (emitted < params.num_clauses && attempts++ < max_attempts) {
    const std::size_t width = 2 + rng.next_below(3);
    clause.clear();
    substituted.clear();
    bool has_existential = false;
    for (std::size_t k = 0; k < width; ++k) {
      const bool negate = rng.flip();
      if (rng.flip(0.55) || ny == 0) {
        const Var x = static_cast<Var>(rng.next_below(nx));
        clause.push_back(cnf::Lit(x, negate));
        const aig::Ref in = manager.input(x);
        substituted.push_back(negate ? aig::ref_not(in) : in);
      } else {
        const std::size_t i = rng.next_below(ny);
        clause.push_back(cnf::Lit(y_vars[i], negate));
        substituted.push_back(negate ? aig::ref_not(planted[i])
                                     : planted[i]);
        has_existential = true;
      }
    }
    if (!has_existential) continue;  // pure-X clauses are rarely valid
    if (!aig::clause_is_tautology(manager, substituted)) continue;
    // Deduplicate literals within the clause.
    std::sort(clause.begin(), clause.end());
    clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
    formula.matrix().add_clause(clause);
    ++emitted;
  }
  return formula;
}

}  // namespace manthan::workloads
