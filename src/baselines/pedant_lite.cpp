#include "baselines/pedant_lite.hpp"

#include <map>
#include <vector>

#include "core/arbiter.hpp"
#include "dqbf/certificate.hpp"
#include "sat/solver.hpp"
#include "util/timer.hpp"

namespace manthan::baselines {

using core::SynthesisResult;
using core::SynthesisStatus;
using cnf::Var;

PedantLite::PedantLite(PedantLiteOptions options) : options_(options) {}

SynthesisResult PedantLite::synthesize(const dqbf::DqbfFormula& formula,
                                       aig::Aig& manager) {
  util::Timer total_timer;
  const util::Deadline deadline(options_.time_limit_seconds, options_.cancel);
  SynthesisResult result;
  const auto finish = [&](SynthesisStatus status) {
    result.status = status;
    result.stats.total_seconds = total_timer.seconds();
    return result;
  };

  const std::vector<dqbf::Existential>& ex = formula.existentials();
  const std::size_t m = ex.size();
  const cnf::CnfFormula& matrix = formula.matrix();

  sat::Solver phi_solver;
  if (!phi_solver.add_formula(matrix)) {
    return finish(SynthesisStatus::kUnrealizable);
  }

  // Phase 1: definition extraction.
  std::vector<aig::Ref> f(m, aig::kFalseRef);
  std::vector<bool> defined(m, false);
  core::UniqueDefExtractor unique(formula, options_.unique);
  for (std::size_t i = 0; i < m; ++i) {
    if (deadline.expired()) return finish(SynthesisStatus::kTimeout);
    if (unique.is_defined(i, &deadline) !=
        core::UniqueDefExtractor::Defined::kYes) {
      continue;
    }
    const std::optional<aig::Ref> def = unique.extract(i, manager, &deadline);
    if (def.has_value()) {
      f[i] = *def;
      defined[i] = true;
      ++result.stats.unique_defined;
    }
  }

  // Phase 2: arbiter tables for the undefined outputs. Each table maps an
  // H_i valuation (bits over the sorted dependency set) to the output
  // value; the function is default-false overridden by entries, one
  // full-cube premise each (so they are disjoint).
  std::vector<std::map<std::vector<bool>, bool>> table(m);
  std::size_t total_entries = 0;
  std::size_t flips = 0;

  for (std::size_t iteration = 0;; ++iteration) {
    if (deadline.expired()) return finish(SynthesisStatus::kTimeout);
    if (iteration >= options_.max_iterations ||
        total_entries > options_.max_table_entries) {
      return finish(SynthesisStatus::kLimit);
    }
    ++result.stats.counterexamples;

    dqbf::HenkinVector candidate{f};
    const cnf::CnfFormula refutation =
        dqbf::build_refutation_cnf(formula, manager, candidate);
    sat::Solver verify_solver;
    sat::Result verify_result;
    if (!verify_solver.add_formula(refutation)) {
      verify_result = sat::Result::kUnsat;
    } else {
      verify_result = verify_solver.solve({}, deadline);
    }
    if (verify_result == sat::Result::kUnknown) {
      return finish(SynthesisStatus::kTimeout);
    }
    if (verify_result == sat::Result::kUnsat) {
      result.vector.functions = f;
      return finish(SynthesisStatus::kRealizable);
    }
    const cnf::Assignment& delta = verify_solver.model();

    // Does δ[X] extend to a model at all?
    std::vector<cnf::Lit> assumptions;
    for (const Var x : formula.universals()) {
      assumptions.push_back(delta.value(x) ? cnf::pos(x) : cnf::neg(x));
    }
    const sat::Result extend = phi_solver.solve(assumptions, deadline);
    if (extend == sat::Result::kUnknown) {
      return finish(SynthesisStatus::kTimeout);
    }
    if (extend == sat::Result::kUnsat) {
      return finish(SynthesisStatus::kUnrealizable);
    }
    const cnf::Assignment& pi = phi_solver.model();

    // Correct every undefined output that disagrees with the extension.
    bool changed = false;
    for (std::size_t i = 0; i < m; ++i) {
      if (defined[i]) continue;
      const bool current = manager.evaluate(f[i], delta);
      const bool wanted = pi.value(ex[i].var);
      if (current == wanted) continue;
      std::vector<bool> cube = core::cube_bits(delta, ex[i].deps);
      const auto it = table[i].find(cube);
      if (it == table[i].end()) {
        table[i].emplace(std::move(cube), wanted);
        ++total_entries;
      } else {
        // Entry flip: the previously recorded value turned out to block a
        // different counterexample. Bounded to avoid oscillation.
        it->second = wanted;
        if (++flips > options_.max_iterations) {
          return finish(SynthesisStatus::kIncomplete);
        }
      }
      std::vector<core::DecisionEntry> entries;
      entries.reserve(table[i].size());
      for (const auto& [entry_cube, value] : table[i]) {
        entries.push_back({core::cube_premise(ex[i].deps, entry_cube), value});
      }
      f[i] = core::decision_list(manager, entries, aig::kFalseRef);
      changed = true;
    }
    if (!changed) {
      // Counterexample touches only defined outputs: cannot happen for
      // correct definitions; fail safe rather than loop.
      return finish(SynthesisStatus::kIncomplete);
    }
  }
}

}  // namespace manthan::baselines
