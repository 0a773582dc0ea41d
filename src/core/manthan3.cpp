#include "core/manthan3.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "aig/aig_sim.hpp"
#include "cnf/sample_matrix.hpp"
#include "core/arbiter.hpp"
#include "core/dependency.hpp"
#include "dqbf/certificate.hpp"
#include "dqbf/incremental_refutation.hpp"
#include "maxsat/maxsat.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"
#include "util/budget.hpp"
#include "util/log.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace manthan::core {

namespace {

using cnf::Lit;
using cnf::Var;

/// Unit-constraint literal: (v <-> value) as a single literal.
Lit unit_lit(Var v, bool value) {
  return value ? cnf::pos(v) : cnf::neg(v);
}

// Salt words separating the engine's derived RNG streams (see the
// determinism contract in util/rng.hpp): per-existential learning
// streams and per-round verify-solver reseeds must never collide.
// Learning salts are offset by the refit generation (kLearnSalt + g), so
// generation 0 reproduces the pre-reuse stream exactly and every refit
// pass draws a fresh stream per existential.
constexpr std::uint64_t kLearnSalt = 0x4c4541524eULL;   // "LEARN"
constexpr std::uint64_t kVerifySalt = 0x564552494659ULL;  // "VERIFY"

// Refit trigger of cross-round sample reuse: a candidate's error rate over
// the rows appended since its last fit is measured once at least
// kRefitMinFreshRows of them arrived, and reaching kRefitErrorRate refits it.
constexpr std::size_t kRefitMinFreshRows = 16;
constexpr double kRefitErrorRate = 0.05;

/// Publish one call's counters into the global registry (core_* series).
/// Each row's instrument is looked up once, on the first call.
void publish(const SynthesisStats& stats) {
  struct Sink {
    obs::Counter* counter = nullptr;
    obs::Histogram* histogram = nullptr;
    obs::Gauge* gauge = nullptr;
  };
  auto& registry = obs::Registry::global();
  static obs::Counter& runs = registry.counter("core_runs_total");
  static const auto sinks = [&registry] {
    std::array<Sink, std::size(kStatFields)> out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const StatField& f = kStatFields[i];
      if (f.instrument == nullptr) continue;
      if (f.kind == StatKind::kCount) {
        out[i].counter = &registry.counter(f.instrument);
      } else if (f.kind == StatKind::kSeconds) {
        out[i].histogram = &registry.histogram(f.instrument);
      } else {
        out[i].gauge = &registry.gauge(f.instrument);
      }
    }
    return out;
  }();
  runs.inc();
  for (std::size_t i = 0; i < sinks.size(); ++i) {
    const StatField& f = kStatFields[i];
    if (sinks[i].counter) sinks[i].counter->add(stats.*f.integer);
    if (sinks[i].histogram) sinks[i].histogram->observe(stats.*f.seconds);
    if (sinks[i].gauge) {
      sinks[i].gauge->update_max(static_cast<double>(stats.*f.integer));
    }
  }
}

/// Mismatches between a packed candidate simulation and the label column,
/// restricted to rows [from_row, num_samples). The refit screen passes the
/// sample count of the previous fit: disagreement with rows the candidate
/// was already fitted on (and deliberately traded away, or diverged from
/// via an UNSAT-core repair) is not staleness — only the rows appended
/// since then are fresh evidence.
std::size_t packed_mismatches_since(const std::vector<std::uint64_t>& sim,
                                    const std::uint64_t* label,
                                    const cnf::SampleMatrix& samples,
                                    std::size_t from_row) {
  // No tail masking needed: simulate_matrix returns its last word already
  // masked, and label column tail bits are zero by construction — so the
  // tail of (sim ^ label) is zero. Only the from_row head word is partial.
  const std::size_t words = samples.num_words();
  std::size_t w = from_row >> 6;
  if (w >= words) return 0;
  std::size_t count = 0;
  if ((from_row & 63) != 0) {
    const std::uint64_t diff =
        (sim[w] ^ label[w]) & ~((1ULL << (from_row & 63)) - 1);
    count += util::popcount64(diff);
    ++w;
  }
  for (; w < words; ++w) {
    count += util::popcount64(sim[w] ^ label[w]);
  }
  return count;
}

/// The static ordering edges (Algorithm 1, lines 3-5): H_j ⊂ H_i
/// (strict) means y_i may come to depend on y_j, so the edge is committed
/// before learning, which can then never create a cycle. Learning and
/// repair record further edges.
DependencyManager static_order(const dqbf::DqbfFormula& formula) {
  const std::size_t m = formula.num_existentials();
  DependencyManager order(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (i != j && formula.deps_subset(j, i) && !formula.deps_equal(j, i) &&
          order.can_use(i, j)) {
        order.record_use(i, j);
      }
    }
  }
  return order;
}

/// The sample → learn → verify/repair loop (Algorithms 1-3) of one
/// synthesize() call. Returns the call's status and fills `out` with its
/// stats and, on kRealizable, its Henkin vector.
SynthesisStatus run(const Manthan3Options& options,
                    const dqbf::DqbfFormula& formula, aig::Aig& manager,
                    const util::Deadline& deadline, SynthesisResult& out) {
  // Telemetry only: spans tag every phase of this run with the caller's
  // trace id (the service passes the spec fingerprint). When tracing is
  // off each Span costs one relaxed atomic load.
  const std::uint64_t trace_id = options.trace_id;
  SynthesisStats& stats = out.stats;
  const cnf::CnfFormula& matrix = formula.matrix();
  const std::vector<dqbf::Existential>& ex = formula.existentials();
  const std::size_t m = ex.size();

  // Persistent specification solver: extension checks (Algorithm 1,
  // line 13), repair queries G_k (Algorithm 3, line 9), and — in the
  // incremental pipeline — the per-counterexample MaxSAT rounds all run
  // on it with assumptions, sharing one matrix encoding and one learnt
  // clause database across the whole call.
  sat::Solver phi_solver;
  // Persistent verification solver (incremental pipeline): constructed
  // once before the verify/repair loop, lives in this scope so answer()
  // can snapshot its stats.
  std::optional<dqbf::IncrementalRefutation> verifier;
  // Training matrix; declared before answer() so the exit snapshot can
  // report its footprint. Filled by the sampling phase below.
  cnf::SampleMatrix samples;
  // X-points of stalled counterexamples (the repair of last resort).
  ArbiterExpansion expansion(formula);

  const auto answer = [&](SynthesisStatus status) {
    const sat::SolverStats& phi_stats = phi_solver.stats();
    stats.phi_vars = static_cast<std::size_t>(phi_stats.vars_allocated);
    stats.phi_clauses_retired =
        static_cast<std::size_t>(phi_stats.retired_clauses);
    stats.activations_retired =
        static_cast<std::size_t>(phi_stats.retired_activations);
    if (verifier.has_value()) {
      const dqbf::IncrementalRefutation::Stats& vstats = verifier->stats();
      stats.cones_encoded = static_cast<std::size_t>(vstats.cones_encoded);
      stats.cones_reused = static_cast<std::size_t>(vstats.cones_reused);
      stats.aig_nodes_encoded =
          static_cast<std::size_t>(vstats.aig_nodes_encoded);
      stats.activations_retired +=
          static_cast<std::size_t>(vstats.activations_retired);
      const sat::SolverStats& vs = verifier->solver().stats();
      stats.verify_vars = static_cast<std::size_t>(vs.vars_allocated);
      stats.verify_clauses_retired =
          static_cast<std::size_t>(vs.retired_clauses);
      stats.verify_arena_bytes = vs.arena_bytes;
    }
    stats.sample_matrix_bytes = samples.bytes();
    stats.phi_arena_bytes = phi_stats.arena_bytes;
    return status;
  };

  // The whole run executes inside one try: an OutOfBudgetError thrown by
  // any instrumented growth site (memory budget exceeded, real or
  // injected allocation failure) unwinds to the catch at the end of this
  // function and degrades into a kOutOfBudget answer carrying the stats
  // accumulated so far — never process death. The body keeps the
  // function's base indentation; the catch is ~560 lines down.
  try {

  if (!phi_solver.add_formula(matrix)) {
    // The matrix is unsatisfiable: no X-assignment extends, so the DQBF
    // is False (unless there are no universals either, still False).
    return answer(SynthesisStatus::kUnrealizable);
  }

  // ---- Data generation (Algorithm 1, line 1) ----------------------------
  util::Timer phase_timer;
  sampler::SamplerOptions sampler_options = options.sampler;
  sampler_options.seed = options.seed;
  sampler::Sampler sampler(sampler_options);
  std::vector<Var> y_vars;
  y_vars.reserve(m);
  for (const dqbf::Existential& e : ex) y_vars.push_back(e.var);
  {
    obs::Span span("sample", "phase", trace_id);
    samples = sampler.sample_packed(matrix, y_vars, &deadline);
  }
  stats.sampling_seconds = phase_timer.seconds();
  stats.samples = samples.num_samples();
  if (samples.empty()) {
    // UNSAT matrix or the deadline hit before the first model.
    const sat::Result r = phi_solver.solve({}, deadline);
    if (r == sat::Result::kUnsat) return answer(SynthesisStatus::kUnrealizable);
    if (r == sat::Result::kUnknown) return answer(SynthesisStatus::kTimeout);
    samples.append(phi_solver.model());
    stats.samples = 1;
  }

  // Cross-round sample reuse: counterexample-derived models are appended
  // to the matrix (deduped against everything already in it, by the
  // fingerprint set the matrix kept since sampling) so refits train on
  // fresh data. append_distinct reads only the matrix variables: solver
  // models carry selector and Tseitin variables above the matrix block.
  const auto append_sample = [&](const cnf::Assignment& a) {
    if (!samples.append_distinct(a)) return false;
    ++stats.samples_appended;
    return true;
  };

  DependencyManager dep = static_order(formula);
  // The candidates f_k, indexed like ex; the learner fills every one.
  std::vector<aig::Ref> f(m);

  // Record the existential features that `ref` (now part of f_k) uses
  // (Algorithm 2, lines 11-12).
  const auto record_support = [&](std::size_t k, aig::Ref ref) {
    for (const std::int32_t id : manager.support(ref)) {
      if (!formula.is_existential(static_cast<Var>(id))) continue;
      const std::size_t j = formula.existential_index(static_cast<Var>(id));
      if (dep.can_use(k, j) && !dep.depends_on(k, j)) dep.record_use(k, j);
    }
  };

  // ---- Candidate learning (Algorithm 2) ---------------------------------
  // Feature sets are pre-committed before any fitting: y_j is an
  // admissible feature of y_i iff H_j ⊂ H_i strictly, or H_j == H_i and
  // j < i. The fixed orientation of equal-dependency pairs keeps the
  // feature relation acyclic without making feature selection depend on
  // the learnt supports. Fitting is pure — rows, labels, and a
  // derive_seed-split DtreeOptions stream per existential.
  phase_timer.reset();
  std::vector<std::vector<Var>> feature_vars(m);
  std::vector<std::vector<aig::Ref>> feature_refs(m);
  for (std::size_t i = 0; i < m; ++i) {
    feature_vars[i].assign(ex[i].deps.begin(), ex[i].deps.end());
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i || !formula.deps_subset(j, i)) continue;
      const bool strict = !formula.deps_equal(j, i);
      if ((strict || j < i) && dep.can_use(i, j)) {
        feature_vars[i].push_back(ex[j].var);
      }
    }
    feature_refs[i].reserve(feature_vars[i].size());
    for (const Var v : feature_vars[i]) {
      feature_refs[i].push_back(manager.input(v));
    }
  }

  // Fit y_i's tree on the current matrix and extract it to an AIG over
  // its features.
  const auto fit = [&](std::size_t i, std::uint64_t generation) {
    dtree::DtreeOptions dt = options.dtree;
    dt.seed = util::derive_seed(options.seed, kLearnSalt + generation, i);
    if (options.packed_learning) {
      // Popcount path: split statistics straight off the packed columns.
      return dtree::DecisionTree::fit(samples, feature_vars[i], ex[i].var,
                                      dt)
          .to_aig(manager, feature_refs[i]);
    }
    // Row-wise oracle: unpack the matrix into per-existential rows.
    const std::size_t n = samples.num_samples();
    std::vector<std::vector<bool>> rows;
    rows.reserve(n);
    std::vector<bool> labels;
    labels.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      std::vector<bool> row;
      row.reserve(feature_vars[i].size());
      for (const Var v : feature_vars[i]) row.push_back(samples.value(s, v));
      rows.push_back(std::move(row));
      labels.push_back(samples.value(s, ex[i].var));
    }
    return dtree::DecisionTree::fit(rows, labels, dt)
        .to_aig(manager, feature_refs[i]);
  };

  {
    obs::Span span("learn", "phase", trace_id);
    for (std::size_t i = 0; i < m; ++i) {
      f[i] = fit(i, 0);
      record_support(i, f[i]);
    }
  }
  stats.learned_candidates = m;
  stats.learning_seconds = phase_timer.seconds();

  // ---- FindOrder (Algorithm 1, line 8) -----------------------------------
  std::vector<std::size_t> order;
  std::vector<std::size_t> order_pos(m, 0);
  const auto refresh_order = [&]() {
    order = dep.find_order();
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      order_pos[order[pos]] = pos;
    }
  };
  refresh_order();

  const auto substitute_and_return = [&]() {
    obs::Span span("substitute", "phase", trace_id);
    // Substitute (Algorithm 1, line 19): walk Order from its tail so that
    // every referenced existential is already expressed over universals.
    std::vector<aig::Ref> final_functions(m, aig::kFalseRef);
    std::unordered_map<std::int32_t, aig::Ref> substitution;
    for (std::size_t pos = order.size(); pos-- > 0;) {
      const std::size_t k = order[pos];
      final_functions[k] = manager.compose(f[k], substitution);
      substitution[ex[k].var] = final_functions[k];
    }
    out.vector.functions = std::move(final_functions);
    return answer(SynthesisStatus::kRealizable);
  };

  // ---- Verify / repair loop (Algorithm 1, lines 9-18) --------------------
  // The incremental pipeline keeps both oracles warm across rounds: the
  // verify solver re-encodes only repaired cones (activation literals
  // retire the stale output equivalences), and the MaxSAT rounds run as
  // activation-scoped Fu-Malik sessions on the φ solver, whose matrix
  // encoding and learnt clauses persist for the whole call.
  if (options.incremental) {
    // Default solver options: the search RNG is reseeded from the round's
    // derived stream before every check(), so a construction seed would
    // never influence a solve.
    verifier.emplace(formula, manager);
  }
  maxsat::IncrementalMaxSat repair_maxsat(phi_solver);

  // Repair of last resort: the decision-list entries prepended from the
  // arbiter expansion, oldest first, and the arbiters whose cubes have
  // been recorded. Entries mention only H_k, so they are always
  // admissible and record no dependency edge.
  std::vector<std::vector<DecisionEntry>> entries(m);
  std::vector<bool> recorded;

  // The RepairHkF repairs applied to each f_k since a refit last replaced
  // it: the direction (true = strengthen) and β's sorted core literals.
  // With Ŷ fixed two repairs can undo each other and cycle, so a repeat
  // is skipped.
  std::vector<std::set<std::pair<bool, std::vector<Lit>>>> applied(m);

  // Cross-round sample reuse, refit side: batch-evaluate live candidates
  // over the packed matrix with the 64-way AIG simulator and refit exactly
  // those that now disagree with the data. Each candidate tracks the row
  // count of its own last fit; once kRefitMinFreshRows rows arrived since
  // then, its error rate over those fresh rows is measured every round
  // (the batch simulation is cheap), and reaching kRefitErrorRate triggers
  // a refit of exactly the drifted candidates.
  // The refreshed candidates re-enter verification unchanged in soundness
  // terms — only a verify-UNSAT certifies the vector.
  //
  // Per-candidate watermark: matrix row count at the candidate's last
  // (re)fit or last clean screen.
  std::vector<std::size_t> last_fit_rows(m, samples.num_samples());
  const auto maybe_refit = [&]() {
    if (!options.sample_reuse) return;
    const std::size_t now = samples.num_samples();
    obs::Span span("refit", "phase", trace_id);
    // Staleness screen. Refits only touch candidates that mis-predict
    // rows appended since their last fit: mismatches on older rows are
    // either inherent (φ has several Y per X, so the matrix is not a
    // function) or the work of UNSAT-core repairs that a routine refit
    // must not throw away.
    std::vector<std::size_t> refit_jobs;
    for (std::size_t i = 0; i < m; ++i) {
      // A screen pass is real work (matrix simulations); keep the PR-3
      // contract that cancellation/timeout is observed with bounded
      // extra work by polling between candidates. Bailing out leaves
      // the watermarks untouched — the loop head reports kTimeout next.
      if (deadline.expired()) return;
      const std::size_t fresh = now - last_fit_rows[i];
      if (fresh < kRefitMinFreshRows) continue;
      const std::vector<std::uint64_t> sim =
          aig::simulate_matrix(manager, f[i], samples);
      const std::size_t mismatches = packed_mismatches_since(
          sim, samples.column(ex[i].var), samples, last_fit_rows[i]);
      if (mismatches == 0) {
        // Clean screen: advance the watermark so the next error rate is
        // measured only over rows this candidate has not yet absorbed.
        last_fit_rows[i] = now;
      } else if (static_cast<double>(mismatches) >=
                 kRefitErrorRate * static_cast<double>(fresh)) {
        refit_jobs.push_back(i);
      }
    }
    if (refit_jobs.empty()) return;
    // Repair recorded dependency edges the pre-committed feature relation
    // knows nothing about (a β may mention any Ŷ member), so a feature
    // that was admissible at the previous fit can be cyclic now. Drop it
    // before fitting — admissibility is monotone (edges only accumulate
    // and every record site is can_use-guarded), so the shrunken set
    // stays correct for every later refit too.
    for (const std::size_t i : refit_jobs) {
      std::size_t keep = 0;
      for (std::size_t t = 0; t < feature_vars[i].size(); ++t) {
        const Var v = feature_vars[i][t];
        if (formula.is_existential(v)) {
          const std::size_t j = formula.existential_index(v);
          if (!dep.depends_on(i, j) && !dep.can_use(i, j)) continue;
        }
        feature_vars[i][keep] = v;
        feature_refs[i][keep] = feature_refs[i][t];
        ++keep;
      }
      feature_vars[i].resize(keep);
      feature_refs[i].resize(keep);
    }
    ++stats.refit_rounds;
    // Adopt with a cycle guard: edges recorded while adopting earlier
    // batch-mates can invalidate a feature this tree was fitted with; a
    // candidate whose support became unrecordable is rejected (the
    // repaired predecessor stays in place — still sound, the verify
    // loop re-examines everything).
    for (const std::size_t i : refit_jobs) {
      const aig::Ref refit_f = fit(i, stats.refit_rounds);
      bool admissible = true;
      for (const std::int32_t id : manager.support(refit_f)) {
        if (!formula.is_existential(static_cast<Var>(id))) continue;
        const std::size_t j = formula.existential_index(static_cast<Var>(id));
        if (!dep.depends_on(i, j) && !dep.can_use(i, j)) {
          admissible = false;
          break;
        }
      }
      if (!admissible) continue;
      // The arbiter entries stay on top of the new tree, the newest one
      // topmost.
      f[i] = decision_list(manager, entries[i], refit_f);
      applied[i].clear();
      ++stats.refit_candidates;
      record_support(i, f[i]);
    }
    // Every screened-and-refitted candidate starts a fresh error window
    // (watermarks advance whether or not the adoption guard kept the new
    // tree — re-refitting an inadmissible candidate on the same rows
    // would just thrash).
    for (const std::size_t i : refit_jobs) last_fit_rows[i] = now;
    refresh_order();
  };

  while (true) {
    if (deadline.expired()) return answer(SynthesisStatus::kTimeout);
    if (stats.counterexamples >= options.max_counterexamples) {
      return answer(SynthesisStatus::kLimit);
    }
    maybe_refit();

    phase_timer.reset();
    // Each round reseeds the verify search from its own derived stream.
    const std::uint64_t round_seed = util::derive_seed(
        options.seed, kVerifySalt, stats.counterexamples + 1);
    sat::Result verify_result;
    std::optional<sat::Solver> oneshot_solver;  // oracle mode: owns δ
    {
      obs::Span span("verify.round", "phase", trace_id);
      if (options.incremental) {
        verifier->solver().reseed(round_seed);
        verify_result = verifier->check(dqbf::HenkinVector{f}, deadline);
      } else {
        const cnf::CnfFormula refutation =
            dqbf::build_refutation_cnf(formula, manager,
                                       dqbf::HenkinVector{f});
        sat::SolverOptions verify_options;
        verify_options.seed = round_seed;
        oneshot_solver.emplace(verify_options);
        if (!oneshot_solver->add_formula(refutation)) {
          verify_result = sat::Result::kUnsat;
        } else {
          verify_result = oneshot_solver->solve({}, deadline);
        }
      }
    }
    stats.verify_seconds += phase_timer.seconds();
    if (verify_result == sat::Result::kUnknown) {
      return answer(SynthesisStatus::kTimeout);
    }
    if (verify_result == sat::Result::kUnsat) return substitute_and_return();

    // δ: counterexample candidate-output assignment. Check whether δ[X]
    // extends to a model of φ at all (Algorithm 1, line 13).
    const cnf::Assignment& delta =
        options.incremental ? verifier->model() : oneshot_solver->model();
    std::vector<Lit> x_assumptions;
    x_assumptions.reserve(formula.universals().size());
    for (const Var x : formula.universals()) {
      x_assumptions.push_back(unit_lit(x, delta.value(x)));
    }
    sat::Result extend_result;
    {
      obs::Span span("extend", "phase", trace_id);
      extend_result = phi_solver.solve(x_assumptions, deadline);
    }
    if (extend_result == sat::Result::kUnknown) {
      return answer(SynthesisStatus::kTimeout);
    }
    if (extend_result == sat::Result::kUnsat) {
      return answer(SynthesisStatus::kUnrealizable);
    }
    const cnf::Assignment pi = phi_solver.model();
    ++stats.counterexamples;
    obs::trace_instant("counterexample", "event", trace_id);
    // π is a full model of φ — fresh training data (reuse).
    if (options.sample_reuse) append_sample(pi);

    // σ = π[X] + π[Y] + δ[Y'] (line 16). The working Y'-values are the
    // current candidate outputs; they are updated as repairs land.
    std::vector<bool> sigma_yp(m);
    for (std::size_t i = 0; i < m; ++i) sigma_yp[i] = delta.value(ex[i].var);

    // ---- RepairHkF (Algorithm 3) ----------------------------------------
    phase_timer.reset();
    // FindCandi: MaxSAT with φ ∧ (X ↔ σ[X]) hard, (Y ↔ σ[Y']) soft.
    ++stats.maxsat_calls;
    maxsat::MaxSatStatus ms_status;
    std::function<bool(std::size_t)> soft_satisfied;
    std::optional<maxsat::MaxSatSolver> oneshot_maxsat;  // oracle mode
    {
      obs::Span span("maxsat.round", "phase", trace_id);
      if (options.incremental) {
        std::vector<Lit> hard_units;
        hard_units.reserve(formula.universals().size());
        for (const Var x : formula.universals()) {
          hard_units.push_back(unit_lit(x, pi.value(x)));
        }
        std::vector<Lit> soft_units;
        soft_units.reserve(m);
        for (std::size_t i = 0; i < m; ++i) {
          soft_units.push_back(unit_lit(ex[i].var, sigma_yp[i]));
        }
        ms_status =
            repair_maxsat.solve_round(hard_units, soft_units, &deadline);
        soft_satisfied = [&](std::size_t i) {
          return repair_maxsat.soft_satisfied(i);
        };
      } else {
        oneshot_maxsat.emplace();
        oneshot_maxsat->add_hard_formula(matrix);
        for (const Var x : formula.universals()) {
          oneshot_maxsat->add_hard({unit_lit(x, pi.value(x))});
        }
        for (std::size_t i = 0; i < m; ++i) {
          oneshot_maxsat->add_soft({unit_lit(ex[i].var, sigma_yp[i])});
        }
        ms_status = oneshot_maxsat->solve(&deadline);
        soft_satisfied = [&](std::size_t i) {
          return oneshot_maxsat->soft_satisfied(i);
        };
      }
    }
    if (ms_status == maxsat::MaxSatStatus::kUnknown) {
      return answer(SynthesisStatus::kTimeout);
    }
    if (ms_status == maxsat::MaxSatStatus::kUnsatisfiableHard) {
      // Cannot happen (π witnesses satisfiability); fail safe.
      return answer(SynthesisStatus::kIncomplete);
    }
    // The MaxSAT-corrected σ is a model of φ ∧ (X ↔ π[X]) closest to the
    // candidate outputs — exactly the data point the learner was missing
    // on this counterexample (reuse).
    if (options.sample_reuse) {
      append_sample(options.incremental ? repair_maxsat.model()
                                        : oneshot_maxsat->model());
    }
    std::deque<std::size_t> queue;
    for (std::size_t i = 0; i < m; ++i) {
      if (!soft_satisfied(i)) queue.push_back(i);
    }

    std::vector<bool> processed(m, false);
    std::size_t repairs_this_cex = 0;
    std::optional<obs::Span> repair_span;
    repair_span.emplace("repair", "phase", trace_id);
    while (!queue.empty()) {
      if (deadline.expired()) return answer(SynthesisStatus::kTimeout);
      if (stats.repair_checks >= options.max_repair_iterations) {
        return answer(SynthesisStatus::kLimit);
      }
      const std::size_t k = queue.front();
      queue.pop_front();
      if (processed[k]) continue;
      processed[k] = true;

      // Ŷ = {y_j : H_j ⊆ H_k, Order(y_j) > Order(y_k)} (line 6). Fixing
      // these lets the core mention admissible Y features (§5's example).
      std::vector<std::size_t> yhat;
      if (options.use_yhat_in_repair) {
        for (std::size_t j = 0; j < m; ++j) {
          if (j != k && formula.deps_subset(j, k) &&
              order_pos[j] > order_pos[k]) {
            yhat.push_back(j);
          }
        }
      }
      std::vector<bool> in_yhat(m, false);
      for (const std::size_t j : yhat) in_yhat[j] = true;

      // G_k = (y_k ↔ σ[y'_k]) ∧ φ ∧ (H_k ↔ σ[H_k]) ∧ (Ŷ ↔ σ[Ŷ]) as
      // assumptions on the persistent φ solver (line 8).
      std::vector<Lit> assumptions;
      assumptions.push_back(unit_lit(ex[k].var, sigma_yp[k]));
      for (const Var x : ex[k].deps) {
        assumptions.push_back(unit_lit(x, pi.value(x)));
      }
      for (const std::size_t j : yhat) {
        assumptions.push_back(unit_lit(ex[j].var, sigma_yp[j]));
      }
      ++stats.repair_checks;
      const sat::Result gk_result = phi_solver.solve(assumptions, deadline);
      if (gk_result == sat::Result::kUnknown) {
        return answer(SynthesisStatus::kTimeout);
      }
      if (gk_result == sat::Result::kUnsat) {
        // Build β from the unit clauses in the UNSAT core (lines 11-12).
        std::vector<Lit> core;
        std::vector<aig::Ref> beta_lits;
        for (const Lit l : phi_solver.core()) {
          if (l.var() == ex[k].var) continue;
          core.push_back(l);
          const aig::Ref in = manager.input(l.var());
          beta_lits.push_back(l.negated() ? aig::ref_not(in) : in);
        }
        if (beta_lits.empty()) {
          // β is empty: the documented repair failure mode (§5); nothing
          // to strengthen or weaken with.
          continue;
        }
        std::sort(core.begin(), core.end());
        if (!applied[k].emplace(sigma_yp[k], std::move(core)).second) {
          // f_k already took this repair: skip it like an empty β.
          ++stats.repeated_repairs;
          continue;
        }
        const aig::Ref beta = manager.and_all(beta_lits);
        // Strengthen or weaken (line 13).
        f[k] = sigma_yp[k] ? manager.and_gate(f[k], aig::ref_not(beta))
                           : manager.or_gate(f[k], beta);
        sigma_yp[k] = !sigma_yp[k];  // output on this counterexample flipped
        ++repairs_this_cex;
        ++stats.repairs;
        record_support(k, beta);
      } else {
        // G_k is SAT: y_k can keep its output; some other candidate must
        // move. Enqueue every y_t whose model value disagrees with its
        // current output (lines 15-17).
        const cnf::Assignment& rho = phi_solver.model();
        // ρ is a full model of φ harvested from the already-hot G_k
        // session — stream it into the training matrix so the next refit
        // sees the repair neighborhood, not just the per-counterexample
        // MaxSAT points.
        if (options.sample_reuse && append_sample(rho)) {
          ++stats.gk_streamed_samples;
        }
        for (std::size_t t = 0; t < m; ++t) {
          if (t == k || in_yhat[t] || processed[t]) continue;
          if (rho.value(ex[t].var) != sigma_yp[t]) queue.push_back(t);
        }
      }
    }
    repair_span.reset();

    // No candidate could be repaired for this counterexample, or every
    // repair found was a repeat: the engine's documented incompleteness
    // (§5). Either way σ[Y'] is still δ[Y']. Repair of last resort:
    // add π[X] to the arbiter expansion. UNSAT proves the DQBF False;
    // otherwise its model patches the candidates through decision-list
    // entries over H_k (Pedant's rule insertion) whose premises
    // generalise the arbiter's cube over the expansion's other arbiters.
    std::size_t patches = 0;
    if (repairs_this_cex == 0) {
      obs::Span span("expansion", "phase", trace_id);
      const std::size_t points_before = expansion.num_points();
      const sat::Result expansion_result = expansion.add_point(pi, deadline);
      stats.arbiter_points += expansion.num_points() - points_before;
      if (expansion_result == sat::Result::kUnknown) {
        return answer(SynthesisStatus::kTimeout);
      }
      if (expansion_result == sat::Result::kUnsat) {
        return answer(SynthesisStatus::kUnrealizable);
      }
      recorded.resize(expansion.num_arbiters(), false);
      const std::vector<std::size_t>& point = expansion.point_arbiters();
      const auto patch = [&](std::size_t id) {
        const std::size_t k = expansion.arbiter(id).existential;
        DecisionEntry entry{expansion.generalize(id), expansion.value(id)};
        f[k] = prepend_entry(manager, entry, f[k]);
        if (std::all_of(entry.premise.begin(), entry.premise.end(),
                        [&](Lit l) { return pi.value(l); })) {
          sigma_yp[k] = entry.value;  // δ lies inside the premise
        }
        entries[k].push_back(std::move(entry));
        ++patches;
      };
      // Cubes recorded earlier whose arbiter changed value (re-patched
      // with a fresh premise), then this point's cubes where the
      // candidate disagrees.
      for (const std::size_t id : expansion.flipped()) {
        if (recorded[id]) patch(id);
      }
      for (std::size_t k = 0; k < m; ++k) {
        if (expansion.value(point[k]) != sigma_yp[k]) patch(point[k]);
        recorded[point[k]] = true;
      }
      stats.arbiter_patches += patches;
    }
    stats.repair_seconds += phase_timer.seconds();
    // Every counterexample moves the candidates: a stalled one leaves
    // σ[Y'] = δ[Y'], which falsifies φ at π[X] while the expansion's model
    // satisfies it, so some arbiter disagrees with a candidate and is
    // patched (see core/manthan3.hpp).
    assert(repairs_this_cex > 0 || patches > 0);
  }

  } catch (const util::OutOfBudgetError&) {
    return answer(SynthesisStatus::kOutOfBudget);
  }
}

}  // namespace

std::string stat_text(const SynthesisStats& stats, const StatField& field) {
  if (field.seconds == nullptr) return std::to_string(stats.*field.integer);
  std::ostringstream out;
  out.precision(17);
  out << stats.*field.seconds;
  return out.str();
}

Manthan3::Manthan3(Manthan3Options options) : options_(options) {}

SynthesisResult Manthan3::synthesize(const dqbf::DqbfFormula& formula,
                                     aig::Aig& manager) {
  util::Timer total_timer;
  const util::Deadline deadline(options_.time_limit_seconds, options_.cancel);
  obs::Span run_span("synthesize", "phase", options_.trace_id);
  SynthesisResult result;
  result.status = run(options_, formula, manager, deadline, result);
  SynthesisStats& stats = result.stats;
  stats.total_seconds = total_timer.seconds();
  // Memory snapshot (process-global values; see the stats doc).
  stats.peak_rss_bytes = obs::peak_rss_bytes();
  stats.aig_nodes = manager.num_nodes();
  stats.aig_bytes = manager.node_bytes();
  publish(stats);
  return result;
}

}  // namespace manthan::core
