#include "core/manthan3.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "aig/aig_sim.hpp"
#include "cnf/sample_matrix.hpp"
#include "core/arbiter.hpp"
#include "core/dependency.hpp"
#include "dqbf/certificate.hpp"
#include "dqbf/fingerprint.hpp"
#include "dqbf/incremental_refutation.hpp"
#include "maxsat/maxsat.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sat/solver.hpp"
#include "util/budget.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/scheduler.hpp"

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
// pass draws a fresh — but worker-invariant — stream per existential.
// Attempt r > 0 of the restart schedule replaces the call seed by
// derive_seed(seed, kRestartSalt, r) in all three of its streams.
constexpr std::uint64_t kLearnSalt = 0x4c4541524eULL;   // "LEARN"
constexpr std::uint64_t kVerifySalt = 0x564552494659ULL;  // "VERIFY"
constexpr std::uint64_t kRestartSalt = 0x52455354415254ULL;  // "RESTART"

// Stopping rules of one attempt. It gives up after kMaxNoProgressRounds
// consecutive counterexamples for which no candidate could be repaired or
// patched from the arbiter expansion, and attempt r restarts once it has
// spent kRestartUnit * luby(r + 1) counterexamples.
constexpr std::size_t kMaxNoProgressRounds = 12;
constexpr std::size_t kRestartUnit = 32;

// Refit trigger of cross-round sample reuse: a candidate's error rate over
// the rows appended since its last fit is measured once at least
// kRefitMinFreshRows of them arrived, and reaching kRefitErrorRate refits it.
constexpr std::size_t kRefitMinFreshRows = 16;
constexpr double kRefitErrorRate = 0.05;

/// The Luby, Sinclair & Zuckerman sequence 1, 1, 2, 1, 1, 2, 4, 1, ...
/// (1-based): the restart schedule that is within a log factor of the
/// optimal one for any run-time distribution of a Las Vegas algorithm.
std::size_t luby(std::size_t i) {
  for (std::size_t k = 1;; ++k) {
    const std::size_t full = (std::size_t{1} << k) - 1;
    if (i == full) return std::size_t{1} << (k - 1);
    if (i < full) return luby(i - (full >> 1));
  }
}

/// Fold one attempt's stats into the call's: additive counters and phase
/// seconds sum; solver sizes, learn_workers and byte snapshots take the
/// max. total_seconds is set once for the whole call by the caller.
void merge_stats(SynthesisStats& into, const SynthesisStats& from) {
  // A new SynthesisStats field must be merged here (sum or max).
  // inprocess_runs is the one exception: it is always 0.
  static_assert(sizeof(SynthesisStats) == 28 * sizeof(std::size_t) +
                                            5 * sizeof(double) +
                                            6 * sizeof(std::uint64_t),
                "merge_stats does not cover every SynthesisStats field");
  const auto sum = [&](auto field) { into.*field += from.*field; };
  const auto max = [&](auto field) {
    into.*field = std::max(into.*field, from.*field);
  };
  sum(&SynthesisStats::samples);
  sum(&SynthesisStats::unique_defined);
  sum(&SynthesisStats::learned_candidates);
  sum(&SynthesisStats::counterexamples);
  sum(&SynthesisStats::repairs);
  sum(&SynthesisStats::repair_checks);
  sum(&SynthesisStats::maxsat_calls);
  sum(&SynthesisStats::restarts);
  sum(&SynthesisStats::arbiter_points);
  sum(&SynthesisStats::arbiter_patches);
  sum(&SynthesisStats::repeated_repairs);
  sum(&SynthesisStats::sampling_seconds);
  sum(&SynthesisStats::learning_seconds);
  sum(&SynthesisStats::verify_seconds);
  sum(&SynthesisStats::repair_seconds);
  max(&SynthesisStats::learn_workers);
  sum(&SynthesisStats::cones_encoded);
  sum(&SynthesisStats::cones_reused);
  sum(&SynthesisStats::aig_nodes_encoded);
  sum(&SynthesisStats::activations_retired);
  max(&SynthesisStats::verify_vars);
  sum(&SynthesisStats::verify_clauses_retired);
  max(&SynthesisStats::phi_vars);
  sum(&SynthesisStats::phi_clauses_retired);
  sum(&SynthesisStats::samples_appended);
  sum(&SynthesisStats::refit_rounds);
  sum(&SynthesisStats::refit_candidates);
  sum(&SynthesisStats::gk_streamed_samples);
  sum(&SynthesisStats::adaptive_refits);
  sum(&SynthesisStats::analysis_unique_hits);
  sum(&SynthesisStats::analysis_dependency_hits);
  max(&SynthesisStats::peak_rss_bytes);
  max(&SynthesisStats::sample_matrix_bytes);
  max(&SynthesisStats::verify_arena_bytes);
  max(&SynthesisStats::phi_arena_bytes);
  max(&SynthesisStats::aig_nodes);
  max(&SynthesisStats::aig_bytes);
}

/// Publish one call's counters into the global registry (core_* series).
/// Instrument references are cached after the first call.
void publish(const SynthesisStats& stats) {
  auto& registry = obs::Registry::global();
  static obs::Counter& runs = registry.counter("core_runs_total");
  static obs::Counter& restarts = registry.counter("core_restarts_total");
  static obs::Counter& cex = registry.counter("core_counterexamples_total");
  static obs::Counter& repairs = registry.counter("core_repairs_total");
  static obs::Counter& arbiter_patches =
      registry.counter("core_arbiter_patches_total");
  static obs::Counter& repeated_repairs =
      registry.counter("core_repeated_repairs_total");
  static obs::Counter& maxsat_calls =
      registry.counter("core_maxsat_calls_total");
  static obs::Counter& refits = registry.counter("core_refit_rounds_total");
  static obs::Counter& streamed =
      registry.counter("core_streamed_samples_total");
  static obs::Counter& adaptive =
      registry.counter("core_adaptive_refits_total");
  static obs::Counter& samples_total = registry.counter("core_samples_total");
  static obs::Histogram& run_seconds =
      registry.histogram("core_synthesize_seconds");
  static obs::Gauge& matrix_peak =
      registry.gauge("core_sample_matrix_peak_bytes");
  static obs::Gauge& aig_peak = registry.gauge("core_aig_peak_bytes");
  runs.inc();
  restarts.add(stats.restarts);
  cex.add(stats.counterexamples);
  repairs.add(stats.repairs);
  arbiter_patches.add(stats.arbiter_patches);
  repeated_repairs.add(stats.repeated_repairs);
  maxsat_calls.add(stats.maxsat_calls);
  refits.add(stats.refit_rounds);
  streamed.add(stats.gk_streamed_samples);
  adaptive.add(stats.adaptive_refits);
  samples_total.add(stats.samples + stats.samples_appended);
  run_seconds.observe(stats.total_seconds);
  matrix_peak.update_max(static_cast<double>(stats.sample_matrix_bytes));
  aig_peak.update_max(static_cast<double>(stats.aig_bytes));
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
    count += static_cast<std::size_t>(__builtin_popcountll(diff));
    ++w;
  }
  for (; w < words; ++w) {
    count += static_cast<std::size_t>(__builtin_popcountll(sim[w] ^ label[w]));
  }
  return count;
}

/// Seed-independent analysis of one synthesize() call, shared by all of
/// its attempts: the dependency ⊆/= relations, the static ordering edges
/// (Algorithm 1, lines 3-5) and the UNIQUE-style definitions.
struct SharedAnalysis {
  const dqbf::DqbfFormula& formula;
  /// Relations answered by the tier-2 cache; null = ask the formula.
  std::shared_ptr<const DependencyRelations> relations;
  /// Static ordering edges only; every attempt learns on a copy.
  DependencyManager static_order;
  /// Extracted definitions, indexed like formula.existentials().
  std::vector<aig::Ref> definitions;
  std::vector<bool> defined;

  bool deps_subset(std::size_t j, std::size_t i) const {
    return relations != nullptr ? relations->is_subset(j, i)
                                : formula.deps_subset(j, i);
  }
  bool deps_equal(std::size_t j, std::size_t i) const {
    return relations != nullptr ? relations->is_equal(j, i)
                                : formula.deps_equal(j, i);
  }
};

SharedAnalysis analyze(const dqbf::DqbfFormula& formula,
                       const Manthan3Options& options, aig::Aig& manager,
                       const util::Deadline& deadline,
                       SynthesisStats& stats) {
  const std::size_t m = formula.existentials().size();
  SharedAnalysis analysis{formula, nullptr, DependencyManager(m),
                          std::vector<aig::Ref>(m, aig::kFalseRef),
                          std::vector<bool>(m, false)};

  // ---- Tier-2 analysis cache lookups ------------------------------------
  // With a cache attached, the spec is canonicalized once and the static
  // analyses are answered from (or stored into) the cache. Cached values
  // equal what the cold computation below produces, so the synthesis
  // trajectory is identical either way.
  std::optional<dqbf::CanonicalForm> canon;
  if (options.analysis_cache != nullptr) {
    canon.emplace(dqbf::canonicalize(formula));
    analysis.relations =
        options.analysis_cache->lookup_dependencies(canon->spec);
    if (analysis.relations != nullptr) {
      ++stats.analysis_dependency_hits;
    } else {
      auto computed = std::make_shared<DependencyRelations>(
          DependencyRelations::compute(formula));
      options.analysis_cache->store_dependencies(canon->spec, computed);
      analysis.relations = std::move(computed);
    }
  }

  // ---- Static ordering constraints (Algorithm 1, lines 3-5) -------------
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      // H_j ⊂ H_i (strict): y_i may come to depend on y_j; pre-commit the
      // ordering edge so learning can never create a cycle.
      if (analysis.deps_subset(j, i) && !analysis.deps_equal(j, i) &&
          analysis.static_order.can_use(i, j)) {
        analysis.static_order.record_use(i, j);
      }
    }
  }

  // ---- UNIQUE-style preprocessing ---------------------------------------
  if (options.use_unique_extraction) {
    obs::Span span("unique_def", "phase", options.trace_id);
    UniqueDefExtractor unique(formula, options.unique);
    for (std::size_t i = 0; i < m; ++i) {
      if (deadline.expired()) break;
      // Padoa check, answered from the tier-2 cache when a prior run
      // already decided this (matrix, y_i, H_i) triple — possibly under a
      // different spec or variable naming. Unknown (deadline) verdicts
      // are neither used nor stored.
      bool defined;
      std::optional<bool> cached;
      if (canon.has_value()) {
        cached =
            options.analysis_cache->lookup_unique(canon->existential_keys[i]);
      }
      if (cached.has_value()) {
        ++stats.analysis_unique_hits;
        defined = *cached;
      } else {
        const UniqueDefExtractor::Defined verdict =
            unique.is_defined(i, &deadline);
        if (verdict == UniqueDefExtractor::Defined::kUnknown) continue;
        defined = verdict == UniqueDefExtractor::Defined::kYes;
        if (canon.has_value()) {
          options.analysis_cache->store_unique(canon->existential_keys[i],
                                               defined);
        }
      }
      if (!defined) continue;
      const std::optional<aig::Ref> def = unique.extract(i, manager);
      if (def.has_value()) {
        analysis.definitions[i] = *def;
        analysis.defined[i] = true;
        ++stats.unique_defined;
      }
    }
  }
  return analysis;
}

/// Everything one synthesize() call hands to its attempts.
struct Call {
  const Manthan3Options& options;
  const dqbf::DqbfFormula& formula;
  aig::Aig& manager;
  const util::Deadline& deadline;
  /// Computed by attempt 0 right after its sampling phase — where the
  /// single-attempt engine ran these analyses — so attempt 0 replays that
  /// engine's trajectory, fault-site polls included.
  std::optional<SharedAnalysis> shared;
  /// X-points of stalled counterexamples. They do not depend on the seed,
  /// so every attempt adds to (and is refuted by) the same expansion.
  ArbiterExpansion expansion;
};

struct AttemptLimits {
  /// Seed of the attempt's sampler, learning and verify streams.
  std::uint64_t seed = 0;
  /// Counterexamples after which the attempt restarts (its Luby cap).
  std::size_t cap = 0;
  /// What is left of the call's counterexample and repair-check budgets.
  std::size_t counterexamples_left = 0;
  std::size_t repair_checks_left = 0;
};

/// How an attempt ended. kAnswer: the call is over with the attempt's
/// status. kGiveUp (the no-progress rule) and kCap (the Luby cap): the
/// call may restart. kBudget: the call's shared budget is spent.
enum class AttemptEnd { kAnswer, kGiveUp, kCap, kBudget };

/// One sample → learn → verify/repair run (Algorithms 1-3) with its own φ
/// solver, verifier, sampler and training matrix. Fills `out` with the
/// attempt's stats and, on kAnswer, its status and Henkin vector.
AttemptEnd run_attempt(Call& call, const AttemptLimits& limits,
                       SynthesisResult& out) {
  const Manthan3Options& options = call.options;
  const dqbf::DqbfFormula& formula = call.formula;
  aig::Aig& manager = call.manager;
  const util::Deadline& deadline = call.deadline;
  // Telemetry only: spans tag every phase of this run with the caller's
  // trace id (the service passes the spec fingerprint). When tracing is
  // off each Span costs one relaxed atomic load.
  const std::uint64_t trace_id = options.trace_id;
  obs::Span attempt_span("attempt", "phase", trace_id);
  SynthesisStats& stats = out.stats;
  const cnf::CnfFormula& matrix = formula.matrix();
  const std::vector<dqbf::Existential>& ex = formula.existentials();
  const std::size_t m = ex.size();

  // Persistent specification solver: extension checks (Algorithm 1,
  // line 13), repair queries G_k (Algorithm 3, line 9), and — in the
  // incremental pipeline — the per-counterexample MaxSAT rounds all run
  // on it with assumptions, sharing one matrix encoding and one learnt
  // clause database across the whole attempt.
  sat::Solver phi_solver;
  // Persistent verification solver (incremental pipeline): constructed
  // once before the verify/repair loop, lives in this scope so end()
  // can snapshot its stats.
  std::optional<dqbf::IncrementalRefutation> verifier;
  // Training matrix; declared before end() so the exit snapshot can
  // report its footprint. Filled by the sampling phase below.
  cnf::SampleMatrix samples;

  const auto end = [&](AttemptEnd how) {
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
    return how;
  };
  const auto answer = [&](SynthesisStatus status) {
    out.status = status;
    return end(AttemptEnd::kAnswer);
  };

  // The whole attempt runs inside one try: an OutOfBudgetError thrown by
  // any instrumented growth site (memory budget exceeded, real or
  // injected allocation failure) unwinds to the catch at the end of this
  // function and degrades into a kOutOfBudget answer carrying the stats
  // accumulated so far — never process death. The body keeps the
  // function's base indentation; the catch is ~600 lines down.
  try {

  if (!phi_solver.add_formula(matrix)) {
    // The matrix is unsatisfiable: no X-assignment extends, so the DQBF
    // is False (unless there are no universals either, still False).
    return answer(SynthesisStatus::kUnrealizable);
  }

  // ---- Data generation (Algorithm 1, line 1) ----------------------------
  util::Timer phase_timer;
  sampler::SamplerOptions sampler_options = options.sampler;
  sampler_options.seed = limits.seed;
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
  // to the matrix (deduped against everything already in it) so refits
  // train on fresh data.
  std::unordered_set<std::uint64_t> sample_fps;
  if (options.sample_reuse) {
    sample_fps.reserve(2 * samples.num_samples());
    for (std::size_t s = 0; s < samples.num_samples(); ++s) {
      sample_fps.insert(samples.row_fingerprint(s));
    }
  }
  const auto append_sample = [&](const cnf::Assignment& a) {
    // Truncate to matrix variables: solver models carry selector and
    // Tseitin variables above the matrix block.
    if (!sample_fps
             .insert(cnf::fingerprint(
                 a, static_cast<std::size_t>(samples.num_vars())))
             .second) {
      return false;
    }
    samples.append(a);
    ++stats.samples_appended;
    return true;
  };

  if (!call.shared.has_value()) {
    call.shared.emplace(analyze(formula, options, manager, deadline, stats));
  }
  const SharedAnalysis& shared = *call.shared;
  DependencyManager dep = shared.static_order;
  std::vector<aig::Ref> f = shared.definitions;
  const std::vector<bool>& fixed = shared.defined;

  // ---- Candidate learning (Algorithm 2) ---------------------------------
  // Feature sets are pre-committed before any fitting so the fits are
  // mutually independent (parallelizable): y_j is an admissible feature
  // of y_i iff H_j ⊂ H_i strictly, or H_j == H_i and j < i. The fixed
  // orientation of equal-dependency pairs keeps the feature relation
  // acyclic without serializing feature selection on the learnt supports
  // (the pre-refactor code admitted whichever direction was fitted
  // first). Fitting itself is pure — rows, labels, and a derive_seed-split
  // DtreeOptions stream per existential — so any worker count produces
  // bit-identical trees; AIG construction and support recording stay
  // serial in index order.
  phase_timer.reset();
  const std::size_t learn_workers =
      std::max<std::size_t>(1, options.learn_workers);
  stats.learn_workers = learn_workers;
  std::vector<std::vector<Var>> feature_vars(m);
  std::vector<std::vector<aig::Ref>> feature_refs(m);
  std::vector<std::size_t> jobs;
  jobs.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    if (fixed[i]) continue;
    feature_vars[i].assign(ex[i].deps.begin(), ex[i].deps.end());
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i || !shared.deps_subset(j, i)) continue;
      const bool strict = !shared.deps_equal(j, i);
      if ((strict || j < i) && dep.can_use(i, j)) {
        feature_vars[i].push_back(ex[j].var);
      }
    }
    feature_refs[i].reserve(feature_vars[i].size());
    for (const Var v : feature_vars[i]) {
      feature_refs[i].push_back(manager.input(v));
    }
    jobs.push_back(i);
  }

  const auto fit_one = [&](std::size_t i, std::uint64_t generation) {
    dtree::DtreeOptions dt = options.dtree;
    dt.seed = util::derive_seed(limits.seed, kLearnSalt + generation, i);
    if (options.packed_learning) {
      // Popcount path: split statistics straight off the packed columns.
      return dtree::DecisionTree::fit(samples, feature_vars[i], ex[i].var,
                                      dt);
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
    return dtree::DecisionTree::fit(rows, labels, dt);
  };

  std::vector<dtree::DecisionTree> trees(m);
  // One pool for the initial fit and every refit round (created lazily:
  // serial runs and single-job batches never spawn threads). The pool
  // class lives in util precisely so this layer can use it; the engine
  // module (which links against core) re-exports it as engine::Scheduler
  // for the portfolio-facing clients.
  std::optional<util::Scheduler> learn_pool;
  const auto run_fits = [&](const std::vector<std::size_t>& fit_jobs,
                            std::uint64_t generation) {
    if (learn_workers > 1 && fit_jobs.size() > 1) {
      if (!learn_pool.has_value()) learn_pool.emplace(learn_workers);
      std::vector<std::future<dtree::DecisionTree>> futures;
      futures.reserve(fit_jobs.size());
      // The request budget is thread-local; re-install it inside each
      // worker closure so fits charge the same budget as the main thread
      // (an OutOfBudgetError rethrows from the future below).
      util::ResourceBudget* budget = util::current_budget();
      for (const std::size_t i : fit_jobs) {
        futures.push_back(
            learn_pool->submit([&fit_one, i, generation, budget]() {
              util::BudgetScope scope(budget);
              return fit_one(i, generation);
            }));
      }
      for (std::size_t k = 0; k < fit_jobs.size(); ++k) {
        trees[fit_jobs[k]] = futures[k].get();
      }
    } else {
      for (const std::size_t i : fit_jobs) trees[i] = fit_one(i, generation);
    }
  };

  // Extract the fitted trees to AIG candidates and record the existential
  // features they actually use (Algorithm 2, lines 11-12). Serial, in
  // index order — worker counts never influence the AIG or the
  // dependency state.
  const auto adopt_trees = [&](const std::vector<std::size_t>& fit_jobs) {
    for (const std::size_t i : fit_jobs) {
      f[i] = trees[i].to_aig(manager, feature_refs[i]);
      for (const std::int32_t id : manager.support(f[i])) {
        if (!formula.is_existential(static_cast<Var>(id))) continue;
        const std::size_t j = formula.existential_index(static_cast<Var>(id));
        if (dep.can_use(i, j) && !dep.depends_on(i, j)) dep.record_use(i, j);
      }
    }
  };

  {
    obs::Span span("learn", "phase", trace_id);
    run_fits(jobs, 0);
    adopt_trees(jobs);
  }
  stats.learned_candidates = jobs.size();
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
  // encoding and learnt clauses persist for the whole attempt.
  if (options.incremental) {
    // Default solver options: the search RNG is reseeded from the round's
    // derived stream before every check(), so a construction seed would
    // never influence a solve.
    verifier.emplace(formula, manager);
  }
  maxsat::IncrementalMaxSat repair_maxsat(phi_solver);

  // Repair of last resort: the decision-list entries this attempt
  // prepended from the arbiter expansion, oldest first, and the arbiters
  // whose cubes it has recorded. Entries mention only H_k, so they are
  // always admissible and record no dependency edge.
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
  // a refit of exactly the drifted candidates. A no-progress round forces
  // a screen of the whole matrix instead.
  // The refreshed candidates re-enter verification unchanged in soundness
  // terms — only a verify-UNSAT certifies the vector.
  //
  // Matrix row count at the last forced screen.
  std::size_t last_fit_samples = samples.num_samples();
  // Per-candidate watermark: matrix row count at the candidate's last
  // (re)fit or last clean screen.
  std::vector<std::size_t> last_fit_rows(m, samples.num_samples());
  const auto maybe_refit = [&](bool force) {
    if (!options.sample_reuse) return;
    const std::size_t now = samples.num_samples();
    // A stuck round refits on whatever arrived since the last forced
    // screen, but only if something did.
    if (force && now == last_fit_samples) return;
    obs::Span span("refit", "phase", trace_id);
    // Staleness screen. Periodic refits only touch candidates that
    // mis-predict rows appended since their last fit: mismatches on older
    // rows are either inherent (φ has several Y per X, so the matrix is
    // not a function) or the work of UNSAT-core repairs that a routine
    // refit must not throw away. A no-progress round inverts the calculus
    // — repair is stuck by definition, so there the screen widens to the
    // whole matrix and disagreeing candidates are relearned outright (the
    // escape hatch that converts budget-exhausting families into
    // certified ones; see bench/micro_core BM_ReuseRefit*).
    std::vector<std::size_t> refit_jobs;
    if (!force) {
      for (const std::size_t i : jobs) {
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
    } else {
      for (const std::size_t i : jobs) {
        if (deadline.expired()) return;
        const std::vector<std::uint64_t> sim =
            aig::simulate_matrix(manager, f[i], samples);
        if (packed_mismatches_since(sim, samples.column(ex[i].var), samples,
                                    0) != 0) {
          refit_jobs.push_back(i);
        }
      }
      last_fit_samples = now;
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
    if (!force) ++stats.adaptive_refits;
    run_fits(refit_jobs, stats.refit_rounds);
    // Adopt with a cycle guard: edges recorded while adopting earlier
    // batch-mates can invalidate a feature this tree was fitted with; a
    // candidate whose support became unrecordable is rejected (the
    // repaired predecessor stays in place — still sound, the verify
    // loop re-examines everything).
    for (const std::size_t i : refit_jobs) {
      const aig::Ref refit_f = trees[i].to_aig(manager, feature_refs[i]);
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
      // The attempt's arbiter entries stay on top of the new tree, the
      // newest one topmost.
      f[i] = decision_list(manager, entries[i], refit_f);
      applied[i].clear();
      ++stats.refit_candidates;
      for (const std::int32_t id : manager.support(f[i])) {
        if (!formula.is_existential(static_cast<Var>(id))) continue;
        const std::size_t j = formula.existential_index(static_cast<Var>(id));
        if (dep.can_use(i, j) && !dep.depends_on(i, j)) dep.record_use(i, j);
      }
    }
    // Every screened-and-refitted candidate starts a fresh error window
    // (watermarks advance whether or not the adoption guard kept the new
    // tree — re-refitting an inadmissible candidate on the same rows
    // would just thrash).
    for (const std::size_t i : refit_jobs) last_fit_rows[i] = now;
    refresh_order();
  };

  // Consecutive counterexamples for which no candidate could be repaired;
  // a fresh verification round may produce a different (repairable)
  // counterexample, so the attempt only gives up after several fruitless
  // rounds in a row.
  std::size_t no_progress_rounds = 0;
  while (true) {
    if (deadline.expired()) return answer(SynthesisStatus::kTimeout);
    if (stats.counterexamples >= limits.counterexamples_left) {
      return end(AttemptEnd::kBudget);
    }
    if (stats.counterexamples >= limits.cap) return end(AttemptEnd::kCap);
    maybe_refit(/*force=*/false);

    phase_timer.reset();
    // Vary the search seed per round so a stuck repair sees a different
    // counterexample next time instead of the same one forever.
    const std::uint64_t round_seed = util::derive_seed(
        limits.seed, kVerifySalt, stats.counterexamples + 1);
    const double round_branch_freq = no_progress_rounds > 0 ? 0.1 : 0.0;
    const bool round_random_polarity = no_progress_rounds > 0;
    sat::Result verify_result;
    std::optional<sat::Solver> oneshot_solver;  // oracle mode: owns δ
    {
      obs::Span span("verify.round", "phase", trace_id);
      if (options.incremental) {
        sat::Solver& verify_solver = verifier->solver();
        verify_solver.reseed(round_seed);
        verify_solver.options().random_branch_freq = round_branch_freq;
        verify_solver.options().random_polarity = round_random_polarity;
        verify_result = verifier->check(dqbf::HenkinVector{f}, deadline);
      } else {
        const cnf::CnfFormula refutation =
            dqbf::build_refutation_cnf(formula, manager,
                                       dqbf::HenkinVector{f});
        sat::SolverOptions verify_options;
        verify_options.seed = round_seed;
        verify_options.random_branch_freq = round_branch_freq;
        verify_options.random_polarity = round_random_polarity;
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
      if (stats.repair_checks >= limits.repair_checks_left) {
        return end(AttemptEnd::kBudget);
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
        for (const std::int32_t id : manager.support(beta)) {
          if (!formula.is_existential(static_cast<Var>(id))) continue;
          const std::size_t j =
              formula.existential_index(static_cast<Var>(id));
          if (dep.can_use(k, j) && !dep.depends_on(k, j)) {
            dep.record_use(k, j);
          }
        }
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
      ArbiterExpansion& expansion = call.expansion;
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
      // Cubes recorded earlier in this attempt whose arbiter changed
      // value (re-patched with a fresh premise), then this point's cubes
      // where the candidate disagrees.
      for (const std::size_t id : expansion.flipped()) {
        if (recorded[id]) patch(id);
      }
      for (std::size_t k = 0; k < m; ++k) {
        if (fixed[k]) continue;
        if (expansion.value(point[k]) != sigma_yp[k]) patch(point[k]);
        recorded[point[k]] = true;
      }
      stats.arbiter_patches += patches;
    }
    stats.repair_seconds += phase_timer.seconds();
    if (repairs_this_cex > 0 || patches > 0) {
      no_progress_rounds = 0;
      continue;
    }
    // Nothing to patch: refit from whatever counterexample data
    // accumulated — a relearned candidate often escapes where
    // core-guided patching is stuck — then retry a few rounds with
    // randomized verification in case another counterexample is
    // repairable, and only then give up.
    maybe_refit(/*force=*/true);
    if (++no_progress_rounds >= kMaxNoProgressRounds) {
      return end(AttemptEnd::kGiveUp);
    }
  }

  } catch (const util::OutOfBudgetError&) {
    return answer(SynthesisStatus::kOutOfBudget);
  }
}

}  // namespace

Manthan3::Manthan3(Manthan3Options options) : options_(options) {}

SynthesisResult Manthan3::synthesize(const dqbf::DqbfFormula& formula,
                                     aig::Aig& manager) {
  util::Timer total_timer;
  const util::Deadline deadline(options_.time_limit_seconds, options_.cancel);
  obs::Span run_span("synthesize", "phase", options_.trace_id);
  Call call{options_, formula, manager, deadline, std::nullopt,
            ArbiterExpansion(formula)};
  SynthesisResult result;
  SynthesisStats& stats = result.stats;

  // Restart schedule: attempt r runs with a fresh seed stream until it
  // answers, gives up, or spends its Luby cap, all within the call's one
  // deadline and shared counterexample / repair-check budgets. Attempt 0
  // keeps the call seed, so a run that answers within the first cap is
  // exactly the single-attempt engine.
  bool any_capped = false;  // some attempt spent its whole Luby cap
  bool any_gave_up = false;
  for (std::size_t r = 0;; ++r) {
    AttemptLimits limits;
    limits.seed = r == 0 ? options_.seed
                         : util::derive_seed(options_.seed, kRestartSalt, r);
    limits.cap = kRestartUnit * luby(r + 1);
    limits.counterexamples_left =
        options_.max_counterexamples - stats.counterexamples;
    limits.repair_checks_left =
        options_.max_repair_iterations - stats.repair_checks;
    SynthesisResult attempt;
    const AttemptEnd how = run_attempt(call, limits, attempt);
    merge_stats(stats, attempt.stats);
    if (how == AttemptEnd::kAnswer) {
      result.status = attempt.status;
      result.vector = std::move(attempt.vector);
      break;
    }
    any_capped |= how == AttemptEnd::kCap;
    any_gave_up |= how == AttemptEnd::kGiveUp;
    if (how == AttemptEnd::kBudget ||
        stats.counterexamples >= options_.max_counterexamples ||
        stats.repair_checks >= options_.max_repair_iterations) {
      // Budget spent: incomplete when every attempt that ran to its own
      // end gave up (the last one may have been cut by the budget), an
      // iteration limit otherwise.
      result.status = any_gave_up && !any_capped
                          ? SynthesisStatus::kIncomplete
                          : SynthesisStatus::kLimit;
      break;
    }
    if (deadline.expired()) {
      result.status = SynthesisStatus::kTimeout;
      break;
    }
    ++stats.restarts;
  }

  stats.total_seconds = total_timer.seconds();
  // Memory snapshot (process-global values; see the stats doc).
  stats.peak_rss_bytes = obs::peak_rss_bytes();
  stats.aig_nodes = manager.num_nodes();
  stats.aig_bytes = manager.node_bytes();
  publish(stats);
  return result;
}

}  // namespace manthan::core
