#include "core/manthan3.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <deque>
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

/// One synthesize() call: the state of the sample → learn → verify/repair
/// loop (Algorithms 1-3) and one method per step of it. A step that
/// answers the call returns its status; std::nullopt means go on.
class Run {
 public:
  Run(const Manthan3Options& options, const dqbf::DqbfFormula& formula,
      aig::Aig& manager, const util::Deadline& deadline, SynthesisResult& out)
      : options_(options),
        formula_(formula),
        manager_(manager),
        deadline_(deadline),
        out_(out),
        stats_(out.stats),
        ex_(formula.existentials()),
        m_(ex_.size()),
        expansion_(formula),
        repair_maxsat_(phi_solver_),
        dep_(static_order(formula)),
        f_(m_),
        feature_vars_(m_),
        feature_refs_(m_),
        order_pos_(m_, 0),
        entries_(m_),
        applied_(m_),
        sigma_yp_(m_) {}
  // repair_maxsat_ holds the address of phi_solver_.
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// Algorithm 1: sample, learn a candidate for every existential, then
  /// verify and repair until the call answers.
  SynthesisStatus synthesize();

  /// Set the call's status and snapshot the solvers' and the training
  /// matrix's stats into the result.
  void answer(SynthesisStatus status);

 private:
  using Step = std::optional<SynthesisStatus>;

  Step sample();
  void learn();
  aig::Ref fit(std::size_t i, std::uint64_t generation);
  void record_support(std::size_t k, aig::Ref ref);
  void find_order();
  void maybe_refit();
  void drop_cyclic_features(std::size_t i);
  bool admissible(std::size_t i, Var v) const;
  sat::Result verify();
  Step extend();
  Step find_candi();
  Step repair();
  sat::Result repair_hkf(std::size_t k, std::deque<std::size_t>& queue,
                         const std::vector<bool>& processed);
  Step expand_and_patch();
  SynthesisStatus substitute();
  bool append_sample(const cnf::Assignment& a);

  const Manthan3Options& options_;
  const dqbf::DqbfFormula& formula_;
  aig::Aig& manager_;
  const util::Deadline& deadline_;
  SynthesisResult& out_;
  SynthesisStats& stats_;
  const std::vector<dqbf::Existential>& ex_;
  const std::size_t m_;
  util::Timer phase_timer_;

  // Persistent specification solver: extension checks (Algorithm 1,
  // line 13), repair queries G_k (Algorithm 3, line 9) and the
  // per-counterexample MaxSAT rounds all run on it with assumptions,
  // sharing one matrix encoding and one learnt clause database across the
  // whole call.
  sat::Solver phi_solver_;
  // Persistent verification solver: constructed after learning, so a run
  // that answers before it (unsatisfiable matrix, no sample) has none. It
  // re-encodes only repaired cones; activation literals retire the stale
  // output equivalences.
  std::optional<dqbf::IncrementalRefutation> verifier_;
  // Training matrix: the sampled models of φ plus, appended by
  // append_sample(), the counterexample-derived ones.
  cnf::SampleMatrix samples_;
  // X-points of stalled counterexamples (the repair of last resort).
  ArbiterExpansion expansion_;
  // FindCandi: activation-scoped Fu-Malik sessions on the φ solver.
  maxsat::IncrementalMaxSat repair_maxsat_;
  DependencyManager dep_;
  // The candidates f_k, indexed like ex_; learn() fills every one.
  std::vector<aig::Ref> f_;
  // Admissible features of each y_i, as matrix variables and AIG inputs.
  std::vector<std::vector<Var>> feature_vars_;
  std::vector<std::vector<aig::Ref>> feature_refs_;
  // FindOrder (Algorithm 1, line 8) and each existential's position in it.
  std::vector<std::size_t> order_;
  std::vector<std::size_t> order_pos_;
  // Repair of last resort: the decision-list entries prepended from the
  // arbiter expansion, oldest first, and the arbiters whose cubes have
  // been recorded. Entries mention only H_k, so they are always
  // admissible and record no dependency edge.
  std::vector<std::vector<DecisionEntry>> entries_;
  std::vector<bool> recorded_;
  // The RepairHkF repairs applied to each f_k since a refit last replaced
  // it: the direction (true = strengthen) and β's sorted core literals.
  // With Ŷ fixed two repairs can undo each other and cycle, so a repeat
  // is skipped.
  std::vector<std::set<std::pair<bool, std::vector<Lit>>>> applied_;
  // Refit watermark per candidate: matrix row count at its last (re)fit
  // or last clean screen.
  std::vector<std::size_t> last_fit_rows_;
  // The current counterexample: π extends δ[X] to a model of φ, and
  // σ[Y'] holds the candidate outputs at π[X], updated as repairs land.
  cnf::Assignment pi_;
  std::vector<bool> sigma_yp_;
};

SynthesisStatus Run::synthesize() {
  if (!phi_solver_.add_formula(formula_.matrix())) {
    // The matrix is unsatisfiable: no X-assignment extends, so the DQBF
    // is False (unless there are no universals either, still False).
    return SynthesisStatus::kUnrealizable;
  }
  if (const Step status = sample()) return *status;
  learn();
  find_order();
  // Default solver options: verify() reseeds the search RNG from the
  // round's derived stream before every check, so a construction seed
  // would never influence a solve.
  verifier_.emplace(formula_, manager_);
  last_fit_rows_.assign(m_, samples_.num_samples());

  // Verify / repair loop (Algorithm 1, lines 9-18).
  while (true) {
    if (deadline_.expired()) return SynthesisStatus::kTimeout;
    if (stats_.counterexamples >= options_.max_counterexamples) {
      return SynthesisStatus::kLimit;
    }
    maybe_refit();
    const sat::Result verdict = verify();
    if (verdict == sat::Result::kUnknown) return SynthesisStatus::kTimeout;
    if (verdict == sat::Result::kUnsat) return substitute();
    if (const Step status = extend()) return *status;

    phase_timer_.reset();
    if (const Step status = find_candi()) return *status;
    const std::size_t repairs_before = stats_.repairs;
    [[maybe_unused]] const std::size_t patches_before =
        stats_.arbiter_patches;
    if (const Step status = repair()) return *status;
    // No candidate could be repaired for this counterexample, or every
    // repair found was a repeat: the engine's documented incompleteness
    // (§5). Either way σ[Y'] is still δ[Y'].
    if (stats_.repairs == repairs_before) {
      if (const Step status = expand_and_patch()) return *status;
    }
    stats_.repair_seconds += phase_timer_.seconds();
    // Every counterexample moves the candidates: a stalled one leaves
    // σ[Y'] = δ[Y'], which falsifies φ at π[X] while the expansion's model
    // satisfies it, so some arbiter disagrees with a candidate and is
    // patched (see core/manthan3.hpp).
    assert(stats_.repairs > repairs_before ||
           stats_.arbiter_patches > patches_before);
  }
}

void Run::answer(SynthesisStatus status) {
  out_.status = status;
  const sat::SolverStats& phi_stats = phi_solver_.stats();
  stats_.phi_vars = static_cast<std::size_t>(phi_stats.vars_allocated);
  stats_.phi_clauses_retired =
      static_cast<std::size_t>(phi_stats.retired_clauses);
  stats_.activations_retired =
      static_cast<std::size_t>(phi_stats.retired_activations);
  if (verifier_.has_value()) {
    const dqbf::IncrementalRefutation::Stats& vstats = verifier_->stats();
    stats_.cones_encoded = static_cast<std::size_t>(vstats.cones_encoded);
    stats_.cones_reused = static_cast<std::size_t>(vstats.cones_reused);
    stats_.aig_nodes_encoded =
        static_cast<std::size_t>(vstats.aig_nodes_encoded);
    stats_.activations_retired +=
        static_cast<std::size_t>(vstats.activations_retired);
    const sat::SolverStats& vs = verifier_->solver().stats();
    stats_.verify_vars = static_cast<std::size_t>(vs.vars_allocated);
    stats_.verify_clauses_retired =
        static_cast<std::size_t>(vs.retired_clauses);
    stats_.verify_arena_bytes = vs.arena_bytes;
  }
  stats_.sample_matrix_bytes = samples_.bytes();
  stats_.phi_arena_bytes = phi_stats.arena_bytes;
}

/// GetSamples (Algorithm 1, line 1). When the sampler returns nothing
/// (the deadline hit before the first model), one φ model stands in.
Run::Step Run::sample() {
  phase_timer_.reset();
  sampler::SamplerOptions sampler_options = options_.sampler;
  sampler_options.seed = options_.seed;
  sampler::Sampler sampler(sampler_options);
  std::vector<Var> y_vars;
  y_vars.reserve(m_);
  for (const dqbf::Existential& e : ex_) y_vars.push_back(e.var);
  {
    obs::Span span("sample", "phase", options_.trace_id);
    samples_ = sampler.sample_packed(formula_.matrix(), y_vars, &deadline_);
  }
  stats_.sampling_seconds = phase_timer_.seconds();
  stats_.samples = samples_.num_samples();
  if (!samples_.empty()) return std::nullopt;
  const sat::Result r = phi_solver_.solve({}, deadline_);
  if (r == sat::Result::kUnsat) return SynthesisStatus::kUnrealizable;
  if (r == sat::Result::kUnknown) return SynthesisStatus::kTimeout;
  samples_.append(phi_solver_.model());
  stats_.samples = 1;
  return std::nullopt;
}

/// CandidateHkF (Algorithm 2). Feature sets are pre-committed before any
/// fitting: y_j is an admissible feature of y_i iff H_j ⊂ H_i strictly, or
/// H_j == H_i and j < i. The fixed orientation of equal-dependency pairs
/// keeps the feature relation acyclic without making feature selection
/// depend on the learnt supports.
void Run::learn() {
  phase_timer_.reset();
  for (std::size_t i = 0; i < m_; ++i) {
    feature_vars_[i].assign(ex_[i].deps.begin(), ex_[i].deps.end());
    for (std::size_t j = 0; j < m_; ++j) {
      if (j == i || !formula_.deps_subset(j, i)) continue;
      const bool strict = !formula_.deps_equal(j, i);
      if ((strict || j < i) && dep_.can_use(i, j)) {
        feature_vars_[i].push_back(ex_[j].var);
      }
    }
    feature_refs_[i].reserve(feature_vars_[i].size());
    for (const Var v : feature_vars_[i]) {
      feature_refs_[i].push_back(manager_.input(v));
    }
  }
  {
    obs::Span span("learn", "phase", options_.trace_id);
    for (std::size_t i = 0; i < m_; ++i) {
      f_[i] = fit(i, 0);
      record_support(i, f_[i]);
    }
  }
  stats_.learned_candidates = m_;
  stats_.learning_seconds = phase_timer_.seconds();
}

/// Fit y_i's tree on the current matrix (popcount split statistics
/// straight off the packed columns) and extract it to an AIG over its
/// features. Fitting is pure: the matrix, plus a derive_seed-split
/// DtreeOptions stream per existential and refit generation.
aig::Ref Run::fit(std::size_t i, std::uint64_t generation) {
  dtree::DtreeOptions dt = options_.dtree;
  dt.seed = util::derive_seed(options_.seed, kLearnSalt + generation, i);
  return dtree::DecisionTree::fit(samples_, feature_vars_[i], ex_[i].var, dt)
      .to_aig(manager_, feature_refs_[i]);
}

/// Record the existential features that `ref` (now part of f_k) uses
/// (Algorithm 2, lines 11-12).
void Run::record_support(std::size_t k, aig::Ref ref) {
  for (const std::int32_t id : manager_.support(ref)) {
    if (!formula_.is_existential(static_cast<Var>(id))) continue;
    const std::size_t j = formula_.existential_index(static_cast<Var>(id));
    if (dep_.can_use(k, j) && !dep_.depends_on(k, j)) dep_.record_use(k, j);
  }
}

/// FindOrder (Algorithm 1, line 8).
void Run::find_order() {
  order_ = dep_.find_order();
  for (std::size_t pos = 0; pos < order_.size(); ++pos) {
    order_pos_[order_[pos]] = pos;
  }
}

/// Cross-round sample reuse, refit side: batch-evaluate live candidates
/// over the packed matrix with the 64-way AIG simulator and refit exactly
/// those that now disagree with the data. Once kRefitMinFreshRows rows
/// arrived since a candidate's watermark, its error rate over those fresh
/// rows is measured every round (the batch simulation is cheap), and
/// reaching kRefitErrorRate refits it. The refreshed candidates re-enter
/// verification unchanged in soundness terms: only a verify-UNSAT
/// certifies the vector.
void Run::maybe_refit() {
  const std::size_t now = samples_.num_samples();
  obs::Span span("refit", "phase", options_.trace_id);
  // Staleness screen. Refits only touch candidates that mis-predict rows
  // appended since their last fit: mismatches on older rows are either
  // inherent (φ has several Y per X, so the matrix is not a function) or
  // the work of UNSAT-core repairs that a routine refit must not throw
  // away.
  std::vector<std::size_t> refit_jobs;
  for (std::size_t i = 0; i < m_; ++i) {
    // A screen pass is real work (matrix simulations), so cancellation is
    // polled between candidates. Bailing out leaves the watermarks
    // untouched; the loop head reports kTimeout next.
    if (deadline_.expired()) return;
    const std::size_t fresh = now - last_fit_rows_[i];
    if (fresh < kRefitMinFreshRows) continue;
    const std::vector<std::uint64_t> sim =
        aig::simulate_matrix(manager_, f_[i], samples_);
    const std::size_t mismatches = packed_mismatches_since(
        sim, samples_.column(ex_[i].var), samples_, last_fit_rows_[i]);
    if (mismatches == 0) {
      // Clean screen: advance the watermark so the next error rate is
      // measured only over rows this candidate has not yet absorbed.
      last_fit_rows_[i] = now;
    } else if (static_cast<double>(mismatches) >=
               kRefitErrorRate * static_cast<double>(fresh)) {
      refit_jobs.push_back(i);
    }
  }
  if (refit_jobs.empty()) return;
  for (const std::size_t i : refit_jobs) drop_cyclic_features(i);
  ++stats_.refit_rounds;
  // Adopt with a cycle guard: edges recorded while adopting earlier
  // batch-mates can invalidate a feature this tree was fitted with; a
  // candidate whose support became unrecordable is rejected (the repaired
  // predecessor stays in place — still sound, the verify loop
  // re-examines everything).
  for (const std::size_t i : refit_jobs) {
    const aig::Ref refit_f = fit(i, stats_.refit_rounds);
    const std::vector<std::int32_t> support = manager_.support(refit_f);
    if (!std::all_of(support.begin(), support.end(), [&](std::int32_t id) {
          return admissible(i, static_cast<Var>(id));
        })) {
      continue;
    }
    // The arbiter entries stay on top of the new tree, the newest one
    // topmost.
    f_[i] = decision_list(manager_, entries_[i], refit_f);
    applied_[i].clear();
    ++stats_.refit_candidates;
    record_support(i, f_[i]);
  }
  // Every screened-and-refitted candidate starts a fresh error window
  // (watermarks advance whether or not the adoption guard kept the new
  // tree — re-refitting an inadmissible candidate on the same rows would
  // just thrash).
  for (const std::size_t i : refit_jobs) last_fit_rows_[i] = now;
  find_order();
}

/// Repair recorded dependency edges the pre-committed feature relation
/// knows nothing about (a β may mention any Ŷ member), so a feature of y_i
/// that was admissible at its previous fit can be cyclic now. Drop it
/// before refitting: admissibility is monotone (edges only accumulate and
/// every record site is can_use-guarded), so the shrunken set stays
/// correct for every later refit too.
void Run::drop_cyclic_features(std::size_t i) {
  std::size_t keep = 0;
  for (std::size_t t = 0; t < feature_vars_[i].size(); ++t) {
    const Var v = feature_vars_[i][t];
    if (!admissible(i, v)) continue;
    feature_vars_[i][keep] = v;
    feature_refs_[i][keep] = feature_refs_[i][t];
    ++keep;
  }
  feature_vars_[i].resize(keep);
  feature_refs_[i].resize(keep);
}

/// Whether f_i may read variable v: a universal, or an existential y_j that
/// y_i already depends on or can still come to depend on without a cycle.
bool Run::admissible(std::size_t i, Var v) const {
  if (!formula_.is_existential(v)) return true;
  const std::size_t j = formula_.existential_index(v);
  return dep_.depends_on(i, j) || dep_.can_use(i, j);
}

/// Verification (Algorithm 1): a SAT check of
/// E(X, Y') = ¬φ(X, Y') ∧ (Y' ↔ f) on the persistent verify solver. SAT
/// leaves the counterexample δ in the verifier's model.
sat::Result Run::verify() {
  phase_timer_.reset();
  obs::Span span("verify.round", "phase", options_.trace_id);
  // Each round reseeds the verify search from its own derived stream.
  verifier_->solver().reseed(util::derive_seed(
      options_.seed, kVerifySalt, stats_.counterexamples + 1));
  const sat::Result result =
      verifier_->check(dqbf::HenkinVector{f_}, deadline_);
  stats_.verify_seconds += phase_timer_.seconds();
  return result;
}

/// Check whether δ[X] extends to a model π of φ (Algorithm 1, line 13; if
/// not, the DQBF is False), then set σ = π[X] + π[Y] + δ[Y'] (line 16).
Run::Step Run::extend() {
  const cnf::Assignment& delta = verifier_->model();
  std::vector<Lit> x_assumptions;
  x_assumptions.reserve(formula_.universals().size());
  for (const Var x : formula_.universals()) {
    x_assumptions.push_back(unit_lit(x, delta.value(x)));
  }
  sat::Result result = sat::Result::kUnknown;
  {
    obs::Span span("extend", "phase", options_.trace_id);
    result = phi_solver_.solve(x_assumptions, deadline_);
  }
  if (result == sat::Result::kUnknown) return SynthesisStatus::kTimeout;
  if (result == sat::Result::kUnsat) return SynthesisStatus::kUnrealizable;
  pi_ = phi_solver_.model();
  ++stats_.counterexamples;
  obs::trace_instant("counterexample", "event", options_.trace_id);
  // π is a full model of φ: fresh training data.
  append_sample(pi_);
  for (std::size_t i = 0; i < m_; ++i) {
    sigma_yp_[i] = delta.value(ex_[i].var);
  }
  return std::nullopt;
}

/// FindCandi (Algorithm 3): MaxSAT with φ ∧ (X ↔ π[X]) hard and
/// (Y ↔ σ[Y']) soft. The candidates whose soft literal the optimum
/// falsifies start the repair queue.
Run::Step Run::find_candi() {
  ++stats_.maxsat_calls;
  std::vector<Lit> hard_units;
  hard_units.reserve(formula_.universals().size());
  for (const Var x : formula_.universals()) {
    hard_units.push_back(unit_lit(x, pi_.value(x)));
  }
  std::vector<Lit> soft_units;
  soft_units.reserve(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    soft_units.push_back(unit_lit(ex_[i].var, sigma_yp_[i]));
  }
  maxsat::MaxSatStatus status = maxsat::MaxSatStatus::kUnknown;
  {
    obs::Span span("maxsat.round", "phase", options_.trace_id);
    status = repair_maxsat_.solve_round(hard_units, soft_units, &deadline_);
  }
  if (status == maxsat::MaxSatStatus::kUnknown) {
    return SynthesisStatus::kTimeout;
  }
  if (status == maxsat::MaxSatStatus::kUnsatisfiableHard) {
    // Cannot happen (π witnesses satisfiability); fail safe.
    return SynthesisStatus::kIncomplete;
  }
  // The MaxSAT-corrected σ is a model of φ ∧ (X ↔ π[X]) closest to the
  // candidate outputs: exactly the data point the learner was missing on
  // this counterexample.
  append_sample(repair_maxsat_.model());
  return std::nullopt;
}

/// RepairHkF over the queue (Algorithm 3): the candidates
/// FindCandi selected, plus those each SAT G_k query enqueues.
Run::Step Run::repair() {
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < m_; ++i) {
    if (!repair_maxsat_.soft_satisfied(i)) queue.push_back(i);
  }
  std::vector<bool> processed(m_, false);
  obs::Span span("repair", "phase", options_.trace_id);
  while (!queue.empty()) {
    if (deadline_.expired()) return SynthesisStatus::kTimeout;
    if (stats_.repair_checks >= options_.max_repair_iterations) {
      return SynthesisStatus::kLimit;
    }
    const std::size_t k = queue.front();
    queue.pop_front();
    if (processed[k]) continue;
    processed[k] = true;
    if (repair_hkf(k, queue, processed) == sat::Result::kUnknown) {
      return SynthesisStatus::kTimeout;
    }
  }
  return std::nullopt;
}

/// One G_k query for y_k (Algorithm 3, lines 6-17). UNSAT: strengthen or
/// weaken f_k by β, built from the unit literals of the UNSAT core. SAT:
/// y_k can keep its output and some other candidate must move, so every
/// unprocessed y_t outside Ŷ whose model value disagrees with its current
/// output is enqueued. Returns G_k's result.
sat::Result Run::repair_hkf(std::size_t k, std::deque<std::size_t>& queue,
                            const std::vector<bool>& processed) {
  // Ŷ = {y_j : H_j ⊆ H_k, Order(y_j) > Order(y_k)} (line 6). Fixing these
  // lets the core mention admissible Y features (§5's example).
  std::vector<std::size_t> yhat;
  if (options_.use_yhat_in_repair) {
    for (std::size_t j = 0; j < m_; ++j) {
      if (j != k && formula_.deps_subset(j, k) &&
          order_pos_[j] > order_pos_[k]) {
        yhat.push_back(j);
      }
    }
  }
  std::vector<bool> in_yhat(m_, false);
  for (const std::size_t j : yhat) in_yhat[j] = true;

  // G_k = (y_k ↔ σ[y'_k]) ∧ φ ∧ (H_k ↔ σ[H_k]) ∧ (Ŷ ↔ σ[Ŷ]) as
  // assumptions on the persistent φ solver (line 8).
  std::vector<Lit> assumptions;
  assumptions.push_back(unit_lit(ex_[k].var, sigma_yp_[k]));
  for (const Var x : ex_[k].deps) {
    assumptions.push_back(unit_lit(x, pi_.value(x)));
  }
  for (const std::size_t j : yhat) {
    assumptions.push_back(unit_lit(ex_[j].var, sigma_yp_[j]));
  }
  ++stats_.repair_checks;
  const sat::Result result = phi_solver_.solve(assumptions, deadline_);
  if (result == sat::Result::kUnsat) {
    // β from the unit clauses in the UNSAT core (lines 11-12).
    std::vector<Lit> core;
    std::vector<aig::Ref> beta_lits;
    for (const Lit l : phi_solver_.core()) {
      if (l.var() == ex_[k].var) continue;
      core.push_back(l);
      const aig::Ref in = manager_.input(l.var());
      beta_lits.push_back(l.negated() ? aig::ref_not(in) : in);
    }
    // An empty β is the documented repair failure mode (§5): nothing to
    // strengthen or weaken with.
    if (beta_lits.empty()) return result;
    std::sort(core.begin(), core.end());
    if (!applied_[k].emplace(sigma_yp_[k], std::move(core)).second) {
      // f_k already took this repair: skip it like an empty β.
      ++stats_.repeated_repairs;
      return result;
    }
    const aig::Ref beta = manager_.and_all(beta_lits);
    // Strengthen or weaken (line 13).
    f_[k] = sigma_yp_[k] ? manager_.and_gate(f_[k], aig::ref_not(beta))
                         : manager_.or_gate(f_[k], beta);
    sigma_yp_[k] = !sigma_yp_[k];  // output on this counterexample flipped
    ++stats_.repairs;
    record_support(k, beta);
  } else if (result == sat::Result::kSat) {
    const cnf::Assignment& rho = phi_solver_.model();
    // ρ is a full model of φ from the already-hot G_k session: streaming
    // it into the matrix lets the next refit see the repair neighborhood,
    // not just the per-counterexample MaxSAT points.
    if (append_sample(rho)) ++stats_.gk_streamed_samples;
    for (std::size_t t = 0; t < m_; ++t) {
      if (t == k || in_yhat[t] || processed[t]) continue;
      if (rho.value(ex_[t].var) != sigma_yp_[t]) queue.push_back(t);
    }
  }
  return result;
}

/// Repair of last resort for a stalled counterexample: add π[X] to the
/// arbiter expansion. UNSAT proves the DQBF False; otherwise its model
/// patches the candidates through decision-list entries over H_k (Pedant's
/// rule insertion) whose premises generalise the arbiter's cube over the
/// expansion's other arbiters.
Run::Step Run::expand_and_patch() {
  obs::Span span("expansion", "phase", options_.trace_id);
  const std::size_t points_before = expansion_.num_points();
  const sat::Result result = expansion_.add_point(pi_, deadline_);
  stats_.arbiter_points += expansion_.num_points() - points_before;
  if (result == sat::Result::kUnknown) return SynthesisStatus::kTimeout;
  if (result == sat::Result::kUnsat) return SynthesisStatus::kUnrealizable;
  recorded_.resize(expansion_.num_arbiters(), false);
  const std::vector<std::size_t>& point = expansion_.point_arbiters();
  const auto patch = [&](std::size_t id) {
    const std::size_t k = expansion_.arbiter(id).existential;
    DecisionEntry entry{expansion_.generalize(id), expansion_.value(id)};
    f_[k] = prepend_entry(manager_, entry, f_[k]);
    if (std::all_of(entry.premise.begin(), entry.premise.end(),
                    [&](Lit l) { return pi_.value(l); })) {
      sigma_yp_[k] = entry.value;  // δ lies inside the premise
    }
    entries_[k].push_back(std::move(entry));
    ++stats_.arbiter_patches;
  };
  // Cubes recorded earlier whose arbiter changed value (re-patched with a
  // fresh premise), then this point's cubes where the candidate disagrees.
  for (const std::size_t id : expansion_.flipped()) {
    if (recorded_[id]) patch(id);
  }
  for (std::size_t k = 0; k < m_; ++k) {
    if (expansion_.value(point[k]) != sigma_yp_[k]) patch(point[k]);
    recorded_[point[k]] = true;
  }
  return std::nullopt;
}

/// Substitute (Algorithm 1, line 19): walk Order from its tail so that
/// every referenced existential is already expressed over universals.
SynthesisStatus Run::substitute() {
  obs::Span span("substitute", "phase", options_.trace_id);
  std::vector<aig::Ref> final_functions(m_, aig::kFalseRef);
  std::unordered_map<std::int32_t, aig::Ref> substitution;
  for (std::size_t pos = order_.size(); pos-- > 0;) {
    const std::size_t k = order_[pos];
    final_functions[k] = manager_.compose(f_[k], substitution);
    substitution[ex_[k].var] = final_functions[k];
  }
  out_.vector.functions = std::move(final_functions);
  return SynthesisStatus::kRealizable;
}

/// Cross-round sample reuse: append a counterexample-derived model of φ to
/// the training matrix, deduped against everything already in it by the
/// fingerprint set the matrix kept since sampling. append_distinct reads
/// only the matrix variables: solver models carry selector and Tseitin
/// variables above the matrix block.
bool Run::append_sample(const cnf::Assignment& a) {
  if (!samples_.append_distinct(a)) return false;
  ++stats_.samples_appended;
  return true;
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
  Run run(options_, formula, manager, deadline, result);
  // An OutOfBudgetError thrown by any instrumented growth site (memory
  // budget exceeded, real or injected allocation failure) degrades into a
  // kOutOfBudget answer carrying the stats accumulated so far, never
  // process death.
  const SynthesisStatus status = [&run] {
    try {
      return run.synthesize();
    } catch (const util::OutOfBudgetError&) {
      return SynthesisStatus::kOutOfBudget;
    }
  }();
  run.answer(status);
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
