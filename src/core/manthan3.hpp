// Manthan3 — data-driven Henkin function synthesis (the paper's core
// contribution; Algorithms 1-3).
//
// Pipeline:
//   1. GetSamples      — constrained sampling of models of φ (sampler/).
//   2. CandidateHkF    — per-existential decision-tree learning restricted
//                        to Henkin-admissible features (dtree/, dependency
//                        manager).
//   3. Verification    — SAT check of E(X,Y') = ¬φ(X,Y') ∧ (Y' ↔ f).
//   4. RepairHkF       — MaxSAT selection of repair candidates plus
//                        UNSAT-core-guided strengthening/weakening.
//   5. Substitute      — expand candidates so each f_i mentions only H_i.
//
// The engine is sound (returns only certified vectors) but not complete:
// repair can get stuck on a candidate set (paper §5), and whether it does
// depends on the seed.
//
// Counterexample-point expansion (core/arbiter.hpp) is the repair of last
// resort. When a counterexample admits no repair, its X-point π goes into
// an arbiter expansion: the matrix instantiated at π[X], with each y_k
// replaced by an arbiter variable for (k, π[H_k]). An UNSAT expansion
// proves the DQBF False, which catches the False formulas whose every
// X-assignment extends to a model (the extension check never fires on
// them). Otherwise the expansion's model patches the candidates:
// ite(H_k = c, a_{k,c}, f_k) is prepended for this point's cubes where the
// candidate disagrees and for the attempt's earlier cubes whose arbiter
// flipped. The entries mention only H_k, so they are always admissible,
// and a refit keeps them on top of the new tree. A patch counts as
// progress. The expansion's X-points are seed-independent, so all
// attempts of a call share it. A round with a repair never touches it.
// kUnrealizable therefore has exactly three sources: an unsatisfiable
// matrix, a counterexample whose X-assignment does not extend (Algorithm
// 1, line 13), and an UNSAT expansion.
//
// synthesize() runs the pipeline as a sequence of attempts. An attempt
// ends when it answers, when 12 consecutive counterexamples allow neither
// a repair nor a patch (the give-up), or when it has spent its cap of
// 32 · luby(r+1) counterexamples (Luby restarts: caps 32, 32, 64, 32, 32,
// 64, 128, ...). Attempt 0 uses `seed`; attempt r > 0 draws its sampler,
// learning and verify streams from derive_seed(seed, salt, r). All
// attempts share one deadline and the call's max_counterexamples /
// max_repair_iterations budgets; the seed-independent analyses
// (dependency relations, static ordering edges, unique definitions) run
// once per call, and an unsatisfiable matrix is answered by attempt 0.
// When the budget runs out the call reports kIncomplete if every attempt
// that ran to its own end gave up, and kLimit if any spent its whole cap;
// an expired deadline is kTimeout. kIncomplete is rare: a stalled
// counterexample's candidate outputs falsify φ at π[X] while the arbiter
// model satisfies it there, so some arbiter disagrees with some
// undefined candidate and a patch lands (unique definitions agree with
// every model). Attempts end on their cap instead, and the call on kLimit.
//
// Each attempt owns its incremental SAT solvers for its whole life: the φ
// solver that the MaxSAT and G_k queries share and, when `incremental` is
// set, the verify solver. Neither is simplified between rounds; the next
// attempt starts with fresh ones, which is what bounds their size.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "core/analysis_cache.hpp"
#include "core/unique_def.hpp"
#include "dqbf/dqbf.hpp"
#include "dtree/decision_tree.hpp"
#include "sampler/sampler.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace manthan::core {

struct Manthan3Options {
  sampler::SamplerOptions sampler;
  dtree::DtreeOptions dtree;
  /// Run the UNIQUE-style preprocessing pass (ablation: abl3_unique_def).
  bool use_unique_extraction = true;
  UniqueDefOptions unique;
  /// Constrain Ŷ in the repair formula G_k (ablation: abl1_repair_yhat;
  /// §5 argues this is required for many repairs to succeed).
  bool use_yhat_in_repair = true;
  /// Give up after this many candidate-repair attempts in total, summed
  /// over all restart attempts of the call.
  std::size_t max_repair_iterations = 20000;
  /// Give up after this many verification counterexamples, summed over
  /// all restart attempts of the call.
  std::size_t max_counterexamples = 2000;
  /// Wall-clock budget in seconds; 0 = unlimited.
  double time_limit_seconds = 0.0;
  /// Cooperative stop flag (composed into the internal Deadline, which
  /// the SAT/MaxSAT/sampler layers poll): when cancelled mid-run the
  /// engine returns kTimeout within a bounded number of decisions and
  /// propagations. Null = not cancellable; must outlive synthesize().
  const util::CancelToken* cancel = nullptr;
  /// Workers for per-existential candidate learning: decision-tree
  /// fitting fans across an engine::Scheduler pool. Fitting is pure and
  /// each existential draws a util::derive_seed-split stream, so results
  /// are bit-identical at every worker count. 1 = in-thread.
  std::size_t learn_workers = 1;
  /// Use the persistent incremental verify/repair pipeline (one
  /// IncrementalRefutation verify solver for the whole run; the φ solver
  /// shared with an activation-scoped MaxSAT). false = re-encode both
  /// from scratch every round — kept as the differential-testing oracle
  /// and benchmark baseline. (Seeding also moved to derive_seed streams,
  /// so the oracle reproduces the old pipeline's *cost structure*, not
  /// its exact pre-refactor search trajectories.)
  bool incremental = true;
  /// Fit decision trees straight from the bit-packed SampleMatrix
  /// (popcount split counting). false = unpack per-existential rows and
  /// run the row-wise learner — the differential oracle; both paths
  /// produce bit-identical trees, so the whole synthesis trajectory
  /// matches field-for-field at a fixed seed.
  bool packed_learning = true;
  /// Cross-round sample reuse: append every repair counterexample's
  /// φ-extension π and each MaxSAT-corrected σ to the training matrix
  /// (fingerprint-deduped), and refit candidates that disagree with the
  /// refreshed data — screened by 64-way AIG simulation over the matrix.
  /// Every G_k-SAT model ρ (a full model of φ from an already-hot solver
  /// session) is appended too, so refits see the repair neighborhood of
  /// the counterexample. Every round, each candidate with at least 16 rows
  /// appended since its own last fit is batch-simulated over them and
  /// refit when its error rate there reaches 5%; a verification round
  /// that made no repair progress screens the whole matrix instead. Later
  /// refits therefore train on counterexample-corrected data instead of
  /// the stale round-0 samples.
  bool sample_reuse = true;
  /// Cross-instance analysis cache (the service's tier 2): unique-def
  /// Padoa verdicts and the dependency ⊆/= relations are looked up by
  /// canonical fingerprints before being recomputed, and computed results
  /// are stored for later runs — including runs on *near-duplicate* specs
  /// (the unique-def keys only see (matrix, y_i, H_i)). Cached values are
  /// exactly what a cold run would compute, so warm runs stay
  /// field-for-field identical at a fixed seed. Null = no caching. The
  /// cache is thread-safe and shared across concurrent syntheses; it must
  /// outlive the run.
  AnalysisCache* analysis_cache = nullptr;
  std::uint64_t seed = 42;
  /// Tag every obs trace span emitted by this run (args.trace_id in the
  /// Chrome trace). The service sets it to the spec fingerprint so spans
  /// of concurrent requests can be told apart; 0 = untagged. Telemetry
  /// only — never feeds the derive_seed streams.
  std::uint64_t trace_id = 0;
};

enum class SynthesisStatus {
  kRealizable,    // Henkin vector synthesized and verified
  kUnrealizable,  // the DQBF is False
  kIncomplete,    // engine's documented incompleteness: repair got stuck
  kLimit,         // iteration limits exhausted
  kTimeout,       // wall-clock budget exhausted
  kOutOfBudget,   // per-request ResourceBudget tripped (memory/conflicts/
                  // wall time/alloc failure); stats are truncated but valid
  kInternalError, // unexpected exception surfaced by the service layer;
                  // never produced by the engines themselves
};

struct SynthesisStats {
  std::size_t samples = 0;
  std::size_t unique_defined = 0;
  std::size_t learned_candidates = 0;
  std::size_t counterexamples = 0;
  std::size_t repairs = 0;
  std::size_t repair_checks = 0;   // G_k satisfiability queries
  std::size_t maxsat_calls = 0;
  /// Attempts after the first: restarts of the CEGIS loop with a fresh
  /// seed stream. The other counters sum over all attempts of the call.
  std::size_t restarts = 0;
  /// Distinct X-points added to the arbiter expansion (one per stalled
  /// counterexample with a new X-assignment; 0 when no round stalls).
  std::size_t arbiter_points = 0;
  /// Decision-list entries prepended from the expansion's model.
  std::size_t arbiter_patches = 0;
  double sampling_seconds = 0.0;
  double learning_seconds = 0.0;
  double verify_seconds = 0.0;
  double repair_seconds = 0.0;
  double total_seconds = 0.0;
  // --- incremental-pipeline counters. The verify-solver block (cones,
  // aig nodes, verify_*) is zero when incremental = false; learn_workers
  // and the φ-solver fields are reported for every run — the persistent
  // φ solver exists in both pipelines (the oracle just never retires
  // anything on it). -------------------------------------------------------
  /// Worker count used for candidate learning.
  std::size_t learn_workers = 1;
  /// Candidate output equivalences (re-)encoded into the verify solver.
  std::size_t cones_encoded = 0;
  /// Per-round candidates whose cached cone encoding was reused as-is.
  std::size_t cones_reused = 0;
  /// Fresh AIG nodes Tseitin-encoded by the verify solver's cone cache.
  std::size_t aig_nodes_encoded = 0;
  /// Activation guards retired across the verify and φ/MaxSAT solvers.
  std::size_t activations_retired = 0;
  /// Variables allocated in the persistent verify solver.
  std::size_t verify_vars = 0;
  /// Clause records reclaimed by retirement in the verify solver.
  std::size_t verify_clauses_retired = 0;
  /// Variables allocated in the shared φ/MaxSAT solver.
  std::size_t phi_vars = 0;
  /// Clause records reclaimed by retirement in the φ/MaxSAT solver.
  std::size_t phi_clauses_retired = 0;
  /// Always 0 (the solvers have no inprocessing); kept because the
  /// benchmark driver in perfbench/ still reads it.
  std::size_t inprocess_runs = 0;
  // --- cross-round sample reuse (zero when sample_reuse = false) ----------
  /// Counterexample-derived samples appended to the training matrix
  /// (π extensions and MaxSAT-corrected σ, deduped by fingerprint).
  std::size_t samples_appended = 0;
  /// Refit passes triggered by the error-rate screen / no-progress rounds.
  std::size_t refit_rounds = 0;
  /// Refit candidates adopted across all passes. Screened twice: only
  /// candidates whose packed-sim predictions disagree with rows appended
  /// since their last fit are refit, and a refit whose support would
  /// create a dependency cycle is rejected (its predecessor stays).
  std::size_t refit_candidates = 0;
  /// G_k-SAT models streamed into the matrix (subset of
  /// samples_appended).
  std::size_t gk_streamed_samples = 0;
  /// Refit passes triggered by the adaptive per-candidate error-rate
  /// policy (subset of refit_rounds; forced no-progress refits are not
  /// counted here).
  std::size_t adaptive_refits = 0;
  // --- tier-2 analysis cache (zero when analysis_cache is null) -----------
  /// Padoa verdicts answered from the cache (SAT checks skipped).
  std::size_t analysis_unique_hits = 0;
  /// Dependency ⊆/= relations answered from the cache (1 per warm run).
  std::size_t analysis_dependency_hits = 0;
  // --- memory accounting (snapshots at run end; process-global values are
  // non-deterministic and excluded from determinism comparisons) -----------
  /// Process-wide peak resident set size in bytes.
  std::uint64_t peak_rss_bytes = 0;
  /// Heap bytes of the bit-packed training matrix at run end.
  std::uint64_t sample_matrix_bytes = 0;
  /// Clause-arena bytes of the persistent verify solver (incremental
  /// pipeline; 0 for the oracle).
  std::uint64_t verify_arena_bytes = 0;
  /// Clause-arena bytes of the shared φ/MaxSAT solver.
  std::uint64_t phi_arena_bytes = 0;
  /// AND/input nodes in the shared AIG manager at run end.
  std::uint64_t aig_nodes = 0;
  /// Heap bytes of the AIG node table at run end.
  std::uint64_t aig_bytes = 0;
};

struct SynthesisResult {
  SynthesisStatus status = SynthesisStatus::kLimit;
  /// Valid when kRealizable: functions over H_i only (post-Substitute),
  /// indexed like formula.existentials().
  dqbf::HenkinVector vector;
  SynthesisStats stats;
};

class Manthan3 {
 public:
  explicit Manthan3(Manthan3Options options = {});

  /// Synthesize a Henkin vector for `formula`; functions are built in
  /// `manager` (universal variables as input ids).
  SynthesisResult synthesize(const dqbf::DqbfFormula& formula,
                             aig::Aig& manager);

 private:
  Manthan3Options options_;
};

}  // namespace manthan::core
