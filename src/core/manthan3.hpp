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
// The repair loop applies a repair to f_k at most once between refits.
// With Ŷ fixed in G_k (§5), two repairs of one f_k can undo each other:
// β strengthens f_k, β' weakens it, and β strengthens it again on the
// next counterexample, for as long as the call runs. So the call keeps,
// per y_k, the repairs applied to f_k since a refit last replaced
// it, each as β's sorted core literals plus its direction, and skips a
// repeat exactly like an empty β: f_k and σ[y'_k] stay as they are and
// the queue goes on (SynthesisStats::repeated_repairs). A counterexample
// left with no repair goes to the arbiter expansion below, whose entries
// break the cycle. Skipping is always sound: only a verify-UNSAT
// certifies.
//
// The engine is sound (returns only certified vectors) but not complete:
// a run can spend its counterexample budget without certifying (kLimit),
// and whether it does depends on the seed.
//
// Counterexample-point expansion (core/arbiter.hpp) is the repair of last
// resort. When a counterexample admits no repair, its X-point π goes into
// an arbiter expansion: the matrix instantiated at π[X], with each y_k
// replaced by an arbiter variable for (k, π[H_k]). An UNSAT expansion
// proves the DQBF False, which catches the False formulas whose every
// X-assignment extends to a model (the extension check never fires on
// them). Otherwise the expansion's model patches the candidates:
// ite(p, a_{k,c}, f_k) is prepended for this point's cubes c where the
// candidate disagrees and for the call's earlier cubes whose arbiter
// flipped. The premise p is ArbiterExpansion::generalize(): the least
// general generalisation of c over y_k's arbiters with the same value
// that covers no arbiter of y_k with the other value, so the entry agrees
// with every arbiter it covers. Premises overlap, so the call keeps its
// entries as an ordered list; a flipped arbiter gets a fresh entry on
// top. The entries mention only H_k, so they are always admissible, and a
// refit layers the list over the new tree oldest first, keeping the
// newest entry on top. A round with a repair never touches the
// expansion. kUnrealizable therefore has exactly three sources: an
// unsatisfiable matrix, a counterexample whose X-assignment does not
// extend (Algorithm 1, line 13), and an UNSAT expansion.
//
// synthesize() runs the pipeline once: sample, commit the static ordering
// edges, learn a candidate for every existential, then the verify/repair
// loop until it answers. Every counterexample moves the candidates. A
// counterexample stalls when every G_k it reached was SAT, had an empty β
// or repeated an applied repair; none of these moves σ, so σ[Y'] is still
// δ[Y']. The candidate outputs therefore falsify φ at π[X] while the
// arbiter model satisfies it there, so some arbiter disagrees with some
// candidate and a patch lands. The status is:
//   kRealizable    verify-UNSAT; the vector is certified;
//   kUnrealizable  one of the three sources above;
//   kLimit         max_counterexamples or max_repair_iterations is spent;
//   kTimeout       the deadline expired or the call was cancelled;
//   kOutOfBudget   the request's ResourceBudget tripped;
//   kIncomplete    only the fail-safe for a MaxSAT round whose hard part
//                  is UNSAT, which π rules out.
//
// The call owns its incremental SAT solvers for its whole life: the φ
// solver that the MaxSAT and G_k queries share, and the verify solver.
// Neither is simplified between rounds, so they grow with every
// counterexample; max_counterexamples is what bounds their size
// (ph_32x8_s0 of the planted-hard grid in ROADMAP.md, seed 1000, reaches
// verify_vars 5,843 in 190 counterexamples).
//
// Cross-round sample reuse: every counterexample's φ-extension π, each
// MaxSAT-corrected σ and every G_k-SAT model ρ is appended to the
// training matrix (fingerprint-deduped). Every round, each candidate with
// at least 16 rows appended since its own last fit is batch-simulated
// over them and refit when its error rate there reaches 5%, so later
// refits train on counterexample-corrected data instead of the stale
// round-0 samples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "dqbf/dqbf.hpp"
#include "dtree/decision_tree.hpp"
#include "sampler/sampler.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace manthan::core {

struct Manthan3Options {
  sampler::SamplerOptions sampler;
  dtree::DtreeOptions dtree;
  /// Constrain Ŷ in the repair formula G_k (ablation: abl1_repair_yhat;
  /// §5 argues this is required for many repairs to succeed).
  bool use_yhat_in_repair = true;
  /// Answer kLimit after this many candidate-repair attempts (G_k
  /// queries).
  std::size_t max_repair_iterations = 20000;
  /// Answer kLimit after this many verification counterexamples.
  std::size_t max_counterexamples = 2000;
  /// Wall-clock budget in seconds; 0 = unlimited.
  double time_limit_seconds = 0.0;
  /// Cooperative stop flag (composed into the internal Deadline, which
  /// the SAT/MaxSAT/sampler layers poll): when cancelled mid-run the
  /// engine returns kTimeout within a bounded number of decisions and
  /// propagations. Null = not cancellable; must outlive synthesize().
  const util::CancelToken* cancel = nullptr;
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
  kIncomplete,    // the engine cannot decide: PedantLite's incomplete
                  // search, Manthan3's MaxSAT fail-safe
  kLimit,         // iteration limits exhausted
  kTimeout,       // wall-clock budget exhausted
  kOutOfBudget,   // per-request ResourceBudget tripped (memory/conflicts/
                  // wall time/alloc failure); stats are truncated but valid
  kInternalError, // unexpected exception surfaced by the service layer;
                  // never produced by the engines themselves
};

struct SynthesisStats {
  std::size_t samples = 0;
  /// Existentials PedantLite answered with an extracted definition;
  /// always 0 for Manthan3, which learns every candidate.
  std::size_t unique_defined = 0;
  std::size_t learned_candidates = 0;
  std::size_t counterexamples = 0;
  std::size_t repairs = 0;
  std::size_t repair_checks = 0;   // G_k satisfiability queries
  std::size_t maxsat_calls = 0;
  /// Distinct X-points added to the arbiter expansion (one per stalled
  /// counterexample with a new X-assignment; 0 when no round stalls).
  std::size_t arbiter_points = 0;
  /// Decision-list entries prepended from the expansion's model.
  std::size_t arbiter_patches = 0;
  /// RepairHkF repairs skipped because f_k had already taken the same
  /// (β, direction) since its last refit.
  std::size_t repeated_repairs = 0;
  double sampling_seconds = 0.0;
  double learning_seconds = 0.0;
  double verify_seconds = 0.0;
  double repair_seconds = 0.0;
  double total_seconds = 0.0;
  // --- verify and φ/MaxSAT solver counters ---------------------------------
  /// Candidate output equivalences (re-)encoded into the verify solver.
  std::size_t cones_encoded = 0;
  /// Per-round candidates whose cached cone encoding was reused as-is.
  std::size_t cones_reused = 0;
  /// Gate variables the verify solver's cone cache defined: one per AND
  /// supergate or mux, not one per AIG node. The name (and the persisted
  /// key) predate the gate encoding and are kept for stored entries.
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
  /// Always 0 (the solvers have no inprocessing) and without a kStatFields
  /// row; kept only because the benchmark driver in perfbench/ reads it.
  std::size_t inprocess_runs = 0;
  // --- cross-round sample reuse -------------------------------------------
  /// Counterexample-derived samples appended to the training matrix
  /// (π extensions and MaxSAT-corrected σ, deduped by fingerprint).
  std::size_t samples_appended = 0;
  /// Refit passes triggered by the per-candidate error-rate screen.
  std::size_t refit_rounds = 0;
  /// Refit candidates adopted across all passes. Screened twice: only
  /// candidates whose packed-sim predictions disagree with rows appended
  /// since their last fit are refit, and a refit whose support would
  /// create a dependency cycle is rejected (its predecessor stays).
  std::size_t refit_candidates = 0;
  /// G_k-SAT models streamed into the matrix (subset of
  /// samples_appended).
  std::size_t gk_streamed_samples = 0;
  // --- memory accounting (snapshots at run end; process-global values are
  // non-deterministic and excluded from determinism comparisons) -----------
  /// Process-wide peak resident set size in bytes.
  std::size_t peak_rss_bytes = 0;
  /// Heap bytes of the bit-packed training matrix at run end.
  std::size_t sample_matrix_bytes = 0;
  /// Clause-arena bytes of the persistent verify solver (0 when the run
  /// answers before learning).
  std::size_t verify_arena_bytes = 0;
  /// Clause-arena bytes of the shared φ/MaxSAT solver.
  std::size_t phi_arena_bytes = 0;
  /// AND/input nodes in the shared AIG manager at run end.
  std::size_t aig_nodes = 0;
  /// Heap bytes of the AIG node table at run end.
  std::size_t aig_bytes = 0;
};

/// How a SynthesisStats field is measured: a count of work done in the
/// call, a phase's wall-clock seconds, or a memory snapshot at run end.
enum class StatKind { kCount, kSeconds, kMemory };

/// One row per SynthesisStats field. The name is the field's key in the
/// service's persisted cache files, the daemon's result JSON and the CLI
/// report. A row with an instrument feeds that core_* registry series
/// after every call: kCount rows add to a counter, kSeconds rows observe
/// a histogram, kMemory rows raise a peak gauge.
struct StatField {
  constexpr StatField(const char* name_, std::size_t SynthesisStats::*member,
                      const char* instrument_ = nullptr,
                      StatKind kind_ = StatKind::kCount)
      : name(name_), kind(kind_), integer(member), instrument(instrument_) {}
  constexpr StatField(const char* name_, double SynthesisStats::*member,
                      const char* instrument_ = nullptr)
      : name(name_),
        kind(StatKind::kSeconds),
        seconds(member),
        instrument(instrument_) {}

  const char* name;
  StatKind kind;
  std::size_t SynthesisStats::*integer = nullptr;  // kCount, kMemory
  double SynthesisStats::*seconds = nullptr;       // kSeconds
  const char* instrument;
};

inline constexpr StatField kStatFields[] = {
    {"samples", &SynthesisStats::samples, "core_samples_total"},
    {"unique_defined", &SynthesisStats::unique_defined},
    {"learned_candidates", &SynthesisStats::learned_candidates},
    {"counterexamples", &SynthesisStats::counterexamples,
     "core_counterexamples_total"},
    {"repairs", &SynthesisStats::repairs, "core_repairs_total"},
    {"repair_checks", &SynthesisStats::repair_checks},
    {"maxsat_calls", &SynthesisStats::maxsat_calls, "core_maxsat_calls_total"},
    {"arbiter_points", &SynthesisStats::arbiter_points},
    {"arbiter_patches", &SynthesisStats::arbiter_patches,
     "core_arbiter_patches_total"},
    {"repeated_repairs", &SynthesisStats::repeated_repairs,
     "core_repeated_repairs_total"},
    {"sampling_seconds", &SynthesisStats::sampling_seconds},
    {"learning_seconds", &SynthesisStats::learning_seconds},
    {"verify_seconds", &SynthesisStats::verify_seconds},
    {"repair_seconds", &SynthesisStats::repair_seconds},
    {"total_seconds", &SynthesisStats::total_seconds,
     "core_synthesize_seconds"},
    {"cones_encoded", &SynthesisStats::cones_encoded},
    {"cones_reused", &SynthesisStats::cones_reused},
    {"aig_nodes_encoded", &SynthesisStats::aig_nodes_encoded},
    {"activations_retired", &SynthesisStats::activations_retired},
    {"verify_vars", &SynthesisStats::verify_vars},
    {"verify_clauses_retired", &SynthesisStats::verify_clauses_retired},
    {"phi_vars", &SynthesisStats::phi_vars},
    {"phi_clauses_retired", &SynthesisStats::phi_clauses_retired},
    {"samples_appended", &SynthesisStats::samples_appended,
     "core_samples_total"},
    {"refit_rounds", &SynthesisStats::refit_rounds, "core_refit_rounds_total"},
    {"refit_candidates", &SynthesisStats::refit_candidates},
    {"gk_streamed_samples", &SynthesisStats::gk_streamed_samples,
     "core_streamed_samples_total"},
    {"peak_rss_bytes", &SynthesisStats::peak_rss_bytes, nullptr,
     StatKind::kMemory},
    {"sample_matrix_bytes", &SynthesisStats::sample_matrix_bytes,
     "core_sample_matrix_peak_bytes", StatKind::kMemory},
    {"verify_arena_bytes", &SynthesisStats::verify_arena_bytes, nullptr,
     StatKind::kMemory},
    {"phi_arena_bytes", &SynthesisStats::phi_arena_bytes, nullptr,
     StatKind::kMemory},
    {"aig_nodes", &SynthesisStats::aig_nodes, nullptr, StatKind::kMemory},
    {"aig_bytes", &SynthesisStats::aig_bytes, "core_aig_peak_bytes",
     StatKind::kMemory},
};

/// True when every field has exactly one row: no two rows share a member,
/// and the rows plus the row-less inprocess_runs cover the struct's bytes.
constexpr bool stat_rows_cover_fields() {
  std::size_t bytes = sizeof(SynthesisStats::inprocess_runs);
  for (std::size_t i = 0; i < std::size(kStatFields); ++i) {
    const StatField& f = kStatFields[i];
    bytes += f.seconds != nullptr ? sizeof(double) : sizeof(std::size_t);
    for (std::size_t j = 0; j < i; ++j) {
      const StatField& g = kStatFields[j];
      if (f.integer == g.integer && f.seconds == g.seconds) return false;
    }
  }
  return bytes == sizeof(SynthesisStats);
}
static_assert(stat_rows_cover_fields(),
              "every SynthesisStats field needs exactly one kStatFields row");

/// A row's value as text: integers in decimal, seconds with 17
/// significant digits so that parsing the text gives back the same double.
std::string stat_text(const SynthesisStats& stats, const StatField& field);

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
