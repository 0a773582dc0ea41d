// Conflict-driven clause-learning (CDCL) SAT solver.
//
// This is the oracle behind every reasoning step of the library:
//   * CheckSat queries of the Manthan3 verification loop,
//   * UNSAT-core extraction over assumptions (FindCore; PicoSAT's role in
//     the paper), via final-conflict analysis,
//   * the Fu-Malik MaxSAT solver (FindCandi; Open-WBO's role),
//   * the constrained sampler (CMSGen's role), through randomized
//     branching and polarities.
//
// Architecture: classic MiniSat-style two-watched-literal propagation,
// first-UIP clause learning with self-subsumption minimization, VSIDS
// decision heuristic with phase saving, Luby restarts, and Glucose-style
// LBD-tiered learnt-clause database reduction.
//
// Clause storage is a flat arena (MiniSat/Glucose "clause allocator"):
// one contiguous std::vector<uint32_t> holds every clause as a packed
// record
//
//     [header]([lbd][activity] learnt only)[lit0][lit1]...[litN-1]
//
// where the header word packs the literal count (bits 3..31) with three
// flags (learnt / removed-mark / relocated), `lbd` is the clause's
// literal-block distance (number of distinct decision levels at learn
// time, updated downwards whenever the clause is reused in conflict
// analysis), and `activity` is a float stored by bit pattern. A ClauseRef
// is simply the record's word offset into the arena, so propagation walks
// cache-contiguous memory instead of chasing a per-clause heap pointer.
//
// Binary clauses get a fast path inside the shared watch lists: their
// watchers carry a tag bit in the ClauseRef and store the implied literal
// as the blocker, so propagating over a binary clause decides
// satisfied/unit/conflict from the watcher alone and never touches the
// arena; the arena record only backs conflict/reason lookups.
//
// Removing a learnt clause marks its record and counts the words as
// wasted; when waste exceeds ~20% of the arena, a mark-compact garbage
// collector copies the live records into a fresh arena and rewrites every
// root (watch lists, binary watch lists, reason references of assigned
// variables, problem/learnt clause lists) through per-record forwarding
// addresses. Memory for deleted clauses is therefore actually reclaimed,
// not just flagged.
//
// reduce_db() keeps learnt clauses by quality, not just recency: clauses
// with LBD <= 3 form the "core" tier and are never deleted, LBD 4..6 is
// the "mid" tier, everything above is "local"; the worse half (highest
// LBD, then lowest activity) of the non-core clauses is dropped at each
// reduction. SolverStats exposes the arena size, current wasted bytes, GC
// run count, the tier sizes of the last reduction, and the learnt-clause
// budget (max_learnts) in effect.
// Activation literals (incremental verify/repair pipeline): a client may
// guard a clause with an activation literal a via add_clause_activated(),
// which stores (~a ∨ clause) and indexes the record under a. The clause
// constrains the search only while `a` is assumed. retire(a) asserts ~a
// as a root-level unit and reclaims every indexed record plus any learnt
// clause that mentions ~a (all satisfied forever), so the arena GC
// actually recovers the space instead of carrying dead encodings for the
// rest of the run. This is how the synthesis pipeline swaps per-candidate
// cone encodings and per-counterexample MaxSAT machinery in and out of
// one persistent solver.
// Variables keep the ids new_var() handed them for the solver's lifetime:
// there is no renumbering, so models, cores and assumptions all use the
// caller's ids directly.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cnf/cnf.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace manthan::sat {

using cnf::Assignment;
using cnf::Clause;
using cnf::CnfFormula;
using cnf::LBool;
using cnf::Lit;
using cnf::Var;

enum class Result { kSat, kUnsat, kUnknown };

struct SolverOptions {
  /// If true, decision polarities are drawn at random (per decision)
  /// instead of from saved phases; used by the sampler.
  bool random_polarity = false;
  /// Per-variable polarity bias used when random_polarity is set:
  /// probability of deciding the variable true (see Sampler).
  /// Empty means unbiased 0.5.
  std::vector<double> polarity_bias;
  std::uint64_t seed = 0x123456789abcdefULL;
};

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_literals = 0;
  std::uint64_t minimized_literals = 0;
  std::uint64_t db_reductions = 0;
  // --- clause-arena accounting (snapshots refreshed by stats()) ----------
  /// Current byte size of the flat clause arena.
  std::uint64_t arena_bytes = 0;
  /// Bytes currently held by removed-but-not-yet-collected clause records.
  /// Bounded by the GC trigger at ~20% of arena_bytes plus one reduction's
  /// worth of removals.
  std::uint64_t wasted_bytes = 0;
  /// Mark-compact garbage collections performed.
  std::uint64_t gc_runs = 0;
  // --- learnt-clause tiers as of the last reduce_db() run ----------------
  std::uint64_t tier_core = 0;   ///< LBD <= 3: never removed
  std::uint64_t tier_mid = 0;    ///< LBD in [4, 6]
  std::uint64_t tier_local = 0;  ///< LBD > 6: first to be dropped
  /// Learnt-clause budget in effect for the most recent solve() call;
  /// rescaled against the current problem size on every solve.
  double max_learnts = 0.0;
  // --- activation-literal retirement (snapshots refreshed by stats()) ----
  /// Total variables ever allocated (problem + Tseitin + selectors).
  std::uint64_t vars_allocated = 0;
  /// Clause records reclaimed by retire() — guarded problem clauses plus
  /// learnt clauses that mentioned a retired activation literal.
  std::uint64_t retired_clauses = 0;
  /// Activation literals retired so far.
  std::uint64_t retired_activations = 0;
  /// Models harvested by enumerate() sessions (one per descent).
  std::uint64_t enumerated_models = 0;
  // --- process memory (snapshot refreshed by stats()) --------------------
  /// Process-wide peak resident set size in bytes at the time of the
  /// stats() call. Process-global, not per-solver: useful for reporting,
  /// excluded from determinism comparisons.
  std::uint64_t peak_rss_bytes = 0;
};

/// Model sink for enumerate(): invoked at every satisfying total
/// assignment with the solver's model; return true to keep harvesting.
using ModelSink = std::function<bool(const Assignment&)>;

/// How an enumerate() session moves on after a model.
enum class EnumerateMode {
  /// Random backjump and rescrambled descent; models can repeat.
  kRandom,
  /// Block the model's decisions and backjump one level: every model is
  /// reported at most once, and the session ends kUnsat when none is left.
  kDistinct,
};

/// Incremental CDCL solver with assumptions and UNSAT-core extraction.
class Solver {
 public:
  explicit Solver(SolverOptions options = {});
  /// Publishes this solver's lifetime search counters into the global
  /// metrics registry (sat_* series) before the object goes away.
  ~Solver();

  // The decision-order heap holds a reference into this object; copying or
  // moving would dangle it.
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Allocate a fresh variable.
  Var new_var();
  /// Allocate `count` consecutive fresh variables; returns the first.
  /// Clients encoding a fixed block (e.g. a DQBF matrix) reserve it up
  /// front so later Tseitin/selector variables never collide with it.
  Var reserve_vars(Var count);
  /// Grow to at least `n` variables.
  void ensure_vars(Var n);
  /// Variables handed out so far.
  Var num_vars() const { return static_cast<Var>(assigns_.size()); }

  /// Restart the decision RNG from `seed`. A persistent solver reseeds
  /// between rounds so a stuck client sees a different search trajectory
  /// (the one-shot equivalent was constructing a fresh solver per round).
  void reseed(std::uint64_t seed);

  /// Add a clause. Returns false if the formula became trivially
  /// unsatisfiable (conflicting units at the root level).
  bool add_clause(const Clause& clause);
  /// Add every clause of a CNF formula.
  bool add_formula(const CnfFormula& formula);

  /// Add `clause` guarded by the activation literal `activation`: the
  /// stored clause is (~activation ∨ clause), so it constrains the search
  /// only while `activation` is passed as an assumption. The record is
  /// indexed under `activation` for later retirement. `activation` must be
  /// a fresh variable that appears in no other (unguarded) clause.
  bool add_clause_activated(const Clause& clause, Lit activation);

  /// Retire an activation literal: asserts ~activation as a root-level
  /// unit (permanently satisfying every clause guarded by it, including
  /// learnt clauses that recorded the guard) and reclaims those records
  /// from the arena. Returns the number of clause records reclaimed; the
  /// memory is recovered by the next mark-compact GC. Must be called
  /// between solves (root decision level).
  std::size_t retire(Lit activation);
  /// Batch form: one learnt-database sweep covers every retired guard,
  /// so a verify round that swaps R cones pays O(learnt DB + guarded),
  /// not O(R × learnt DB).
  std::size_t retire(const std::vector<Lit>& activations);

  /// Solve under the given assumptions. kUnknown only when a budget or
  /// deadline interrupts the search.
  Result solve(const std::vector<Lit>& assumptions = {});
  /// Solve with a wall-clock deadline, polled both on conflicts and on a
  /// decision/propagation counter so that conflict-light (pure
  /// propagation) solves are interruptible too.
  Result solve(const std::vector<Lit>& assumptions,
               const util::Deadline& deadline);

  /// Enumerating session (the sampler's harvest loop): one persistent
  /// search that hands every satisfying total assignment to `sink` and
  /// keeps descending while it returns true, instead of the caller paying
  /// one full solve() per model. Decisions use a per-descent random
  /// permutation of the variables (CMSGen-style scrambled branching)
  /// rather than the VSIDS heap, so a restart costs O(vars) instead of
  /// O(vars log vars) heap churn; conflicts still run the full CDCL
  /// machinery (learnt clauses steer later descents away from dead
  /// subspaces). Decision polarities follow SolverOptions (random_polarity
  /// / polarity_bias / saved phases).
  ///
  /// kRandom: after each model, a rapid restart to a random level with
  /// the decision order and saved phases re-scrambled. No blocking clauses
  /// are added, so the session can revisit a model; callers deduplicate
  /// by fingerprint (cnf::SampleMatrix::append_distinct).
  ///
  /// kDistinct: after each model with decisions d1..dk, the session adds
  /// the problem clause (¬d1 ∨ … ∨ ¬dk), backjumps one level and asserts
  /// ¬dk. That clause excludes exactly the reported model (unit
  /// propagation fixed the rest of it), so no model is reported twice —
  /// also not by a later kDistinct session on this solver, since the
  /// clause stays when the sink stops. Once every model has been reported
  /// the session returns kUnsat and the solver stays UNSAT for good.
  /// Takes no assumptions (asserted): the backjump relies on every
  /// decision level holding one branching decision.
  ///
  /// Returns kUnsat if no (further) model exists, kSat once `sink` stops
  /// the session, kUnknown when the deadline expires (models may already
  /// have been harvested — the sink has seen them).
  Result enumerate(const ModelSink& sink,
                   const std::vector<Lit>& assumptions = {},
                   const util::Deadline* deadline = nullptr,
                   EnumerateMode mode = EnumerateMode::kRandom);

  /// Complete satisfying assignment; valid after solve() returned kSat.
  const Assignment& model() const { return model_; }

  /// Subset of the assumptions sufficient for unsatisfiability; valid
  /// after solve() returned kUnsat. Empty core means the formula itself
  /// (without assumptions) is UNSAT.
  const std::vector<Lit>& core() const { return core_; }

  /// Truth value of `l` in the current root-level assignment (kUndef if
  /// unassigned at level 0). Useful after unit propagation.
  LBool fixed_value(Lit l) const;

  const SolverStats& stats() const;
  SolverOptions& options() { return options_; }

 private:
  /// Word offset of a clause record in the arena.
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoReason = 0xffffffffu;

  // --- arena clause record layout ---------------------------------------
  // [header]([lbd][activity] if learnt)[lit0]...[litN-1];
  // header = size<<3 | flags.
  static constexpr std::uint32_t kLearntBit = 1u;
  static constexpr std::uint32_t kMarkBit = 2u;   // removed, awaiting GC
  static constexpr std::uint32_t kRelocBit = 4u;  // forwarded during GC
  static constexpr std::uint32_t kSizeShift = 3;
  // LBD tier boundaries (Glucose: "core" clauses are kept forever).
  static constexpr std::uint32_t kCoreLbd = 3;
  static constexpr std::uint32_t kMidLbd = 6;
  // Deadline poll interval in decisions + propagations.
  static constexpr std::uint64_t kDeadlinePollInterval = 4096;
  // VSIDS variable and clause activity decay factors.
  static constexpr double kVarDecay = 0.95;
  static constexpr double kClauseActivityDecay = 0.999;
  // Restart interval base (conflicts), scaled by the Luby sequence.
  static constexpr std::int64_t kRestartBase = 100;
  // Watcher cref tag marking a binary clause (top bit; arena offsets are
  // therefore limited to 2^31 words, i.e. 8 GiB of clauses).
  static constexpr ClauseRef kBinaryTag = 0x80000000u;
  // First capacity of a watch list.
  static constexpr std::size_t kInitialWatches = 4;

  std::uint32_t clause_size(ClauseRef c) const {
    return arena_[c] >> kSizeShift;
  }
  bool clause_learnt(ClauseRef c) const {
    return (arena_[c] & kLearntBit) != 0;
  }
  bool clause_removed(ClauseRef c) const {
    return (arena_[c] & kMarkBit) != 0;
  }
  /// Word offset of the first literal: learnt records carry two extra
  /// header words (lbd, activity) that problem clauses do without.
  std::uint32_t lit_base(ClauseRef c) const {
    return c + 1 + ((arena_[c] & kLearntBit) << 1);
  }
  std::uint32_t record_words(ClauseRef c) const {
    return 1 + ((arena_[c] & kLearntBit) << 1) + clause_size(c);
  }
  // lbd / activity slots exist on learnt clauses only.
  std::uint32_t clause_lbd(ClauseRef c) const { return arena_[c + 1]; }
  void set_clause_lbd(ClauseRef c, std::uint32_t lbd) { arena_[c + 1] = lbd; }
  float clause_activity(ClauseRef c) const;
  void set_clause_activity(ClauseRef c, float activity);
  Lit clause_lit(ClauseRef c, std::uint32_t i) const {
    return Lit::from_code(static_cast<std::int32_t>(arena_[lit_base(c) + i]));
  }

  /// Watch-list entry. For clauses of size >= 3 `blocker` is some other
  /// literal of the clause whose being true lets propagation skip the
  /// arena lookup. For binary clauses `cref` carries kBinaryTag and
  /// `blocker` IS the implied literal, so propagation decides
  /// satisfied/unit/conflict without reading the arena at all.
  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  struct VarData {
    ClauseRef reason = kNoReason;
    std::int32_t level = 0;
  };

  // --- indexed max-heap over variable activity -------------------------
  class OrderHeap {
   public:
    explicit OrderHeap(const std::vector<double>& activity)
        : activity_(activity) {}
    bool empty() const { return heap_.empty(); }
    bool contains(Var v) const {
      return v < static_cast<Var>(index_.size()) && index_[v] >= 0;
    }
    void insert(Var v);
    void update(Var v);  // activity of v increased
    Var remove_max();
    void grow(Var n) { index_.resize(n, -1); }

   private:
    void sift_up(std::size_t i);
    void sift_down(std::size_t i);
    const std::vector<double>& activity_;
    std::vector<Var> heap_;
    std::vector<std::int32_t> index_;
  };

  // --- core operations ---------------------------------------------------
  LBool value(Lit l) const {
    return assigns_[static_cast<std::size_t>(l.var())] ^ l.negated();
  }
  LBool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  std::int32_t level(Var v) const {
    return var_data_[static_cast<std::size_t>(v)].level;
  }
  ClauseRef reason(Var v) const {
    return var_data_[static_cast<std::size_t>(v)].reason;
  }
  std::int32_t decision_level() const {
    return static_cast<std::int32_t>(trail_lim_.size());
  }

  void new_decision_level() {
    trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
  }
  bool add_clause_impl(const Clause& clause, ClauseRef* attached);
  void enqueue(Lit p, ClauseRef from);
  ClauseRef propagate();
  void cancel_until(std::int32_t target_level);
  void analyze(ClauseRef conflict, std::vector<Lit>& out_learnt,
               std::int32_t& out_btlevel);
  bool literal_redundant(Lit p, std::uint32_t abstract_levels);
  void analyze_final(Lit p, std::vector<Lit>& out_core);
  Lit pick_branch_lit();
  Lit pick_enum_lit();
  bool pick_polarity(Var v);
  void scramble_for_descent();
  ClauseRef attach_new_clause(const std::vector<Lit>& lits, bool learnt,
                              std::uint32_t lbd);
  /// Append `w` to the watch list of literal code `code`. An empty list
  /// starts at kInitialWatches entries instead of growing 1 → 2 → 4.
  void add_watch(std::size_t code, Watcher w) {
    std::vector<Watcher>& list = watches_[code];
    if (list.capacity() == 0) list.reserve(kInitialWatches);
    list.push_back(w);
  }
  void attach_watches(ClauseRef cref);
  void detach_watches(ClauseRef cref);
  void remove_clause(ClauseRef cref);
  bool clause_is_root_reason(ClauseRef cref) const;
  void reduce_db();
  void maybe_garbage_collect();
  void garbage_collect();
  template <typename LitAt>
  std::uint32_t lbd_of(std::uint32_t size, LitAt lit_at);
  std::uint32_t lbd_of_lits(const std::vector<Lit>& lits);
  std::uint32_t lbd_of_clause(ClauseRef cref);
  bool clause_locked(ClauseRef cref) const;
  void var_bump_activity(Var v);
  void var_decay_activity();
  void clause_bump_activity(ClauseRef cref);
  void clause_decay_activity();
  Result search_loop(const std::vector<Lit>& assumptions,
                     const util::Deadline* deadline, const ModelSink* sink,
                     EnumerateMode mode);
  Result solve_entry(const std::vector<Lit>& assumptions,
                     const util::Deadline* deadline, const ModelSink* sink,
                     EnumerateMode mode = EnumerateMode::kRandom);
  /// kDistinct step after a model: add (¬d1 ∨ … ∨ ¬dk) over the current
  /// decisions, backjump to level k-1 and assert ¬dk (unpropagated).
  /// Returns false, leaving the solver UNSAT, when k = 0: the model was
  /// implied at the root, so it was the last one.
  bool block_decisions();
  void extract_model();
  static std::int64_t luby(std::int64_t i);

  /// Assert `p` at the root and propagate; updates ok_.
  bool enqueue_root_unit(Lit p);

  SolverOptions options_;
  util::Rng rng_;

  /// Flat clause arena; every ClauseRef is a word offset into it.
  std::vector<std::uint32_t> arena_;
  /// Words occupied by removed (marked) clause records; drives the GC.
  std::size_t wasted_ = 0;
  /// Conflicts already reported to the thread's ResourceBudget (charged
  /// as deltas at the deadline-poll cadence).
  std::uint64_t budget_conflicts_reported_ = 0;
  std::vector<ClauseRef> problem_clauses_;
  std::vector<ClauseRef> learnt_clauses_;
  /// Guarded clause records by activation variable; a GC root. Entries
  /// are erased wholesale when the activation is retired.
  std::unordered_map<Var, std::vector<ClauseRef>> activation_clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by lit code

  std::vector<LBool> assigns_;
  std::vector<VarData> var_data_;
  std::vector<bool> saved_phase_;
  std::vector<double> activity_;
  OrderHeap order_{activity_};
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;

  std::vector<Lit> trail_;
  std::vector<std::int32_t> trail_lim_;
  std::size_t propagate_head_ = 0;

  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  // Conflict-analysis scratch, reused across conflicts: the learnt clause
  // of the conflict being analyzed, its literals before minimization
  // (whose seen_ marks analyze() clears), and literal_redundant()'s
  // depth-first stack.
  std::vector<Lit> learnt_tmp_;
  std::vector<Lit> analyze_toclear_;
  std::vector<Lit> redundant_stack_;
  // retire() marks, indexed by literal code: set for the ~activation
  // literals of the batch during its learnt-database sweep, zero between
  // calls.
  std::vector<std::uint8_t> retired_mark_;
  // Enumerating-session decision order: a per-descent shuffled variable
  // permutation scanned by a cursor (reset on every backjump/restart).
  std::vector<Var> enum_order_;
  std::size_t enum_cursor_ = 0;
  // Scratch buffer for add_clause normalization (avoids a heap
  // allocation per added clause — MaxSAT relaxation adds thousands).
  std::vector<Lit> add_tmp_;
  // Scratch buffer for add_clause_activated()'s guarded clause.
  std::vector<Lit> guard_tmp_;
  // Scratch buffer for block_decisions().
  std::vector<Lit> block_tmp_;
  // Scratch stamps for LBD computation, indexed by decision level.
  std::vector<std::uint64_t> lbd_stamp_;
  std::uint64_t lbd_stamp_counter_ = 0;

  bool ok_ = true;
  double max_learnts_ = 0.0;

  Assignment model_;
  std::vector<Lit> core_;
  // Mutable so stats() can refresh the arena-usage snapshot fields.
  mutable SolverStats stats_;
};

}  // namespace manthan::sat
