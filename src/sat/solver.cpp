#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"

namespace manthan::sat {

// ---------------------------------------------------------------------------
// OrderHeap
// ---------------------------------------------------------------------------

void Solver::OrderHeap::insert(Var v) {
  if (contains(v)) return;
  if (v >= static_cast<Var>(index_.size())) index_.resize(v + 1, -1);
  index_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  sift_up(heap_.size() - 1);
}

void Solver::OrderHeap::update(Var v) {
  if (contains(v)) sift_up(static_cast<std::size_t>(index_[v]));
}

Var Solver::OrderHeap::remove_max() {
  const Var top = heap_[0];
  heap_[0] = heap_.back();
  index_[heap_[0]] = 0;
  heap_.pop_back();
  index_[top] = -1;
  if (!heap_.empty()) sift_down(0);
  return top;
}

void Solver::OrderHeap::sift_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[static_cast<std::size_t>(heap_[parent])] >=
        activity_[static_cast<std::size_t>(v)]) {
      break;
    }
    heap_[i] = heap_[parent];
    index_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  index_[v] = static_cast<std::int32_t>(i);
}

void Solver::OrderHeap::sift_down(std::size_t i) {
  const Var v = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[static_cast<std::size_t>(heap_[child + 1])] >
            activity_[static_cast<std::size_t>(heap_[child])]) {
      ++child;
    }
    if (activity_[static_cast<std::size_t>(heap_[child])] <=
        activity_[static_cast<std::size_t>(v)]) {
      break;
    }
    heap_[i] = heap_[child];
    index_[heap_[i]] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  index_[v] = static_cast<std::int32_t>(i);
}

// ---------------------------------------------------------------------------
// Construction / variables / clauses
// ---------------------------------------------------------------------------

Solver::Solver(SolverOptions options)
    : options_(options), rng_(options.seed) {}

float Solver::clause_activity(ClauseRef c) const {
  float a;
  std::memcpy(&a, &arena_[c + 2], sizeof(a));
  return a;
}

void Solver::set_clause_activity(ClauseRef c, float activity) {
  std::memcpy(&arena_[c + 2], &activity, sizeof(activity));
}

Var Solver::new_var() {
  const Var v = num_vars();
  assigns_.push_back(LBool::kUndef);
  var_data_.push_back({});
  saved_phase_.push_back(false);  // first decision on v is negative
  activity_.push_back(0.0);
  seen_.push_back(0);
  watches_.resize(2 * assigns_.size());
  order_.grow(v + 1);
  order_.insert(v);
  return v;
}

Var Solver::reserve_vars(Var count) {
  const Var first = num_vars();
  for (Var i = 0; i < count; ++i) new_var();
  return first;
}

void Solver::ensure_vars(Var n) {
  while (num_vars() < n) new_var();
}

void Solver::reseed(std::uint64_t seed) { rng_ = util::Rng(seed); }

bool Solver::add_clause(const Clause& clause) {
  if (!ok_) return false;
  for (const Lit l : clause) ensure_vars(l.var() + 1);
  return add_clause_impl(clause, nullptr);
}

// Every variable of `clause` already has a slot.
bool Solver::add_clause_impl(const Clause& clause, ClauseRef* attached) {
  if (attached != nullptr) *attached = kNoReason;
  if (!ok_) return false;
  assert(decision_level() == 0);
  // Normalize into the scratch buffer: sort, drop duplicate/false
  // literals, detect tautology.
  add_tmp_.assign(clause.begin(), clause.end());
  std::sort(add_tmp_.begin(), add_tmp_.end());
  std::size_t keep = 0;
  Lit prev = cnf::kUndefLit;
  for (const Lit l : add_tmp_) {
    if (value(l) == LBool::kTrue || l == ~prev) return true;  // satisfied/taut
    if (value(l) == LBool::kFalse || l == prev) continue;     // falsified/dup
    add_tmp_[keep++] = l;
    prev = l;
  }
  add_tmp_.resize(keep);
  if (add_tmp_.empty()) {
    ok_ = false;
    return false;
  }
  if (add_tmp_.size() == 1) {
    enqueue(add_tmp_[0], kNoReason);
    ok_ = (propagate() == kNoReason);
    return ok_;
  }
  const ClauseRef cref = attach_new_clause(add_tmp_, /*learnt=*/false,
                                           /*lbd=*/0);
  if (attached != nullptr) *attached = cref;
  return true;
}

bool Solver::add_clause_activated(const Clause& clause, Lit activation) {
  if (!ok_) return false;
  ensure_vars(activation.var() + 1);
  for (const Lit l : clause) ensure_vars(l.var() + 1);
  guard_tmp_.assign(clause.begin(), clause.end());
  guard_tmp_.push_back(~activation);
  ClauseRef cref = kNoReason;
  const bool result = add_clause_impl(guard_tmp_, &cref);
  // Only arena records need indexing: simplified-away clauses (satisfied,
  // tautological, or collapsed to a unit) leave nothing to retire.
  if (cref != kNoReason) {
    activation_clauses_[activation.var()].push_back(cref);
  }
  return result;
}

bool Solver::enqueue_root_unit(Lit p) {
  assert(decision_level() == 0);
  if (!ok_) return false;
  const LBool val = value(p);
  if (val == LBool::kTrue) return true;
  if (val == LBool::kFalse) {
    ok_ = false;
    return false;
  }
  enqueue(p, kNoReason);
  ok_ = (propagate() == kNoReason);
  return ok_;
}

std::size_t Solver::retire(Lit activation) {
  return retire(std::vector<Lit>{activation});
}

std::size_t Solver::retire(const std::vector<Lit>& activations) {
  assert(decision_level() == 0);
  if (activations.empty()) return 0;
  stats_.retired_activations += activations.size();
  std::size_t reclaimed = 0;
  // Reclaim the indexed guarded records first. A record can be a root
  // reason only if it propagated its own ~activation; those stay alive
  // (they are satisfied and harmless) rather than dangling as reasons.
  for (const Lit activation : activations) {
    const auto it = activation_clauses_.find(activation.var());
    if (it == activation_clauses_.end()) continue;
    for (const ClauseRef cref : it->second) {
      if (clause_removed(cref) || clause_is_root_reason(cref)) continue;
      remove_clause(cref);
      ++reclaimed;
    }
    activation_clauses_.erase(it);
  }
  // Make the retirements permanent. Any remaining clause mentioning a
  // retired ~activation — in particular every learnt clause that
  // recorded the guard during assumption solving — is satisfied forever
  // from here on.
  if (retired_mark_.size() < watches_.size()) {
    retired_mark_.resize(watches_.size(), 0);
  }
  for (const Lit activation : activations) {
    enqueue_root_unit(~activation);
    retired_mark_[static_cast<std::size_t>((~activation).code())] = 1;
  }
  // One sweep of the learnt database covers the whole batch.
  std::size_t keep = 0;
  for (const ClauseRef cref : learnt_clauses_) {
    const std::uint32_t size = clause_size(cref);
    const std::uint32_t base = lit_base(cref);
    bool mentions = false;
    for (std::uint32_t i = 0; i < size && !mentions; ++i) {
      mentions = retired_mark_[arena_[base + i]] != 0;
    }
    if (mentions && !clause_is_root_reason(cref)) {
      remove_clause(cref);
      ++reclaimed;
    } else {
      learnt_clauses_[keep++] = cref;
    }
  }
  learnt_clauses_.resize(keep);
  for (const Lit activation : activations) {
    retired_mark_[static_cast<std::size_t>((~activation).code())] = 0;
  }
  stats_.retired_clauses += reclaimed;
  maybe_garbage_collect();
  return reclaimed;
}

bool Solver::add_formula(const CnfFormula& formula) {
  ensure_vars(formula.num_vars());
  for (const Clause& c : formula.clauses()) {
    if (!add_clause(c)) return false;
  }
  return ok_;
}

Solver::ClauseRef Solver::attach_new_clause(const std::vector<Lit>& lits,
                                            bool learnt, std::uint32_t lbd) {
  assert(lits.size() >= 2);
  // Arena capacity growth is an instrumented hazard point: the capacity
  // delta is charged to the thread's ResourceBudget and a (real or
  // injected) bad_alloc becomes OutOfBudgetError instead of process death.
  const std::size_t words = 1 + (learnt ? 2u : 0u) + lits.size();
  if (arena_.size() + words > arena_.capacity()) {
    const std::size_t new_cap =
        std::max(arena_.capacity() * 2,
                 std::max<std::size_t>(arena_.size() + words, 1024));
    util::guarded_grow(util::fault::Site::kSatArenaGrow,
                       (new_cap - arena_.capacity()) * sizeof(std::uint32_t),
                       [&] { arena_.reserve(new_cap); });
  }
  const ClauseRef cref = static_cast<ClauseRef>(arena_.size());
  arena_.push_back((static_cast<std::uint32_t>(lits.size()) << kSizeShift) |
                   (learnt ? kLearntBit : 0u));
  if (learnt) {
    arena_.push_back(lbd);
    arena_.push_back(0u);  // activity 0.0f by bit pattern
  }
  for (const Lit l : lits) {
    arena_.push_back(static_cast<std::uint32_t>(l.code()));
  }
  (learnt ? learnt_clauses_ : problem_clauses_).push_back(cref);
  attach_watches(cref);
  return cref;
}

void Solver::attach_watches(ClauseRef cref) {
  const Lit l0 = clause_lit(cref, 0);
  const Lit l1 = clause_lit(cref, 1);
  if (clause_size(cref) == 2) {
    // Binary: the watcher's blocker is the implied literal.
    add_watch(static_cast<std::size_t>((~l0).code()), {cref | kBinaryTag, l1});
    add_watch(static_cast<std::size_t>((~l1).code()), {cref | kBinaryTag, l0});
  } else {
    add_watch(static_cast<std::size_t>((~l0).code()), {cref, l1});
    add_watch(static_cast<std::size_t>((~l1).code()), {cref, l0});
  }
}

void Solver::detach_watches(ClauseRef cref) {
  // Binary clauses carry the tag bit in their watcher entries (reduce_db
  // spares binaries, but retire() reclaims guarded binaries too).
  const ClauseRef key =
      clause_size(cref) == 2 ? (cref | kBinaryTag) : cref;
  for (int i = 0; i < 2; ++i) {
    const Lit watched = clause_lit(cref, static_cast<std::uint32_t>(i));
    auto& list = watches_[static_cast<std::size_t>((~watched).code())];
    for (std::size_t j = 0; j < list.size(); ++j) {
      if (list[j].cref == key) {
        list[j] = list.back();
        list.pop_back();
        break;
      }
    }
  }
}

bool Solver::clause_is_root_reason(ClauseRef cref) const {
  // Long-clause propagation keeps the implied literal at position 0;
  // binary reasons may have it at either position.
  for (std::uint32_t i = 0; i < 2; ++i) {
    const Lit l = clause_lit(cref, i);
    if (value(l) == LBool::kTrue && reason(l.var()) == cref) return true;
  }
  return false;
}

void Solver::remove_clause(ClauseRef cref) {
  detach_watches(cref);
  wasted_ += record_words(cref);
  arena_[cref] |= kMarkBit;
}

// ---------------------------------------------------------------------------
// Propagation and trail
// ---------------------------------------------------------------------------

void Solver::enqueue(Lit p, ClauseRef from) {
  assert(value(p) == LBool::kUndef);
  const auto v = static_cast<std::size_t>(p.var());
  assigns_[v] = cnf::lbool_from(!p.negated());
  var_data_[v] = {from, decision_level()};
  trail_.push_back(p);
}

Solver::ClauseRef Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    const auto p_code = static_cast<std::size_t>(p.code());
    auto& watch_list = watches_[p_code];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const Watcher w = watch_list[i];
      const LBool blocker_value = value(w.blocker);
      if (blocker_value == LBool::kTrue) {
        watch_list[keep++] = w;
        continue;
      }
      if ((w.cref & kBinaryTag) != 0) {
        // Binary fast path: the blocker is the implied literal, so the
        // arena is never touched while propagating over binaries.
        watch_list[keep++] = w;
        if (blocker_value == LBool::kFalse) {
          // Conflict: keep the remaining watchers and bail out.
          for (std::size_t j = i + 1; j < watch_list.size(); ++j) {
            watch_list[keep++] = watch_list[j];
          }
          watch_list.resize(keep);
          propagate_head_ = trail_.size();
          return w.cref & ~kBinaryTag;
        }
        enqueue(w.blocker, w.cref & ~kBinaryTag);
        continue;
      }
      const std::uint32_t header = arena_[w.cref];
      std::uint32_t* lits = &arena_[w.cref + 1 + ((header & kLearntBit) << 1)];
      const std::uint32_t size = header >> kSizeShift;
      // Ensure the false literal (~p) sits at position 1.
      const auto not_p = static_cast<std::uint32_t>((~p).code());
      if (lits[0] == not_p) std::swap(lits[0], lits[1]);
      const Lit first = Lit::from_code(static_cast<std::int32_t>(lits[0]));
      if (value(first) == LBool::kTrue) {
        watch_list[keep++] = {w.cref, first};
        continue;
      }
      // Look for a replacement watch.
      bool found = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(Lit::from_code(static_cast<std::int32_t>(lits[k]))) !=
            LBool::kFalse) {
          std::swap(lits[1], lits[k]);
          add_watch(lits[1] ^ 1u, {w.cref, first});
          found = true;
          break;
        }
      }
      if (found) continue;
      // Clause is unit or conflicting.
      watch_list[keep++] = {w.cref, first};
      if (value(first) == LBool::kFalse) {
        // Conflict: keep the remaining watchers and bail out.
        for (std::size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return w.cref;
      }
      enqueue(first, w.cref);
    }
    watch_list.resize(keep);
  }
  return kNoReason;
}

void Solver::cancel_until(std::int32_t target_level) {
  if (decision_level() <= target_level) return;
  const auto bound =
      static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(target_level)]);
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const Var v = trail_[i].var();
    saved_phase_[static_cast<std::size_t>(v)] = !trail_[i].negated();
    assigns_[static_cast<std::size_t>(v)] = LBool::kUndef;
    if (!order_.contains(v)) order_.insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(static_cast<std::size_t>(target_level));
  propagate_head_ = trail_.size();
}

// ---------------------------------------------------------------------------
// Conflict analysis
// ---------------------------------------------------------------------------

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& out_learnt,
                     std::int32_t& out_btlevel) {
  out_learnt.clear();
  out_learnt.push_back(cnf::kUndefLit);  // slot for the asserting literal
  std::int32_t counter = 0;
  Lit p = cnf::kUndefLit;
  std::size_t index = trail_.size();

  ClauseRef reason_ref = conflict;
  do {
    if (clause_learnt(reason_ref)) {
      clause_bump_activity(reason_ref);
      // Glucose: keep the best (lowest) LBD the clause ever exhibits.
      const std::uint32_t lbd = lbd_of_clause(reason_ref);
      if (lbd < clause_lbd(reason_ref)) set_clause_lbd(reason_ref, lbd);
    }
    const std::uint32_t size = clause_size(reason_ref);
    for (std::uint32_t i = 0; i < size; ++i) {
      const Lit q = clause_lit(reason_ref, i);
      if (q == p) continue;  // the literal this reason clause implied
      const auto v = static_cast<std::size_t>(q.var());
      if (seen_[v] || level(q.var()) == 0) continue;
      seen_[v] = 1;
      var_bump_activity(q.var());
      if (level(q.var()) >= decision_level()) {
        ++counter;
      } else {
        out_learnt.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal.
    while (!seen_[static_cast<std::size_t>(trail_[index - 1].var())]) --index;
    p = trail_[--index];
    seen_[static_cast<std::size_t>(p.var())] = 0;
    reason_ref = reason(p.var());
    --counter;
  } while (counter > 0);
  out_learnt[0] = ~p;

  // Self-subsumption minimization: drop literals implied by the rest.
  analyze_toclear_.assign(out_learnt.begin(), out_learnt.end());
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= 1u << (level(out_learnt[i].var()) & 31);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    if (reason(out_learnt[i].var()) == kNoReason ||
        !literal_redundant(out_learnt[i], abstract_levels)) {
      out_learnt[keep++] = out_learnt[i];
    } else {
      ++stats_.minimized_literals;
    }
  }
  out_learnt.resize(keep);
  stats_.learnt_literals += out_learnt.size();

  // Find the backtrack level = highest level among the non-asserting lits.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level(out_learnt[i].var()) > level(out_learnt[max_i].var())) {
        max_i = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level(out_learnt[1].var());
  }

  for (const Lit l : analyze_toclear_) {
    seen_[static_cast<std::size_t>(l.var())] = 0;
  }
  // literal_redundant leaves extra seen_ marks for redundancy witnesses.
  for (const Lit l : analyze_stack_) {
    seen_[static_cast<std::size_t>(l.var())] = 0;
  }
  analyze_stack_.clear();
}

bool Solver::literal_redundant(Lit p, std::uint32_t abstract_levels) {
  // Depth-first check that every path from p's reason leads to seen
  // literals (or level-0 facts). Conservative on levels via the bitmask.
  redundant_stack_.clear();
  redundant_stack_.push_back(p);
  const std::size_t cleanup_mark = analyze_stack_.size();
  while (!redundant_stack_.empty()) {
    const Lit q = redundant_stack_.back();
    redundant_stack_.pop_back();
    const ClauseRef r = reason(q.var());
    assert(r != kNoReason);
    const std::uint32_t size = clause_size(r);
    for (std::uint32_t i = 0; i < size; ++i) {
      const Lit l = clause_lit(r, i);
      if (l.var() == q.var()) continue;  // the implied literal itself
      const auto v = static_cast<std::size_t>(l.var());
      if (seen_[v] || level(l.var()) == 0) continue;
      if (reason(l.var()) == kNoReason ||
          ((1u << (level(l.var()) & 31)) & abstract_levels) == 0) {
        // Not redundant: undo the marks added during this check.
        for (std::size_t j = cleanup_mark; j < analyze_stack_.size(); ++j) {
          seen_[static_cast<std::size_t>(analyze_stack_[j].var())] = 0;
        }
        analyze_stack_.resize(cleanup_mark);
        return false;
      }
      seen_[v] = 1;
      analyze_stack_.push_back(l);
      redundant_stack_.push_back(l);
    }
  }
  return true;
}

void Solver::analyze_final(Lit failed, std::vector<Lit>& out_core) {
  // `failed` is an assumption found false under the earlier assumptions.
  // Walk the implication graph backwards from ~failed; every decision
  // reached is an earlier assumption, and together with `failed` they form
  // an unsatisfiable subset (the core).
  out_core.clear();
  out_core.push_back(failed);
  if (decision_level() == 0) return;
  seen_[static_cast<std::size_t>(failed.var())] = 1;
  const auto level0_end =
      static_cast<std::size_t>(trail_lim_.empty() ? 0 : trail_lim_[0]);
  for (std::size_t i = trail_.size(); i-- > level0_end;) {
    const Var v = trail_[i].var();
    if (!seen_[static_cast<std::size_t>(v)]) continue;
    seen_[static_cast<std::size_t>(v)] = 0;
    const ClauseRef r = reason(v);
    if (r == kNoReason) {
      // A decision above level 0 is an assumption (assumptions are the
      // only decisions made before analyze_final can run).
      out_core.push_back(trail_[i]);
    } else {
      const std::uint32_t size = clause_size(r);
      for (std::uint32_t k = 0; k < size; ++k) {
        const Lit l = clause_lit(r, k);
        if (l.var() == v) continue;  // the implied literal itself
        if (level(l.var()) > 0) {
          seen_[static_cast<std::size_t>(l.var())] = 1;
        }
      }
    }
  }
  seen_[static_cast<std::size_t>(failed.var())] = 0;
}

// ---------------------------------------------------------------------------
// Activities and LBD
// ---------------------------------------------------------------------------

void Solver::var_bump_activity(Var v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  order_.update(v);
}

void Solver::var_decay_activity() { var_inc_ /= kVarDecay; }

void Solver::clause_bump_activity(ClauseRef cref) {
  const float bumped =
      clause_activity(cref) + static_cast<float>(clause_inc_);
  set_clause_activity(cref, bumped);
  if (bumped > 1e20f) {
    for (const ClauseRef c : learnt_clauses_) {
      set_clause_activity(c, clause_activity(c) * 1e-20f);
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::clause_decay_activity() {
  clause_inc_ /= kClauseActivityDecay;
}

/// Number of distinct (non-root) decision levels among `size` literals
/// produced by `lit_at(i)` — the literal-block distance.
template <typename LitAt>
std::uint32_t Solver::lbd_of(std::uint32_t size, LitAt lit_at) {
  if (lbd_stamp_.size() <= static_cast<std::size_t>(decision_level())) {
    lbd_stamp_.resize(static_cast<std::size_t>(decision_level()) + 1, 0);
  }
  ++lbd_stamp_counter_;
  std::uint32_t lbd = 0;
  for (std::uint32_t i = 0; i < size; ++i) {
    const auto lev = static_cast<std::size_t>(level(lit_at(i).var()));
    if (lev == 0) continue;
    if (lbd_stamp_[lev] != lbd_stamp_counter_) {
      lbd_stamp_[lev] = lbd_stamp_counter_;
      ++lbd;
    }
  }
  return lbd;
}

std::uint32_t Solver::lbd_of_lits(const std::vector<Lit>& lits) {
  return lbd_of(static_cast<std::uint32_t>(lits.size()),
                [&](std::uint32_t i) { return lits[i]; });
}

std::uint32_t Solver::lbd_of_clause(ClauseRef cref) {
  return lbd_of(clause_size(cref),
                [&](std::uint32_t i) { return clause_lit(cref, i); });
}

// ---------------------------------------------------------------------------
// Decisions and clause DB reduction
// ---------------------------------------------------------------------------

bool Solver::pick_polarity(Var v) {
  if (options_.random_polarity) {
    const auto i = static_cast<std::size_t>(v);
    const double p_true =
        i < options_.polarity_bias.size() ? options_.polarity_bias[i] : 0.5;
    return rng_.flip(p_true);
  }
  return saved_phase_[static_cast<std::size_t>(v)];
}

Lit Solver::pick_branch_lit() {
  while (!order_.empty()) {
    const Var next = order_.remove_max();
    if (value(next) == LBool::kUndef) return Lit(next, !pick_polarity(next));
  }
  return cnf::kUndefLit;
}

Lit Solver::pick_enum_lit() {
  // Enumeration decisions scan the shuffled permutation instead of the
  // VSIDS heap: the heap costs O(log n) per decision plus a full
  // reinsert-and-drain cycle per restart, which dominates descents on
  // model-rich formulas where every model needs a root restart.
  while (enum_cursor_ < enum_order_.size()) {
    const Var v = enum_order_[enum_cursor_];
    if (value(v) == LBool::kUndef) {
      return Lit(v, !pick_polarity(v));
    }
    ++enum_cursor_;
  }
  return cnf::kUndefLit;
}

void Solver::scramble_for_descent() {
  // Fisher-Yates over the decision permutation: each descent branches in
  // a fresh random order, decorrelating successive models.
  enum_order_.resize(static_cast<std::size_t>(num_vars()));
  for (Var v = 0; v < num_vars(); ++v) {
    enum_order_[static_cast<std::size_t>(v)] = v;
  }
  for (std::size_t i = enum_order_.size(); i > 1; --i) {
    std::swap(enum_order_[i - 1], enum_order_[rng_.next_below(i)]);
  }
  enum_cursor_ = 0;
  if (!options_.random_polarity) {
    // Phase scramble: saved phases would replay the previous model.
    for (std::size_t v = 0; v < saved_phase_.size(); ++v) {
      saved_phase_[v] = rng_.flip();
    }
  }
}

bool Solver::clause_locked(ClauseRef cref) const {
  // Valid for clauses of size >= 3 only: long-clause propagation keeps the
  // implied literal at position 0. (A binary reason may have it at either
  // position, but binaries are never removal candidates.)
  const Lit first = clause_lit(cref, 0);
  return value(first) == LBool::kTrue && reason(first.var()) == cref;
}

void Solver::reduce_db() {
  ++stats_.db_reductions;
  // Record the LBD tier census before removal.
  stats_.tier_core = stats_.tier_mid = stats_.tier_local = 0;
  for (const ClauseRef cref : learnt_clauses_) {
    const std::uint32_t lbd = clause_lbd(cref);
    if (lbd <= kCoreLbd) {
      ++stats_.tier_core;
    } else if (lbd <= kMidLbd) {
      ++stats_.tier_mid;
    } else {
      ++stats_.tier_local;
    }
  }
  // Worst clauses first: highest LBD, ties broken by lowest activity.
  // Core clauses (LBD <= kCoreLbd) sort to the back and survive.
  std::sort(learnt_clauses_.begin(), learnt_clauses_.end(),
            [&](ClauseRef a, ClauseRef b) {
              const std::uint32_t la = clause_lbd(a);
              const std::uint32_t lb = clause_lbd(b);
              if (la != lb) return la > lb;
              return clause_activity(a) < clause_activity(b);
            });
  const std::size_t target = learnt_clauses_.size() / 2;
  std::vector<ClauseRef> kept;
  kept.reserve(learnt_clauses_.size());
  std::size_t removed = 0;
  for (const ClauseRef cref : learnt_clauses_) {
    const bool removable = removed < target && clause_size(cref) > 2 &&
                           clause_lbd(cref) > kCoreLbd &&
                           !clause_locked(cref);
    if (removable) {
      remove_clause(cref);
      ++removed;
    } else {
      kept.push_back(cref);
    }
  }
  learnt_clauses_ = std::move(kept);
  maybe_garbage_collect();
}

// ---------------------------------------------------------------------------
// Arena garbage collection
// ---------------------------------------------------------------------------

void Solver::maybe_garbage_collect() {
  // Mark-compact once removed records waste more than ~20% of the arena.
  if (wasted_ > 0 && wasted_ * 5 > arena_.size()) garbage_collect();
}

void Solver::garbage_collect() {
  ++stats_.gc_runs;
  std::vector<std::uint32_t> to;
  to.reserve(arena_.size() - wasted_);
  // Copy a live record on first visit and leave a forwarding address in
  // its old header so every other root referencing it follows along.
  const auto reloc = [&](ClauseRef& cref) {
    if ((arena_[cref] & kRelocBit) != 0) {
      cref = arena_[cref + 1];
      return;
    }
    assert(!clause_removed(cref));
    const std::uint32_t words = record_words(cref);
    const auto moved = static_cast<ClauseRef>(to.size());
    to.insert(to.end(), arena_.begin() + cref, arena_.begin() + cref + words);
    arena_[cref] |= kRelocBit;
    // Forwarding address in the word after the header (the LBD slot for
    // learnt clauses, lit0 for problem clauses — the record is dead).
    arena_[cref + 1] = moved;
    cref = moved;
  };
  for (auto& list : watches_) {
    for (Watcher& w : list) {
      ClauseRef untagged = w.cref & ~kBinaryTag;
      reloc(untagged);
      w.cref = untagged | (w.cref & kBinaryTag);
    }
  }
  // Reasons of assigned variables are live roots; reasons of unassigned
  // variables are stale and must not survive as dangling offsets.
  for (const Lit l : trail_) {
    ClauseRef& r = var_data_[static_cast<std::size_t>(l.var())].reason;
    if (r != kNoReason) reloc(r);
  }
  for (Var v = 0; v < num_vars(); ++v) {
    if (value(v) == LBool::kUndef) {
      var_data_[static_cast<std::size_t>(v)].reason = kNoReason;
    }
  }
  // Guarded records are removed only by retire(), which erases their
  // index entry, so every indexed record is live.
  for (auto& entry : activation_clauses_) {
    for (ClauseRef& cref : entry.second) reloc(cref);
  }
  // The clause lists may still carry records retired between reductions;
  // they are dead (detached, marked) and get swept here rather than paying
  // an O(list) erase at every retire().
  const auto sweep = [&](std::vector<ClauseRef>& list) {
    std::size_t keep = 0;
    for (ClauseRef cref : list) {
      if ((arena_[cref] & (kMarkBit | kRelocBit)) == kMarkBit) continue;
      reloc(cref);
      list[keep++] = cref;
    }
    list.resize(keep);
  };
  sweep(problem_clauses_);
  sweep(learnt_clauses_);
  arena_ = std::move(to);
  wasted_ = 0;
}

// ---------------------------------------------------------------------------
// Main search
// ---------------------------------------------------------------------------

std::int64_t Solver::luby(std::int64_t i) {
  // 1-indexed Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  // If i == 2^k - 1, the value is 2^(k-1); otherwise recurse on the
  // position within the current subsequence.
  while (true) {
    std::int64_t k = 1;
    while ((1LL << k) - 1 < i) ++k;
    if (i == (1LL << k) - 1) return 1LL << (k - 1);
    i -= (1LL << (k - 1)) - 1;
  }
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  return solve_entry(assumptions, nullptr, nullptr);
}

Result Solver::solve(const std::vector<Lit>& assumptions,
                     const util::Deadline& deadline) {
  return solve_entry(assumptions, &deadline, nullptr);
}

Result Solver::enumerate(const ModelSink& sink,
                         const std::vector<Lit>& assumptions,
                         const util::Deadline* deadline,
                         EnumerateMode mode) {
  assert(mode == EnumerateMode::kRandom || assumptions.empty());
  return solve_entry(assumptions, deadline, &sink, mode);
}

// Public solve boundary: allocates any variable the assumptions mention
// and keeps the solver at the root level if the search throws.
Result Solver::solve_entry(const std::vector<Lit>& assumptions,
                           const util::Deadline* deadline,
                           const ModelSink* sink, EnumerateMode mode) {
  core_.clear();
  if (!ok_) return Result::kUnsat;
  for (const Lit a : assumptions) ensure_vars(a.var() + 1);
  try {
    return search_loop(assumptions, deadline, sink, mode);
  } catch (...) {
    // OutOfBudgetError from arena growth unwinds mid-search; restore the
    // root level so the solver object stays consistent for callers that
    // catch and keep going.
    cancel_until(0);
    throw;
  }
}

Result Solver::search_loop(const std::vector<Lit>& assumptions,
                           const util::Deadline* deadline,
                           const ModelSink* sink, EnumerateMode mode) {
  if (!ok_) return Result::kUnsat;
  cancel_until(0);
  if (sink != nullptr) scramble_for_descent();
  if (propagate() != kNoReason) {
    ok_ = false;
    return Result::kUnsat;
  }

  // Rescale the learnt budget against the *current* problem size so that
  // clauses added incrementally between solves (e.g. MaxSAT relaxation
  // rounds) grow it; growth applied by earlier reductions is kept.
  max_learnts_ = std::max(
      max_learnts_,
      std::max<double>(1000.0,
                       static_cast<double>(problem_clauses_.size()) / 3.0));

  // Deadlines are polled on a decision + propagation counter (not only on
  // conflicts): conflict-light solves spend all their time propagating,
  // and the root-level propagate() above can already exceed a tight
  // deadline before the first conflict ever happens.
  std::uint64_t next_deadline_poll = stats_.decisions + stats_.propagations;

  std::int64_t restart_round = 0;
  std::vector<Lit>& learnt = learnt_tmp_;
  while (true) {
    const std::int64_t budget = luby(++restart_round) * kRestartBase;
    std::int64_t conflicts_this_round = 0;
    while (true) {
      if (deadline != nullptr &&
          stats_.decisions + stats_.propagations >= next_deadline_poll) {
        next_deadline_poll =
            stats_.decisions + stats_.propagations + kDeadlinePollInterval;
        // Report conflicts to the request budget at the same cadence; a
        // conflict-limit trip cancels the budget token, which the
        // composed deadline observes right below.
        if (util::ResourceBudget* budget = util::current_budget()) {
          budget->add_conflicts(stats_.conflicts -
                                budget_conflicts_reported_);
          budget_conflicts_reported_ = stats_.conflicts;
        }
        if (deadline->expired()) {
          cancel_until(0);
          return Result::kUnknown;
        }
      }
      const ClauseRef conflict = propagate();
      if (conflict != kNoReason) {
        ++stats_.conflicts;
        ++conflicts_this_round;
        if (decision_level() == 0) {
          ok_ = false;
          return Result::kUnsat;  // conflict independent of assumptions
        }
        std::int32_t bt_level = 0;
        analyze(conflict, learnt, bt_level);
        // LBD must be computed before backtracking erases the levels.
        const std::uint32_t lbd = lbd_of_lits(learnt);
        // Never backtrack past the assumption prefix unexpectedly: the
        // learnt clause's asserting literal stays valid because bt_level
        // is computed from the clause itself.
        cancel_until(bt_level);
        // The backjump unassigned variables the enumeration cursor already
        // passed; rescan from the front (assigned prefixes skip fast).
        if (sink != nullptr) enum_cursor_ = 0;
        if (learnt.size() == 1) {
          if (decision_level() > 0) cancel_until(0);
          enqueue(learnt[0], kNoReason);
        } else {
          const ClauseRef cref =
              attach_new_clause(learnt, /*learnt=*/true, lbd);
          clause_bump_activity(cref);
          enqueue(learnt[0], cref);
        }
        var_decay_activity();
        clause_decay_activity();
        if (conflicts_this_round >= budget) {
          ++stats_.restarts;
          cancel_until(0);
          if (sink != nullptr) enum_cursor_ = 0;
          break;  // restart
        }
        continue;
      }
      if (static_cast<double>(learnt_clauses_.size()) >= max_learnts_) {
        max_learnts_ *= 1.3;
        reduce_db();
      }
      // Extend with assumptions, then decide.
      if (decision_level() < static_cast<std::int32_t>(assumptions.size())) {
        const Lit a =
            assumptions[static_cast<std::size_t>(decision_level())];
        if (value(a) == LBool::kTrue) {
          new_decision_level();  // dummy level to keep indices aligned
          continue;
        }
        if (value(a) == LBool::kFalse) {
          analyze_final(a, core_);
          cancel_until(0);
          return Result::kUnsat;
        }
        ++stats_.decisions;
        new_decision_level();
        enqueue(a, kNoReason);
        continue;
      }
      const Lit next = sink != nullptr ? pick_enum_lit() : pick_branch_lit();
      if (next == cnf::kUndefLit) {
        extract_model();
        if (sink != nullptr) {
          ++stats_.enumerated_models;
          const bool more = (*sink)(model_);
          if (mode == EnumerateMode::kDistinct) {
            if (!block_decisions()) {
              return more ? Result::kUnsat : Result::kSat;
            }
            if (more) {
              // The backjump unassigned variables the cursor passed; the
              // next descent propagates ¬dk and branches from there.
              enum_cursor_ = 0;
              continue;
            }
            // Settle a root-level ¬d1 before handing the solver back.
            cancel_until(0);
            if (propagate() != kNoReason) ok_ = false;
            return Result::kSat;
          }
          if (!more) {
            cancel_until(0);
            return Result::kSat;
          }
          // Phase-scrambled rapid restart. The backjump target is a
          // *random* level above the assumption prefix (CMSGen-style
          // random backtracking), biased deep (max of two uniform draws:
          // ~1/3 of the descent redone per model) — shallow cuts still
          // occur with quadratically decaying probability, so the search
          // keeps returning towards the root and no prefix gets pinned.
          // Decision order and phases are re-scrambled so the redone
          // suffix branches freshly, and the Luby round restarts so the
          // next harvest is immediate.
          const auto floor_level =
              static_cast<std::int32_t>(assumptions.size());
          std::int32_t target = floor_level;
          if (decision_level() > floor_level) {
            const auto span =
                static_cast<std::uint64_t>(decision_level() - floor_level);
            target += static_cast<std::int32_t>(
                std::max(rng_.next_below(span), rng_.next_below(span)));
          }
          cancel_until(target);
          scramble_for_descent();
          ++stats_.restarts;
          restart_round = 0;
          break;
        }
        cancel_until(0);
        return Result::kSat;
      }
      ++stats_.decisions;
      new_decision_level();
      enqueue(next, kNoReason);
    }
  }
}

bool Solver::block_decisions() {
  const std::int32_t k = decision_level();
  if (k == 0) {
    ok_ = false;
    return false;
  }
  // ¬dk first (the literal the clause asserts after the backjump), then
  // ¬d(k-1), the other watch, which stays false at level k-1.
  block_tmp_.clear();
  for (std::size_t i = trail_lim_.size(); i-- > 0;) {
    block_tmp_.push_back(~trail_[static_cast<std::size_t>(trail_lim_[i])]);
  }
  cancel_until(k - 1);
  if (k == 1) {
    enqueue(block_tmp_[0], kNoReason);
  } else {
    enqueue(block_tmp_[0],
            attach_new_clause(block_tmp_, /*learnt=*/false, /*lbd=*/0));
  }
  return true;
}

void Solver::extract_model() {
  const auto n = static_cast<std::size_t>(num_vars());
  model_.resize(n);
  // One word of the packed model at a time. Unassigned vars
  // (disconnected) default to their saved phase.
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t end = std::min(n, base + 64);
    std::uint64_t word = 0;
    for (std::size_t v = base; v < end; ++v) {
      const LBool val = assigns_[v];
      const bool bit =
          val == LBool::kUndef ? saved_phase_[v] : val == LBool::kTrue;
      word |= static_cast<std::uint64_t>(bit) << (v - base);
    }
    model_.set_word(base >> 6, word);
  }
}

LBool Solver::fixed_value(Lit l) const {
  const auto v = static_cast<std::size_t>(l.var());
  if (var_data_[v].level != 0) return LBool::kUndef;
  return value(l);
}

const SolverStats& Solver::stats() const {
  stats_.arena_bytes = arena_.size() * sizeof(std::uint32_t);
  stats_.wasted_bytes = wasted_ * sizeof(std::uint32_t);
  stats_.max_learnts = max_learnts_;
  stats_.vars_allocated = static_cast<std::uint64_t>(num_vars());
  stats_.peak_rss_bytes = obs::peak_rss_bytes();
  return stats_;
}

Solver::~Solver() {
  // Fold this solver's lifetime counters into the process-wide registry.
  // Aggregating at destruction (rather than per-solve) keeps the hot path
  // free of registry lookups; the instrument references are cached after
  // the first solver dies.
  auto& registry = obs::Registry::global();
  static obs::Counter& decisions = registry.counter("sat_decisions_total");
  static obs::Counter& propagations =
      registry.counter("sat_propagations_total");
  static obs::Counter& conflicts = registry.counter("sat_conflicts_total");
  static obs::Counter& restarts = registry.counter("sat_restarts_total");
  static obs::Counter& models = registry.counter("sat_enumerated_models_total");
  static obs::Counter& solvers = registry.counter("sat_solvers_total");
  static obs::Gauge& arena_peak = registry.gauge("sat_arena_peak_bytes");
  decisions.add(stats_.decisions);
  propagations.add(stats_.propagations);
  conflicts.add(stats_.conflicts);
  restarts.add(stats_.restarts);
  models.add(stats_.enumerated_models);
  solvers.inc();
  arena_peak.update_max(
      static_cast<double>(arena_.size() * sizeof(std::uint32_t)));
}

}  // namespace manthan::sat
