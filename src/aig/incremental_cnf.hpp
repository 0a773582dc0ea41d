// Incremental Tseitin encoding of AIG cones with a persistent node cache.
//
// The one-shot encoder (aig_cnf.hpp) re-encodes a cone's every node on
// every call. Across the verify/repair rounds of the synthesis loop that
// is almost all wasted work: a repair rewrites one candidate's cone while
// every other cone — and most of the repaired cone, since repairs conjoin
// onto the old root — is structurally unchanged. This encoder keeps a
// node → literal cache for the lifetime of the target solver, so encode()
// emits definitional clauses only for nodes never seen before and the
// per-round encoding cost is O(changed cone), not O(formula).
//
// AIG nodes are immutable and hash-consed, so a node's definitional
// clauses (lit ↔ fanin0 ∧ fanin1) are valid forever; cached definitions
// are never retired. What *does* change round to round — which root a
// candidate output variable is tied to — is the client's business and is
// expressed with activation literals on top of the literals returned
// here (see dqbf::IncrementalRefutation).
//
// The clause sink is a pair of callbacks rather than a sat::Solver so the
// aig module stays independent of the solver layer.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/cnf.hpp"

namespace manthan::aig {

class IncrementalCnfEncoder {
 public:
  using NewVarFn = std::function<cnf::Var()>;
  using EmitClauseFn = std::function<void(const cnf::Clause&)>;

  struct Stats {
    std::uint64_t encode_calls = 0;
    /// AIG nodes Tseitin-encoded (fresh cache entries).
    std::uint64_t nodes_encoded = 0;
    /// Cache hits observed while walking cones (boundary nodes whose
    /// definitions were already in the solver).
    std::uint64_t nodes_reused = 0;
    std::uint64_t clauses_emitted = 0;
  };

  /// `aig` must outlive the encoder and is append-only (nodes are never
  /// rewritten), which is what makes the cache sound.
  IncrementalCnfEncoder(const Aig& aig, NewVarFn new_var,
                        EmitClauseFn emit);

  /// Map input id `input_id` to an existing literal. Must be called
  /// before the input is first reached by encode(); unmapped input id i
  /// defaults to variable i (the DQBF convention).
  void map_input(std::int32_t input_id, cnf::Lit lit);

  /// Encode the not-yet-encoded part of the cone of `root`; returns a
  /// literal whose truth value equals `root` under the emitted
  /// definitions.
  cnf::Lit encode(Ref root);

  const Stats& stats() const { return stats_; }

 private:
  cnf::Lit input_literal(std::int32_t id);
  /// Hand one clause to the sink through the reused clause buffer.
  void emit(std::initializer_list<cnf::Lit> lits);

  const Aig& aig_;
  NewVarFn new_var_;
  EmitClauseFn emit_;
  /// Literal of each encoded node, indexed by node (kUndefLit: not yet
  /// encoded); grown to the manager's size at every encode().
  std::vector<cnf::Lit> lit_of_node_;
  std::unordered_map<std::int32_t, cnf::Lit> input_map_;
  std::vector<std::uint32_t> walk_stack_;  // reused across encode() calls
  cnf::Clause clause_buf_;                 // reused by emit()
  Stats stats_;
};

}  // namespace manthan::aig
