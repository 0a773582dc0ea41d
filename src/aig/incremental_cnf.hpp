// Incremental CNF encoding of AIG cones with a persistent gate cache.
//
// The one-shot encoder (aig_cnf.hpp) re-encodes a cone's every node on
// every call. Across the verify/repair rounds of the synthesis loop that
// is almost all wasted work: a repair rewrites one candidate's cone while
// every other cone — and most of the repaired cone, since repairs conjoin
// onto the old root — is structurally unchanged. This encoder keeps a
// node → literal cache for the lifetime of the target solver, so encode()
// emits definitional clauses only for gates never seen before and the
// per-round encoding cost is O(changed cone), not O(formula).
//
// Gates, not nodes. Plain Tseitin gives every 2-input AND its own
// variable, so a learnt tree — an OR of path cubes, each a balanced tree
// of 2-input ANDs — costs the solver d−1 variables per depth-d path, all
// of which it must assign in every counterexample model. Instead each
// fresh node is encoded as one gate over as many nodes as it can absorb
// (the standard AIG→CNF compaction, Eén, Mishchenko and Sörensson,
// "Applying Logic Synthesis for Speeding Up SAT", SAT 2007):
//   * AND supergate: fanins reached through plain edges that are not yet
//     encoded are absorbed, recursively and newer fanin first; the walk
//     stops at inputs, at complemented edges, at encoded nodes and at
//     kMaxLeaves leaves. g ↔ AND(leaves) is k binary clauses plus one
//     long clause.
//   * mux / XOR: ¬(s∧t) ∧ ¬(¬s∧e) over two fresh ANDs is one ITE gate,
//     4 clauses plus the 2 redundant ones unless they are tautologies
//     (XOR).
// Absorption needs no fanout test. An absorbed interior node gets no
// variable; if a later cone reaches it, it is encoded then as a gate of
// its own, duplicating part of the logic. That is sound because every
// emitted definition is a full equivalence over a fresh variable, and the
// leaf cap bounds the duplication.
//
// AIG nodes are immutable and hash-consed, so a gate's definitional
// clauses are valid forever; cached definitions are never retired. What
// *does* change round to round — which root a candidate output variable
// is tied to — is the client's business and is expressed with activation
// literals on top of the literals returned here (see
// dqbf::IncrementalRefutation).
//
// The one-shot encoder stays plain Tseitin on purpose: the workload
// generators and the spec builder build matrices with it, and the
// certificate checker and PedantLite's verify step (both through
// dqbf::build_refutation_cnf) rely on it being an encoding independent of
// this one.
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

  /// Most leaves one AND supergate absorbs.
  static constexpr std::size_t kMaxLeaves = 32;

  struct Stats {
    std::uint64_t encode_calls = 0;
    /// Gate variables defined: AND supergates, ITE gates and the
    /// constant. Absorbed interior nodes get none.
    std::uint64_t gates_encoded = 0;
    /// Cache hits observed while walking cones (leaves whose definitions
    /// were already in the solver).
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
  enum class GateKind : std::uint8_t { kAnd, kIte };

  /// One node of the walk. Its gate's leaves sit in leaves_ from
  /// leaf_begin to the end: frames above it truncate their own leaves
  /// away when they pop, so the leaf buffer is a stack like frames_.
  struct Frame {
    std::uint32_t node;
    std::uint32_t leaf_begin;
    GateKind kind;
    bool expanded;
  };

  cnf::Lit input_literal(std::int32_t id);
  bool fresh_and(std::uint32_t n) const;
  /// Append the leaves of fresh AND node `n`'s gate to leaves_: s, t, e
  /// for a mux, the supergate's leaves otherwise.
  GateKind collect_leaves(std::uint32_t n);
  cnf::Lit leaf_literal(Ref leaf) const;
  /// Define a fresh variable as the gate over leaves_[leaf_begin..].
  cnf::Lit emit_gate(GateKind kind, std::size_t leaf_begin);
  /// Hand one clause to the sink through the reused clause buffer.
  void emit(std::initializer_list<cnf::Lit> lits);

  const Aig& aig_;
  NewVarFn new_var_;
  EmitClauseFn emit_;
  /// Literal of each gate root and input, indexed by node (kUndefLit: no
  /// variable yet); grown to the manager's size at every encode().
  std::vector<cnf::Lit> lit_of_node_;
  std::unordered_map<std::int32_t, cnf::Lit> input_map_;
  // Walk scratch, reused across encode() calls.
  std::vector<Frame> frames_;
  std::vector<Ref> leaves_;
  std::vector<Ref> pending_;  // supergate frontier in collect_leaves()
  cnf::Clause clause_buf_;    // reused by emit() and emit_gate()
  Stats stats_;
};

}  // namespace manthan::aig
