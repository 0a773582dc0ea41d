// And-Inverter Graphs with structural hashing.
//
// Role in the paper: ABC — the container in which candidate and final
// Henkin functions are represented and manipulated. Functions are edges
// (`Ref`s) into a shared Aig manager; an edge is a node index plus a
// complementation bit, so negation is free. The manager provides:
//   * constant folding + structural hashing (two-level canonical ANDs),
//   * derived gates (or/xor/ite/equiv) on top of AND/NOT,
//   * composition (substituting functions for inputs) — the Substitute
//     step of Algorithm 1,
//   * structural support — used to assert that a synthesized f_i really
//     only depends on its Henkin set H_i,
//   * Tseitin CNF encoding (aig_cnf.cpp) for SAT queries over functions,
//   * 64-way parallel and exhaustive simulation (aig_sim.cpp).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cnf/cnf.hpp"

namespace manthan::aig {

/// An edge: node index << 1 | complement bit.
using Ref = std::uint32_t;

inline constexpr Ref kFalseRef = 0;  // node 0, plain
inline constexpr Ref kTrueRef = 1;   // node 0, complemented

inline constexpr Ref make_ref(std::uint32_t node, bool complemented) {
  return (node << 1) | (complemented ? 1u : 0u);
}
inline constexpr std::uint32_t ref_node(Ref r) { return r >> 1; }
inline constexpr bool ref_complemented(Ref r) { return (r & 1u) != 0; }
inline constexpr Ref ref_not(Ref r) { return r ^ 1u; }
inline constexpr Ref ref_regular(Ref r) { return r & ~1u; }

class Aig {
 public:
  Aig();

  /// Edge for a constant.
  static constexpr Ref constant(bool value) {
    return value ? kTrueRef : kFalseRef;
  }

  /// Edge for the primary input identified by `input_id` (created on first
  /// use). Input ids are caller-chosen; the DQBF layer uses CNF variables.
  Ref input(std::int32_t input_id);

  /// True iff `r` points at an input node; returns its id via out param.
  bool is_input(Ref r) const;
  std::int32_t input_id(Ref r) const;

  // --- gate constructors (hash-consed, constant-folding) ----------------
  Ref and_gate(Ref a, Ref b);
  Ref or_gate(Ref a, Ref b) { return ref_not(and_gate(ref_not(a), ref_not(b))); }
  Ref xor_gate(Ref a, Ref b);
  Ref equiv_gate(Ref a, Ref b) { return ref_not(xor_gate(a, b)); }
  Ref ite_gate(Ref c, Ref t, Ref e);
  Ref implies_gate(Ref a, Ref b) { return or_gate(ref_not(a), b); }

  /// Conjunction / disjunction over a list (balanced reduction).
  Ref and_all(const std::vector<Ref>& refs);
  Ref or_all(const std::vector<Ref>& refs);

  /// Substitute: replace each input id in `substitution` by the given
  /// function everywhere in the cone of `root`. Single bottom-up pass; all
  /// mapped inputs are replaced simultaneously.
  Ref compose(Ref root,
              const std::unordered_map<std::int32_t, Ref>& substitution);

  /// Cofactor: fix input `input_id` to a constant.
  Ref cofactor(Ref root, std::int32_t input_id, bool value);

  /// Input ids appearing in the structural cone of `root` (sorted).
  std::vector<std::int32_t> support(Ref root) const;

  /// Number of AND nodes in the cone of `root`.
  std::size_t cone_size(Ref root) const;

  /// Evaluate under a complete input valuation (ids -> bool).
  bool evaluate(Ref root,
                const std::unordered_map<std::int32_t, bool>& inputs) const;

  /// Evaluate with input ids interpreted as CNF variables of `a`.
  bool evaluate(Ref root, const cnf::Assignment& a) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_inputs() const { return input_of_id_.size(); }
  /// Heap bytes of the node table (capacity). Feeds memory gauges; the
  /// strash table is transient and excluded on purpose.
  std::size_t node_bytes() const { return nodes_.capacity() * sizeof(Node); }

  // Internal node accessors (used by the CNF encoder and simulator).
  struct Node {
    Ref fanin0 = 0;
    Ref fanin1 = 0;
    std::int32_t input_id = -1;  // >= 0 iff this is an input node
  };
  const Node& node(std::uint32_t index) const { return nodes_[index]; }

 private:
  Ref make_and(Ref a, Ref b);
  void strash_grow();
  /// Node-table capacity growth through the instrumented
  /// aig.node.alloc hazard point (budget charging + fault injection).
  void reserve_node_slot();

  std::vector<Node> nodes_;
  // Structural-hash table, open addressing with linear probing: the key
  // packs the canonically ordered operand pair (a <= b, both >= 2 because
  // constant operands fold before hashing, so key 0 marks an empty slot);
  // the value is the AND node's Ref. One flat array probe per lookup
  // replaces the unordered_map's bucket pointer chase on the hottest AIG
  // path (every gate constructor lands here). Power-of-two capacity,
  // grown at 50% load.
  std::vector<std::uint64_t> strash_keys_;
  std::vector<Ref> strash_vals_;
  std::size_t strash_used_ = 0;
  std::unordered_map<std::int32_t, Ref> input_of_id_;
};

/// Collect the node indices of the cone of `root` in topological order
/// (fanins before fanouts); includes input and constant nodes. The walk
/// marks nodes in a per-thread array, so walks on different threads never
/// share state, and it only reads `aig`.
std::vector<std::uint32_t> cone_topo_order(const Aig& aig, Ref root);

/// The same walk over the union cone of `roots[0..count)`, written into
/// `order` (cleared first; its capacity is reused): every node appears
/// once, after its fanins. With one root the order equals the
/// single-root overload's.
void cone_topo_order(const Aig& aig, const Ref* roots, std::size_t count,
                     std::vector<std::uint32_t>& order);

/// Rebuild the cone of `root` (a ref in `src`) inside `dst`, reusing the
/// destination's structural hashing. `node_map` maps src node index ->
/// dst ref of the plain node; share it across roots so common logic is
/// imported once. Used wherever functions cross manager boundaries: the
/// racing portfolio hands the winner's vector to the caller, and the
/// service's result cache replays certified cones into each requester's
/// manager.
Ref import_cone(const Aig& src, Aig& dst, Ref root,
                std::unordered_map<std::uint32_t, Ref>& node_map);

}  // namespace manthan::aig
