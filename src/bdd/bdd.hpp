// Reduced Ordered Binary Decision Diagrams.
//
// Role in the paper's ecosystem: the function-manipulation engine behind
// elimination-based DQBF solving (HQS2) and behind definition extraction
// (PedantLite). Provides ite with unique/computed tables, Boolean
// quantification, composition, restriction, model counting and support.
//
// Nodes are immutable and hash-consed; ids 0/1 are the false/true
// terminals. Variables are external integer ids mapped to levels in
// declaration order (declare_order can impose a custom order up front).
//
// Tables. Both are flat open-addressing arrays with linear probing that
// double at 50% load. The unique table holds NodeIds (slot 0 = empty, as
// terminals are never inserted) and compares keys through the node array.
// The computed table holds {f, g, h, result} entries of ite (f == 0 =
// empty, as ite returns before caching when f is a terminal); it is exact
// and unbounded, never a lossy cache. A node's id is the size of the node
// array when it is created. Per-call memos (quantify, restrict, support,
// AIG export, counting) are dense vectors indexed by NodeId, sized to the
// node array on entry.
//
// CNF schedule. from_cnf_limited builds every clause's BDD first, stable-
// sorts them by top level, deepest first, and conjoins them left to right:
// each conjunction then only grows the graph near its top, where an
// in-order schedule rebuilds whole intermediate graphs. ROBDDs are
// canonical, so the result is the same node as for any other schedule.
// The `max_nodes` cap counts every node the manager has allocated, the
// clause BDDs and all intermediate conjunctions included, not just the
// nodes reachable from the result.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/cnf.hpp"

namespace manthan::bdd {

using NodeId = std::uint32_t;

inline constexpr NodeId kFalseNode = 0;
inline constexpr NodeId kTrueNode = 1;

/// Thrown from inside BDD operations when the abort hook fires (node or
/// time budget exceeded); callers translate it into a limit/timeout
/// status. Without this, a single ite/exists call on a blown-up graph
/// could run unboundedly between external budget checks.
class BddAborted : public std::exception {
 public:
  const char* what() const noexcept override {
    return "BDD operation aborted by budget hook";
  }
};

class Bdd {
 public:
  Bdd();

  /// Fix the variable order up front (first = top). Variables not listed
  /// are appended below in order of first use.
  void declare_order(const std::vector<std::int32_t>& vars);

  /// Install an abort predicate, polled periodically from node creation;
  /// when it returns true, the in-flight operation throws BddAborted.
  void set_abort_check(std::function<bool()> check) {
    abort_check_ = std::move(check);
  }

  /// BDD for a single variable (creates it at the bottom of the current
  /// order on first use).
  NodeId var_node(std::int32_t var);
  NodeId literal(std::int32_t var, bool positive);

  static constexpr NodeId constant(bool value) {
    return value ? kTrueNode : kFalseNode;
  }

  // --- operations --------------------------------------------------------
  NodeId ite(NodeId f, NodeId g, NodeId h);
  NodeId not_op(NodeId f) { return ite(f, kFalseNode, kTrueNode); }
  NodeId and_op(NodeId f, NodeId g) { return ite(f, g, kFalseNode); }
  NodeId or_op(NodeId f, NodeId g) { return ite(f, kTrueNode, g); }
  NodeId xor_op(NodeId f, NodeId g) { return ite(f, not_op(g), g); }
  NodeId equiv_op(NodeId f, NodeId g) { return ite(f, g, not_op(g)); }
  NodeId implies_op(NodeId f, NodeId g) { return ite(f, g, kTrueNode); }

  /// Existential / universal quantification over a set of variables.
  NodeId exists(NodeId f, const std::vector<std::int32_t>& vars);
  NodeId forall(NodeId f, const std::vector<std::int32_t>& vars);

  /// Fix a variable to a constant.
  NodeId restrict_var(NodeId f, std::int32_t var, bool value);

  /// Substitute g for var in f: f[var := g].
  NodeId compose(NodeId f, std::int32_t var, NodeId g);

  /// Build the conjunction of a CNF formula (variable i of the formula is
  /// external id i): from_cnf_limited without a cap.
  NodeId from_cnf(const cnf::CnfFormula& formula);

  /// Like from_cnf but aborts (returns nullopt) once the manager holds more
  /// than `max_nodes` nodes after a conjunction — used to bound
  /// definition-extraction effort. Clauses are conjoined deepest top level
  /// first (see the file comment).
  std::optional<NodeId> from_cnf_limited(const cnf::CnfFormula& formula,
                                         std::size_t max_nodes);

  /// Variables in the support of f (external ids, sorted by level).
  std::vector<std::int32_t> support(NodeId f) const;

  /// Evaluate under a complete assignment (external id -> value).
  bool evaluate(NodeId f,
                const std::unordered_map<std::int32_t, bool>& values) const;

  /// Number of satisfying assignments over `num_vars` total variables
  /// (all declared variables must be within that space).
  double sat_count(NodeId f, std::size_t num_vars) const;

  /// One satisfying assignment (over support vars; others unconstrained).
  /// Returns false if f is the false terminal.
  bool pick_model(NodeId f,
                  std::unordered_map<std::int32_t, bool>& out) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  /// Count of distinct nodes in the graph of f (including terminals).
  std::size_t dag_size(NodeId f) const;

  std::int32_t var_of(NodeId n) const { return var_of_level_[nodes_[n].level]; }
  bool is_terminal(NodeId n) const { return n <= 1; }
  NodeId low(NodeId n) const { return nodes_[n].lo; }
  NodeId high(NodeId n) const { return nodes_[n].hi; }

 private:
  struct Node {
    std::uint32_t level;
    NodeId lo;
    NodeId hi;
  };

  /// Computed-table entry: ite(f, g, h) == result.
  struct IteEntry {
    NodeId f, g, h, result;
  };

  static constexpr std::uint32_t kTerminalLevel = 0x7fffffff;
  /// "Not computed yet" in a per-call memo.
  static constexpr NodeId kNoNode = 0xffffffff;

  std::uint32_t level_of(std::int32_t var);
  std::vector<std::uint32_t> sorted_levels(
      const std::vector<std::int32_t>& vars);
  NodeId mk(std::uint32_t level, NodeId lo, NodeId hi);
  void grow_unique();
  void insert_ite(const IteEntry& entry);
  NodeId quantify(NodeId f, const std::vector<std::uint32_t>& levels,
                  bool existential, std::vector<NodeId>& memo);
  NodeId restrict_level(NodeId f, std::uint32_t level, bool value,
                        std::vector<NodeId>& memo);

  std::vector<Node> nodes_;
  std::vector<NodeId> unique_;
  std::vector<IteEntry> ite_cache_;
  std::size_t ite_entries_ = 0;
  std::unordered_map<std::int32_t, std::uint32_t> level_of_var_;
  std::vector<std::int32_t> var_of_level_;
  std::function<bool()> abort_check_;
  std::uint64_t op_counter_ = 0;
};

/// Convert a BDD into an AIG (multiplexer per node); external variable ids
/// become AIG input ids. Used to hand BDD-extracted definitions to the
/// AIG-based synthesis pipeline.
aig::Ref bdd_to_aig(const Bdd& bdd, NodeId f, aig::Aig& manager);

}  // namespace manthan::bdd
