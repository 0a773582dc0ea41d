#include "bdd/bdd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>

namespace manthan::bdd {

namespace {

constexpr std::size_t kInitialSlots = std::size_t{1} << 10;

/// Hash of a node or ite key: a multiplicative triple hash plus the
/// splitmix64 finaliser, which spreads consecutive ids over the whole
/// table so linear probing stays short.
std::size_t hash3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  std::uint64_t h = a;
  h = h * 0x9e3779b97f4a7c15ULL + b;
  h = h * 0x9e3779b97f4a7c15ULL + c;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<std::size_t>(h);
}

}  // namespace

Bdd::Bdd() : unique_(kInitialSlots, 0), ite_cache_(kInitialSlots) {
  nodes_.push_back({kTerminalLevel, kFalseNode, kFalseNode});  // 0: false
  nodes_.push_back({kTerminalLevel, kTrueNode, kTrueNode});    // 1: true
}

void Bdd::declare_order(const std::vector<std::int32_t>& vars) {
  for (const std::int32_t v : vars) level_of(v);
}

std::uint32_t Bdd::level_of(std::int32_t var) {
  const auto it = level_of_var_.find(var);
  if (it != level_of_var_.end()) return it->second;
  const auto level = static_cast<std::uint32_t>(var_of_level_.size());
  level_of_var_.emplace(var, level);
  var_of_level_.push_back(var);
  return level;
}

std::vector<std::uint32_t> Bdd::sorted_levels(
    const std::vector<std::int32_t>& vars) {
  std::vector<std::uint32_t> levels;
  levels.reserve(vars.size());
  for (const std::int32_t v : vars) levels.push_back(level_of(v));
  std::sort(levels.begin(), levels.end());
  return levels;
}

NodeId Bdd::mk(std::uint32_t level, NodeId lo, NodeId hi) {
  if ((++op_counter_ & 0xfff) == 0 && abort_check_ && abort_check_()) {
    throw BddAborted();
  }
  if (lo == hi) return lo;
  const std::size_t mask = unique_.size() - 1;
  std::size_t slot = hash3(level, lo, hi) & mask;
  for (; unique_[slot] != 0; slot = (slot + 1) & mask) {
    const Node& n = nodes_[unique_[slot]];
    if (n.level == level && n.lo == lo && n.hi == hi) return unique_[slot];
  }
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back({level, lo, hi});
  unique_[slot] = id;
  if (2 * (nodes_.size() - 2) > unique_.size()) grow_unique();
  return id;
}

void Bdd::grow_unique() {
  unique_.assign(2 * unique_.size(), 0);
  const std::size_t mask = unique_.size() - 1;
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    std::size_t slot = hash3(n.level, n.lo, n.hi) & mask;
    while (unique_[slot] != 0) slot = (slot + 1) & mask;
    unique_[slot] = id;
  }
}

void Bdd::insert_ite(const IteEntry& entry) {
  if (2 * (ite_entries_ + 1) > ite_cache_.size()) {
    std::vector<IteEntry> old(2 * ite_cache_.size());
    old.swap(ite_cache_);
    ite_entries_ = 0;
    for (const IteEntry& e : old) {
      if (e.f != 0) insert_ite(e);
    }
  }
  const std::size_t mask = ite_cache_.size() - 1;
  std::size_t slot = hash3(entry.f, entry.g, entry.h) & mask;
  while (ite_cache_[slot].f != 0) slot = (slot + 1) & mask;
  ite_cache_[slot] = entry;
  ++ite_entries_;
}

NodeId Bdd::var_node(std::int32_t var) {
  return mk(level_of(var), kFalseNode, kTrueNode);
}

NodeId Bdd::literal(std::int32_t var, bool positive) {
  const std::uint32_t level = level_of(var);
  return positive ? mk(level, kFalseNode, kTrueNode)
                  : mk(level, kTrueNode, kFalseNode);
}

NodeId Bdd::ite(NodeId f, NodeId g, NodeId h) {
  // Terminal cases.
  if (f == kTrueNode) return g;
  if (f == kFalseNode) return h;
  if (g == h) return g;
  if (g == kTrueNode && h == kFalseNode) return f;

  const std::size_t mask = ite_cache_.size() - 1;
  for (std::size_t slot = hash3(f, g, h) & mask; ite_cache_[slot].f != 0;
       slot = (slot + 1) & mask) {
    const IteEntry& e = ite_cache_[slot];
    if (e.f == f && e.g == g && e.h == h) return e.result;
  }

  const std::uint32_t top = std::min(
      {nodes_[f].level, nodes_[g].level, nodes_[h].level});
  const auto cofactor = [&](NodeId n, bool positive) {
    if (nodes_[n].level != top) return n;
    return positive ? nodes_[n].hi : nodes_[n].lo;
  };
  const NodeId hi = ite(cofactor(f, true), cofactor(g, true),
                        cofactor(h, true));
  const NodeId lo = ite(cofactor(f, false), cofactor(g, false),
                        cofactor(h, false));
  const NodeId result = mk(top, lo, hi);
  // The recursion may have grown the table: probe again to insert.
  insert_ite({f, g, h, result});
  return result;
}

NodeId Bdd::quantify(NodeId f, const std::vector<std::uint32_t>& levels,
                     bool existential, std::vector<NodeId>& memo) {
  if (is_terminal(f)) return f;
  if (memo[f] != kNoNode) return memo[f];
  const Node n = nodes_[f];
  // Levels are sorted; everything quantified lies at or below some level,
  // but we simply test membership.
  const bool quantify_here =
      std::binary_search(levels.begin(), levels.end(), n.level);
  const NodeId lo = quantify(n.lo, levels, existential, memo);
  const NodeId hi = quantify(n.hi, levels, existential, memo);
  NodeId result;
  if (quantify_here) {
    result = existential ? or_op(lo, hi) : and_op(lo, hi);
  } else {
    result = mk(n.level, lo, hi);
  }
  memo[f] = result;
  return result;
}

NodeId Bdd::exists(NodeId f, const std::vector<std::int32_t>& vars) {
  const std::vector<std::uint32_t> levels = sorted_levels(vars);
  std::vector<NodeId> memo(nodes_.size(), kNoNode);
  return quantify(f, levels, /*existential=*/true, memo);
}

NodeId Bdd::forall(NodeId f, const std::vector<std::int32_t>& vars) {
  const std::vector<std::uint32_t> levels = sorted_levels(vars);
  std::vector<NodeId> memo(nodes_.size(), kNoNode);
  return quantify(f, levels, /*existential=*/false, memo);
}

NodeId Bdd::restrict_level(NodeId f, std::uint32_t level, bool value,
                           std::vector<NodeId>& memo) {
  if (is_terminal(f) || nodes_[f].level > level) return f;
  if (memo[f] != kNoNode) return memo[f];
  const Node n = nodes_[f];
  NodeId result;
  if (n.level == level) {
    result = value ? n.hi : n.lo;
  } else {
    result = mk(n.level, restrict_level(n.lo, level, value, memo),
                restrict_level(n.hi, level, value, memo));
  }
  memo[f] = result;
  return result;
}

NodeId Bdd::restrict_var(NodeId f, std::int32_t var, bool value) {
  const std::uint32_t level = level_of(var);
  std::vector<NodeId> memo(nodes_.size(), kNoNode);
  return restrict_level(f, level, value, memo);
}

NodeId Bdd::compose(NodeId f, std::int32_t var, NodeId g) {
  // f[var := g] == ite(g, f|var=1, f|var=0)
  return ite(g, restrict_var(f, var, true), restrict_var(f, var, false));
}

NodeId Bdd::from_cnf(const cnf::CnfFormula& formula) {
  return *from_cnf_limited(formula, std::numeric_limits<std::size_t>::max());
}

std::optional<NodeId> Bdd::from_cnf_limited(const cnf::CnfFormula& formula,
                                            std::size_t max_nodes) {
  // Declare variables in index order for a predictable default ordering.
  for (cnf::Var v = 0; v < formula.num_vars(); ++v) level_of(v);
  std::vector<NodeId> clauses;
  clauses.reserve(formula.clauses().size());
  for (const cnf::Clause& clause : formula.clauses()) {
    NodeId c = kFalseNode;
    for (const cnf::Lit l : clause) {
      c = or_op(c, literal(l.var(), !l.negated()));
    }
    clauses.push_back(c);
  }
  // Deepest top level first (terminals included, so an empty clause ends
  // the build at once).
  std::stable_sort(clauses.begin(), clauses.end(),
                   [this](NodeId a, NodeId b) {
                     return nodes_[a].level > nodes_[b].level;
                   });
  NodeId acc = kTrueNode;
  for (const NodeId c : clauses) {
    acc = and_op(acc, c);
    if (acc == kFalseNode) break;
    if (nodes_.size() > max_nodes) return std::nullopt;
  }
  return acc;
}

std::vector<std::int32_t> Bdd::support(NodeId f) const {
  std::vector<std::int32_t> vars;
  std::vector<NodeId> stack{f};
  std::vector<bool> visited(nodes_.size(), false);
  std::vector<std::uint32_t> levels;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (is_terminal(n) || visited[n]) continue;
    visited[n] = true;
    levels.push_back(nodes_[n].level);
    stack.push_back(nodes_[n].lo);
    stack.push_back(nodes_[n].hi);
  }
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  vars.reserve(levels.size());
  for (const std::uint32_t l : levels) vars.push_back(var_of_level_[l]);
  return vars;
}

bool Bdd::evaluate(
    NodeId f, const std::unordered_map<std::int32_t, bool>& values) const {
  NodeId n = f;
  while (!is_terminal(n)) {
    const auto it = values.find(var_of_level_[nodes_[n].level]);
    assert(it != values.end());
    n = it->second ? nodes_[n].hi : nodes_[n].lo;
  }
  return n == kTrueNode;
}

double Bdd::sat_count(NodeId f, std::size_t num_vars) const {
  // Count over the declared level space, then scale by variables outside
  // the declared order.
  const std::size_t declared = var_of_level_.size();
  // Model counts are non-negative: -1 marks "not computed yet".
  std::vector<double> memo(nodes_.size(), -1.0);
  // count(n) = models over levels strictly below n.level ... standard
  // "scaled at edges" formulation.
  const std::function<double(NodeId)> count = [&](NodeId n) -> double {
    if (n == kFalseNode) return 0.0;
    if (n == kTrueNode) return 1.0;
    if (memo[n] >= 0.0) return memo[n];
    const Node& node = nodes_[n];
    const auto weight = [&](NodeId child) -> double {
      const std::uint32_t child_level =
          is_terminal(child) ? static_cast<std::uint32_t>(declared)
                             : nodes_[child].level;
      return count(child) *
             std::pow(2.0, static_cast<double>(child_level) -
                               static_cast<double>(node.level) - 1.0);
    };
    memo[n] = weight(node.lo) + weight(node.hi);
    return memo[n];
  };
  double total;
  if (is_terminal(f)) {
    total = (f == kTrueNode) ? std::pow(2.0, static_cast<double>(declared))
                             : 0.0;
  } else {
    total = count(f) *
            std::pow(2.0, static_cast<double>(nodes_[f].level));
  }
  // Variables beyond the declared order are unconstrained.
  assert(num_vars >= declared);
  return total * std::pow(2.0, static_cast<double>(num_vars - declared));
}

bool Bdd::pick_model(NodeId f,
                     std::unordered_map<std::int32_t, bool>& out) const {
  if (f == kFalseNode) return false;
  NodeId n = f;
  while (!is_terminal(n)) {
    const Node& node = nodes_[n];
    const bool go_high = node.hi != kFalseNode;
    out[var_of_level_[node.level]] = go_high;
    n = go_high ? node.hi : node.lo;
  }
  return true;
}

std::size_t Bdd::dag_size(NodeId f) const {
  std::vector<NodeId> stack{f};
  std::vector<bool> visited(nodes_.size(), false);
  std::size_t count = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (visited[n]) continue;
    visited[n] = true;
    ++count;
    if (!is_terminal(n)) {
      stack.push_back(nodes_[n].lo);
      stack.push_back(nodes_[n].hi);
    }
  }
  return count;
}

aig::Ref bdd_to_aig(const Bdd& bdd, NodeId f, aig::Aig& manager) {
  constexpr aig::Ref kNoRef = ~aig::Ref{0};
  std::vector<aig::Ref> memo(bdd.num_nodes(), kNoRef);
  const std::function<aig::Ref(NodeId)> convert =
      [&](NodeId n) -> aig::Ref {
    if (n == kFalseNode) return aig::kFalseRef;
    if (n == kTrueNode) return aig::kTrueRef;
    if (memo[n] != kNoRef) return memo[n];
    const aig::Ref selector = manager.input(bdd.var_of(n));
    const aig::Ref result = manager.ite_gate(selector, convert(bdd.high(n)),
                                             convert(bdd.low(n)));
    memo[n] = result;
    return result;
  };
  return convert(f);
}

}  // namespace manthan::bdd
