#include "aig/incremental_cnf.hpp"

#include <algorithm>
#include <utility>

namespace manthan::aig {

IncrementalCnfEncoder::IncrementalCnfEncoder(const Aig& aig, NewVarFn new_var,
                                             EmitClauseFn emit)
    : aig_(aig), new_var_(std::move(new_var)), emit_(std::move(emit)) {}

void IncrementalCnfEncoder::map_input(std::int32_t input_id, cnf::Lit lit) {
  input_map_[input_id] = lit;
}

cnf::Lit IncrementalCnfEncoder::input_literal(std::int32_t id) {
  const auto it = input_map_.find(id);
  if (it != input_map_.end()) return it->second;
  return cnf::pos(static_cast<cnf::Var>(id));
}

void IncrementalCnfEncoder::emit(std::initializer_list<cnf::Lit> lits) {
  clause_buf_.assign(lits);
  emit_(clause_buf_);
  ++stats_.clauses_emitted;
}

bool IncrementalCnfEncoder::fresh_and(std::uint32_t n) const {
  // Called on fanins only, and constants fold away before an AND is
  // built, so n is never the constant node.
  return aig_.node(n).input_id < 0 && lit_of_node_[n] == cnf::kUndefLit;
}

IncrementalCnfEncoder::GateKind IncrementalCnfEncoder::collect_leaves(
    std::uint32_t n) {
  const Aig::Node& node = aig_.node(n);
  if (ref_complemented(node.fanin0) && ref_complemented(node.fanin1)) {
    // ¬(p0∧p1) ∧ ¬(q0∧q1) is a mux when p and q share a selector in
    // opposite polarities: ¬(s∧t) ∧ ¬(¬s∧e).
    const std::uint32_t p = ref_node(node.fanin0);
    const std::uint32_t q = ref_node(node.fanin1);
    if (fresh_and(p) && fresh_and(q)) {
      const Aig::Node& pn = aig_.node(p);
      const Aig::Node& qn = aig_.node(q);
      const Ref ps[2] = {pn.fanin0, pn.fanin1};
      const Ref qs[2] = {qn.fanin0, qn.fanin1};
      for (int i = 0; i < 2; ++i) {
        for (int j = 0; j < 2; ++j) {
          if (ps[i] != ref_not(qs[j])) continue;
          leaves_.push_back(ps[i]);      // s
          leaves_.push_back(ps[1 - i]);  // t
          leaves_.push_back(qs[1 - j]);  // e
          return GateKind::kIte;
        }
      }
    }
  }
  // AND supergate: expand plain edges into fresh ANDs, depth first. Each
  // expansion grows the frontier (pending + leaves) by at most one, so
  // kMaxLeaves − 2 expansions keep it within kMaxLeaves; the same budget
  // bounds the work on reconvergent cones. The newer fanin (fanin1, the
  // larger ref) is expanded first. The older one is more likely logic
  // that later cones reach again (the tree under a repair, the tail of a
  // decision list), where absorbing it only duplicates it; on the
  // planted-hard grid this order defines a fifth fewer gates than
  // older-first.
  const std::size_t leaf_begin = leaves_.size();
  std::size_t room = kMaxLeaves - 2;
  pending_.clear();
  pending_.push_back(node.fanin0);
  pending_.push_back(node.fanin1);
  while (!pending_.empty()) {
    const Ref r = pending_.back();
    pending_.pop_back();
    if (room > 0 && !ref_complemented(r) && fresh_and(ref_node(r))) {
      --room;
      const Aig::Node& inner = aig_.node(ref_node(r));
      pending_.push_back(inner.fanin0);
      pending_.push_back(inner.fanin1);
      continue;
    }
    if (std::find(leaves_.begin() + static_cast<std::ptrdiff_t>(leaf_begin),
                  leaves_.end(), r) == leaves_.end()) {
      leaves_.push_back(r);
    }
  }
  return GateKind::kAnd;
}

cnf::Lit IncrementalCnfEncoder::leaf_literal(Ref leaf) const {
  return lit_of_node_[ref_node(leaf)] ^ ref_complemented(leaf);
}

cnf::Lit IncrementalCnfEncoder::emit_gate(GateKind kind,
                                          std::size_t leaf_begin) {
  const cnf::Lit g = cnf::pos(new_var_());
  ++stats_.gates_encoded;
  if (kind == GateKind::kIte) {
    // The node is ¬(s∧t) ∧ ¬(¬s∧e), i.e. g ↔ ITE(s, a, b) with a = ¬t
    // and b = ¬e.
    const cnf::Lit s = leaf_literal(leaves_[leaf_begin]);
    const cnf::Lit a = ~leaf_literal(leaves_[leaf_begin + 1]);
    const cnf::Lit b = ~leaf_literal(leaves_[leaf_begin + 2]);
    emit({~s, ~a, g});
    emit({~s, a, ~g});
    emit({s, ~b, g});
    emit({s, b, ~g});
    if (a != ~b) {
      emit({~a, ~b, g});
      emit({a, b, ~g});
    }
    return g;
  }
  // g ↔ AND(leaves): g → leaf for each leaf, and all leaves → g.
  clause_buf_.clear();
  for (std::size_t i = leaf_begin; i < leaves_.size(); ++i) {
    clause_buf_.push_back(~leaf_literal(leaves_[i]));
  }
  clause_buf_.push_back(g);
  emit_(clause_buf_);
  ++stats_.clauses_emitted;
  for (std::size_t i = leaf_begin; i < leaves_.size(); ++i) {
    emit({~g, leaf_literal(leaves_[i])});
  }
  return g;
}

cnf::Lit IncrementalCnfEncoder::encode(Ref root) {
  ++stats_.encode_calls;
  // Depth-first walk that stops at cached nodes, so only the fresh part
  // of the cone is visited at all. A gate root collects its leaves on
  // first visit, pushes the uncached ones, and is emitted once it is on
  // top again (by then every leaf has a literal). Iterative with member
  // scratch: decision lists grow cones thousands of gates deep. The
  // manager may have grown since the last call; the cache covers its
  // current size.
  if (lit_of_node_.size() < aig_.num_nodes()) {
    lit_of_node_.resize(aig_.num_nodes(), cnf::kUndefLit);
  }
  frames_.clear();
  leaves_.clear();
  frames_.push_back({ref_node(root), 0, GateKind::kAnd, false});
  while (!frames_.empty()) {
    Frame& frame = frames_.back();
    const std::uint32_t n = frame.node;
    if (frame.expanded) {
      lit_of_node_[n] = emit_gate(frame.kind, frame.leaf_begin);
      leaves_.resize(frame.leaf_begin);
      frames_.pop_back();
      continue;
    }
    if (lit_of_node_[n] != cnf::kUndefLit) {
      ++stats_.nodes_reused;
      frames_.pop_back();
      continue;
    }
    if (n == 0) {
      // Constant node: materialize a variable fixed to false on first use.
      const cnf::Lit lit = cnf::pos(new_var_());
      emit({~lit});
      lit_of_node_[n] = lit;
      ++stats_.gates_encoded;
      frames_.pop_back();
      continue;
    }
    const Aig::Node& node = aig_.node(n);
    if (node.input_id >= 0) {
      lit_of_node_[n] = input_literal(node.input_id);
      frames_.pop_back();
      continue;
    }
    const auto leaf_begin = static_cast<std::uint32_t>(leaves_.size());
    frame.expanded = true;
    frame.leaf_begin = leaf_begin;
    frame.kind = collect_leaves(n);
    // `frame` dangles once frames_ grows.
    const auto leaf_end = static_cast<std::uint32_t>(leaves_.size());
    for (std::uint32_t i = leaf_begin; i < leaf_end; ++i) {
      const std::uint32_t leaf = ref_node(leaves_[i]);
      if (lit_of_node_[leaf] == cnf::kUndefLit) {
        frames_.push_back({leaf, 0, GateKind::kAnd, false});
      } else {
        ++stats_.nodes_reused;
      }
    }
  }
  return lit_of_node_[ref_node(root)] ^ ref_complemented(root);
}

}  // namespace manthan::aig
