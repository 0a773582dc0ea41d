#include "aig/incremental_cnf.hpp"

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

cnf::Lit IncrementalCnfEncoder::encode(Ref root) {
  ++stats_.encode_calls;
  // Depth-first walk that stops at cached nodes, so only the fresh part
  // of the cone is visited at all. A node is expanded (fanins pushed) on
  // first visit and encoded once both fanins are cached. The manager may
  // have grown since the last call; the cache covers its current size.
  if (lit_of_node_.size() < aig_.num_nodes()) {
    lit_of_node_.resize(aig_.num_nodes(), cnf::kUndefLit);
  }
  walk_stack_.clear();
  walk_stack_.push_back(ref_node(root));
  while (!walk_stack_.empty()) {
    const std::uint32_t n = walk_stack_.back();
    if (lit_of_node_[n] != cnf::kUndefLit) {
      ++stats_.nodes_reused;
      walk_stack_.pop_back();
      continue;
    }
    const Aig::Node& node = aig_.node(n);
    if (n == 0) {
      // Constant node: materialize a variable fixed to false on first use.
      const cnf::Lit lit = cnf::pos(new_var_());
      emit({~lit});
      lit_of_node_[n] = lit;
      ++stats_.nodes_encoded;
      walk_stack_.pop_back();
      continue;
    }
    if (node.input_id >= 0) {
      lit_of_node_[n] = input_literal(node.input_id);
      ++stats_.nodes_encoded;
      walk_stack_.pop_back();
      continue;
    }
    const cnf::Lit lit0 = lit_of_node_[ref_node(node.fanin0)];
    const cnf::Lit lit1 = lit_of_node_[ref_node(node.fanin1)];
    if (lit0 == cnf::kUndefLit || lit1 == cnf::kUndefLit) {
      if (lit0 == cnf::kUndefLit) {
        walk_stack_.push_back(ref_node(node.fanin0));
      } else {
        ++stats_.nodes_reused;
      }
      if (lit1 == cnf::kUndefLit) {
        walk_stack_.push_back(ref_node(node.fanin1));
      } else {
        ++stats_.nodes_reused;
      }
      continue;
    }
    const cnf::Lit a = lit0 ^ ref_complemented(node.fanin0);
    const cnf::Lit b = lit1 ^ ref_complemented(node.fanin1);
    const cnf::Lit n_lit = cnf::pos(new_var_());
    emit({~n_lit, a});
    emit({~n_lit, b});
    emit({~a, ~b, n_lit});
    lit_of_node_[n] = n_lit;
    ++stats_.nodes_encoded;
    walk_stack_.pop_back();
  }
  return lit_of_node_[ref_node(root)] ^ ref_complemented(root);
}

}  // namespace manthan::aig
