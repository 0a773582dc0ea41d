#include "aig/aiger.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace manthan::aig {

AigerModule read_aiger_ascii(std::istream& in, Aig& manager) {
  std::string magic;
  std::size_t max_index = 0;
  std::size_t num_inputs = 0;
  std::size_t num_latches = 0;
  std::size_t num_outputs = 0;
  std::size_t num_ands = 0;
  if (!(in >> magic >> max_index >> num_inputs >> num_latches >>
        num_outputs >> num_ands)) {
    throw std::runtime_error("aiger: malformed header");
  }
  if (magic != "aag") {
    throw std::runtime_error("aiger: expected ASCII 'aag' header");
  }
  if (num_latches != 0) {
    throw std::runtime_error("aiger: latches not supported");
  }
  if (num_inputs + num_ands > max_index) {
    throw std::runtime_error("aiger: header maximum index too small");
  }

  // Every literal must stay within the header's declared maximum index.
  const auto check_range = [&](std::size_t lit) {
    if (lit > 2 * max_index + 1) {
      throw std::runtime_error("aiger: literal " + std::to_string(lit) +
                               " out of range for maximum index " +
                               std::to_string(max_index));
    }
  };

  // AIGER literal -> our edge. Literal 0 = false, 1 = true.
  std::map<std::size_t, Ref> edge_of;  // keyed by even (variable) literal
  const auto lit_to_ref = [&](std::size_t lit) -> Ref {
    if (lit == 0) return kFalseRef;
    if (lit == 1) return kTrueRef;
    const auto it = edge_of.find(lit & ~std::size_t{1});
    if (it == edge_of.end()) {
      throw std::runtime_error("aiger: literal " + std::to_string(lit) +
                               " used before definition");
    }
    return (lit & 1) ? ref_not(it->second) : it->second;
  };

  for (std::size_t i = 0; i < num_inputs; ++i) {
    std::size_t lit = 0;
    if (!(in >> lit) || (lit & 1) != 0 || lit == 0) {
      throw std::runtime_error("aiger: bad input literal");
    }
    check_range(lit);
    edge_of[lit] = manager.input(static_cast<std::int32_t>(i));
  }
  std::vector<std::size_t> output_lits(num_outputs);
  for (std::size_t i = 0; i < num_outputs; ++i) {
    if (!(in >> output_lits[i])) {
      throw std::runtime_error("aiger: bad output literal");
    }
    check_range(output_lits[i]);
  }
  for (std::size_t i = 0; i < num_ands; ++i) {
    std::size_t lhs = 0;
    std::size_t rhs0 = 0;
    std::size_t rhs1 = 0;
    if (!(in >> lhs >> rhs0 >> rhs1) || (lhs & 1) != 0) {
      throw std::runtime_error("aiger: bad AND line");
    }
    check_range(lhs);
    check_range(rhs0);
    check_range(rhs1);
    // AIGER requires rhs < lhs, so fanins are already defined.
    edge_of[lhs] = manager.and_gate(lit_to_ref(rhs0), lit_to_ref(rhs1));
  }

  AigerModule module;
  module.num_inputs = num_inputs;
  for (const std::size_t lit : output_lits) {
    module.outputs.push_back(lit_to_ref(lit));
  }
  return module;
}

AigerModule read_aiger_ascii_string(const std::string& text, Aig& manager) {
  std::istringstream in(text);
  return read_aiger_ascii(in, manager);
}

void append_aiger_ascii(std::string& out, const Aig& manager,
                        const std::vector<Ref>& outputs) {
  // Union cone in topological order.
  std::vector<std::uint32_t> cone;
  cone_topo_order(manager, outputs.data(), outputs.size(), cone);
  // Assign AIGER variable indices: inputs first (ascending input id),
  // then AND nodes in topological order.
  std::vector<std::pair<std::int32_t, std::uint32_t>> inputs;  // (id, node)
  std::vector<std::uint32_t> ands;
  for (const std::uint32_t n : cone) {
    if (n == 0) continue;
    if (manager.node(n).input_id >= 0) {
      inputs.emplace_back(manager.node(n).input_id, n);
    } else {
      ands.push_back(n);
    }
  }
  std::sort(inputs.begin(), inputs.end());

  // Even AIGER literal of each cone node, indexed by node: written before
  // it is read, so the per-thread array is never cleared.
  thread_local std::vector<std::uint32_t> aiger_lit;
  if (aiger_lit.size() < manager.num_nodes()) {
    aiger_lit.resize(manager.num_nodes());
  }
  std::uint32_t next_var = 1;
  for (const auto& input : inputs) aiger_lit[input.second] = 2 * next_var++;
  for (const std::uint32_t n : ands) aiger_lit[n] = 2 * next_var++;

  const auto append_lit = [&out](Ref r) {
    out += std::to_string(r == kFalseRef  ? 0u
                          : r == kTrueRef ? 1u
                                          : aiger_lit[ref_node(r)] +
                                                (ref_complemented(r) ? 1u : 0u));
  };

  out += "aag ";
  out += std::to_string(next_var - 1);
  out += ' ';
  out += std::to_string(inputs.size());
  out += " 0 ";
  out += std::to_string(outputs.size());
  out += ' ';
  out += std::to_string(ands.size());
  out += '\n';
  for (const auto& input : inputs) {
    out += std::to_string(aiger_lit[input.second]);
    out += '\n';
  }
  for (const Ref o : outputs) {
    append_lit(o);
    out += '\n';
  }
  for (const std::uint32_t n : ands) {
    const Aig::Node& node = manager.node(n);
    out += std::to_string(aiger_lit[n]);
    out += ' ';
    append_lit(node.fanin0);
    out += ' ';
    append_lit(node.fanin1);
    out += '\n';
  }
}

std::string to_aiger_ascii_string(const Aig& manager,
                                  const std::vector<Ref>& outputs) {
  std::string out;
  append_aiger_ascii(out, manager, outputs);
  return out;
}

}  // namespace manthan::aig
