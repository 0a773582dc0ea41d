#include "aig/aig_io.hpp"

#include <cstdint>
#include <ostream>
#include <utility>

namespace manthan::aig {

std::string default_input_name(std::int32_t id) {
  return "x" + std::to_string(id);
}

namespace {

std::vector<Ref> roots_of(const std::vector<NamedFunction>& outputs) {
  std::vector<Ref> roots;
  roots.reserve(outputs.size());
  for (const NamedFunction& o : outputs) roots.push_back(o.function);
  return roots;
}

/// Union of the cones of all outputs in topological order.
std::vector<std::uint32_t> combined_cone(const Aig& aig,
                                         const std::vector<NamedFunction>&
                                             outputs) {
  const std::vector<Ref> roots = roots_of(outputs);
  std::vector<std::uint32_t> order;
  cone_topo_order(aig, roots.data(), roots.size(), order);
  return order;
}

std::string node_name(const Aig& aig, std::uint32_t n) {
  const Aig::Node& node = aig.node(n);
  if (n == 0) return "const0";
  if (node.input_id >= 0) return default_input_name(node.input_id);
  return "n" + std::to_string(n);
}

/// Edge as a (name, inverted) pair.
std::pair<std::string, bool> edge(const Aig& aig, Ref r) {
  return {node_name(aig, ref_node(r)), ref_complemented(r)};
}

/// BLIF text of `outputs` over a node store: `node_at(n)` is node n,
/// `order` its union cone in topological order, and `roots[k]` the edge
/// of output k in that store.
template <typename NodeAt>
void append_blif(std::string& out, const NodeAt& node_at,
                 const std::vector<std::uint32_t>& order,
                 const std::string& model,
                 const std::vector<NamedFunction>& outputs,
                 const std::vector<Ref>& roots) {
  const auto append_name = [&](std::uint32_t n) {
    if (n == 0) {
      out += "const0";
    } else if (node_at(n).input_id >= 0) {
      out += default_input_name(node_at(n).input_id);
    } else {
      out += 'n';
      out += std::to_string(n);
    }
  };
  out += ".model ";
  out += model;
  out += "\n.inputs";
  bool uses_const = false;
  for (const std::uint32_t n : order) {
    if (n == 0) {
      uses_const = true;
    } else if (node_at(n).input_id >= 0) {
      out += ' ';
      append_name(n);
    }
  }
  out += "\n.outputs";
  for (const NamedFunction& o : outputs) {
    out += ' ';
    out += o.name;
  }
  out += '\n';
  if (uses_const) out += ".names const0\n";  // empty cover = constant 0
  // AND nodes: cover over possibly-inverted fanins.
  for (const std::uint32_t n : order) {
    const Aig::Node& node = node_at(n);
    if (n == 0 || node.input_id >= 0) continue;
    out += ".names ";
    append_name(ref_node(node.fanin0));
    out += ' ';
    append_name(ref_node(node.fanin1));
    out += ' ';
    append_name(n);
    out += '\n';
    out += ref_complemented(node.fanin0) ? '0' : '1';
    out += ref_complemented(node.fanin1) ? '0' : '1';
    out += " 1\n";
  }
  // Output drivers (complemented roots get inverter covers).
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    out += ".names ";
    append_name(ref_node(roots[k]));
    out += ' ';
    out += outputs[k].name;
    out += ref_complemented(roots[k]) ? "\n0 1\n" : "\n1 1\n";
  }
  out += ".end\n";
}

}  // namespace

void write_blif(std::ostream& out, const Aig& aig, const std::string& model,
                const std::vector<NamedFunction>& outputs) {
  std::string text;
  append_blif(
      text, [&aig](std::uint32_t n) -> const Aig::Node& { return aig.node(n); },
      combined_cone(aig, outputs), model, outputs, roots_of(outputs));
  out << text;
}

void append_dense_blif(std::string& out, const Aig& aig,
                       const std::string& model,
                       const std::vector<NamedFunction>& outputs) {
  // The nodes a fresh manager gets from import_cone: the constant stays
  // node 0, every other cone node takes the next index in the order of
  // the union-cone walk, and each AND keeps its fanins in that manager's
  // strash order (smaller edge first).
  const std::vector<Ref> roots = roots_of(outputs);
  std::vector<std::uint32_t> walk;
  cone_topo_order(aig, roots.data(), roots.size(), walk);
  // Dense index of each walked node, indexed by `aig` node: written
  // before it is read, so the per-thread array is never cleared.
  thread_local std::vector<std::uint32_t> dense_of;
  if (dense_of.size() < aig.num_nodes()) dense_of.resize(aig.num_nodes());
  std::vector<Aig::Node> nodes(1);
  nodes.reserve(walk.size() + 1);
  const auto dense_ref = [](Ref r) {
    return make_ref(dense_of[ref_node(r)], ref_complemented(r));
  };
  for (const std::uint32_t n : walk) {
    if (n == 0) {
      dense_of[0] = 0;
      continue;
    }
    const Aig::Node& node = aig.node(n);
    Aig::Node dense;
    dense.input_id = node.input_id;
    if (node.input_id < 0) {
      dense.fanin0 = dense_ref(node.fanin0);
      dense.fanin1 = dense_ref(node.fanin1);
      if (dense.fanin0 > dense.fanin1) std::swap(dense.fanin0, dense.fanin1);
    }
    dense_of[n] = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(dense);
  }
  std::vector<Ref> dense_roots;
  dense_roots.reserve(roots.size());
  for (const Ref root : roots) dense_roots.push_back(dense_ref(root));

  // write_blif's walk over that manager: post-order, newer fanin first.
  std::vector<std::uint32_t> order;
  order.reserve(nodes.size());
  std::vector<std::uint8_t> state(nodes.size(), 0);  // 1 open, 2 done
  std::vector<std::uint32_t> stack;
  for (const Ref root : dense_roots) {
    stack.push_back(ref_node(root));
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      if (state[n] == 2) {
        stack.pop_back();
        continue;
      }
      const Aig::Node& node = nodes[n];
      if (state[n] == 0) {
        state[n] = 1;
        if (n != 0 && node.input_id < 0) {
          stack.push_back(ref_node(node.fanin0));
          stack.push_back(ref_node(node.fanin1));
          continue;
        }
      }
      state[n] = 2;
      order.push_back(n);
      stack.pop_back();
    }
  }

  append_blif(
      out, [&nodes](std::uint32_t n) -> const Aig::Node& { return nodes[n]; },
      order, model, outputs, dense_roots);
}

void write_verilog(std::ostream& out, const Aig& aig,
                   const std::string& module,
                   const std::vector<NamedFunction>& outputs) {
  const std::vector<std::uint32_t> cone = combined_cone(aig, outputs);
  std::vector<std::string> inputs;
  for (const std::uint32_t n : cone) {
    if (n != 0 && aig.node(n).input_id >= 0) {
      inputs.push_back(default_input_name(aig.node(n).input_id));
    }
  }

  out << "module " << module << "(";
  bool first = true;
  for (const std::string& in : inputs) {
    out << (first ? "" : ", ") << in;
    first = false;
  }
  for (const NamedFunction& o : outputs) {
    out << (first ? "" : ", ") << o.name;
    first = false;
  }
  out << ");\n";
  for (const std::string& in : inputs) out << "  input " << in << ";\n";
  for (const NamedFunction& o : outputs) {
    out << "  output " << o.name << ";\n";
  }

  const auto expr = [&](Ref r) {
    const auto [name, inv] = edge(aig, r);
    return inv ? "~" + name : name;
  };
  bool uses_const = false;
  for (const std::uint32_t n : cone) {
    if (n == 0) uses_const = true;
  }
  if (uses_const) out << "  wire const0 = 1'b0;\n";
  for (const std::uint32_t n : cone) {
    const Aig::Node& node = aig.node(n);
    if (n == 0 || node.input_id >= 0) continue;
    out << "  wire " << node_name(aig, n) << " = " << expr(node.fanin0)
        << " & " << expr(node.fanin1) << ";\n";
  }
  for (const NamedFunction& o : outputs) {
    out << "  assign " << o.name << " = " << expr(o.function) << ";\n";
  }
  out << "endmodule\n";
}

}  // namespace manthan::aig
