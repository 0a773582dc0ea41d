#include "aig/aig.hpp"

#include <algorithm>
#include <cassert>

#include "util/budget.hpp"

namespace manthan::aig {

namespace {

/// Fibonacci multiplicative hash of an operand-pair key: one multiply is
/// enough spread for a power-of-two open-addressing table, and is
/// measurably cheaper than a full 64-bit mixer on the all-hit lookup
/// loads the repair loop generates.
inline std::size_t strash_hash(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 16);
}

}  // namespace

Aig::Aig() {
  nodes_.push_back({});  // node 0: constant false
}

Ref Aig::input(std::int32_t input_id) {
  const auto it = input_of_id_.find(input_id);
  if (it != input_of_id_.end()) return it->second;
  reserve_node_slot();
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  Node n;
  n.input_id = input_id;
  nodes_.push_back(n);
  const Ref r = make_ref(index, false);
  input_of_id_.emplace(input_id, r);
  return r;
}

bool Aig::is_input(Ref r) const {
  return nodes_[ref_node(r)].input_id >= 0;
}

std::int32_t Aig::input_id(Ref r) const {
  assert(is_input(r));
  return nodes_[ref_node(r)].input_id;
}

void Aig::reserve_node_slot() {
  if (nodes_.size() < nodes_.capacity()) return;
  // Node-table growth is an instrumented hazard point: the capacity delta
  // is charged to the thread's ResourceBudget and a (real or injected)
  // bad_alloc becomes OutOfBudgetError instead of process death.
  const std::size_t new_cap = std::max<std::size_t>(nodes_.capacity() * 2, 64);
  util::guarded_grow(util::fault::Site::kAigNodeAlloc,
                     (new_cap - nodes_.capacity()) * sizeof(Node),
                     [&] { nodes_.reserve(new_cap); });
}

void Aig::strash_grow() {
  const std::size_t cap = strash_keys_.empty() ? 1024 : strash_keys_.size() * 2;
  std::vector<std::uint64_t> keys;
  std::vector<Ref> vals;
  util::guarded_grow(util::fault::Site::kAigNodeAlloc,
                     cap * (sizeof(std::uint64_t) + sizeof(Ref)), [&] {
                       keys.assign(cap, 0);
                       vals.assign(cap, 0);
                     });
  const std::size_t mask = cap - 1;
  for (std::size_t i = 0; i < strash_keys_.size(); ++i) {
    const std::uint64_t key = strash_keys_[i];
    if (key == 0) continue;
    std::size_t slot = strash_hash(key) & mask;
    while (keys[slot] != 0) slot = (slot + 1) & mask;
    keys[slot] = key;
    vals[slot] = strash_vals_[i];
  }
  strash_keys_ = std::move(keys);
  strash_vals_ = std::move(vals);
}

Ref Aig::make_and(Ref a, Ref b) {
  // Canonical order so that and(a,b) == and(b,a) hash-cons together.
  if (a > b) std::swap(a, b);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
  if (strash_used_ * 2 >= strash_keys_.size()) strash_grow();
  const std::size_t mask = strash_keys_.size() - 1;
  std::size_t slot = strash_hash(key) & mask;
  while (strash_keys_[slot] != 0) {
    if (strash_keys_[slot] == key) return strash_vals_[slot];
    slot = (slot + 1) & mask;
  }
  reserve_node_slot();
  const auto index = static_cast<std::uint32_t>(nodes_.size());
  Node n;
  n.fanin0 = a;
  n.fanin1 = b;
  nodes_.push_back(n);
  const Ref r = make_ref(index, false);
  strash_keys_[slot] = key;
  strash_vals_[slot] = r;
  ++strash_used_;
  return r;
}

Ref Aig::and_gate(Ref a, Ref b) {
  // Constant folding and trivial cases.
  if (a == kFalseRef || b == kFalseRef) return kFalseRef;
  if (a == kTrueRef) return b;
  if (b == kTrueRef) return a;
  if (a == b) return a;
  if (a == ref_not(b)) return kFalseRef;
  return make_and(a, b);
}

Ref Aig::xor_gate(Ref a, Ref b) {
  // a ^ b == ~(~(a & ~b) & ~(~a & b))
  return ref_not(
      and_gate(ref_not(and_gate(a, ref_not(b))),
               ref_not(and_gate(ref_not(a), b))));
}

Ref Aig::ite_gate(Ref c, Ref t, Ref e) {
  return ref_not(and_gate(ref_not(and_gate(c, t)),
                          ref_not(and_gate(ref_not(c), e))));
}

Ref Aig::and_all(const std::vector<Ref>& refs) {
  if (refs.empty()) return kTrueRef;
  // Balanced reduction keeps the graph shallow. Each layer is written
  // over the front of the previous one (slot i/2 is free once pair i has
  // been read).
  std::vector<Ref> layer = refs;
  while (layer.size() > 1) {
    std::size_t next = 0;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      layer[next++] = and_gate(layer[i], layer[i + 1]);
    }
    if (layer.size() % 2 == 1) layer[next++] = layer.back();
    layer.resize(next);
  }
  return layer[0];
}

Ref Aig::or_all(const std::vector<Ref>& refs) {
  std::vector<Ref> negated;
  negated.reserve(refs.size());
  for (const Ref r : refs) negated.push_back(ref_not(r));
  return ref_not(and_all(negated));
}

namespace {

/// Per-thread visit marks of cone_topo_order, stamped with an epoch so a
/// walk never clears them: node n is unvisited while stamp[n] < epoch,
/// open (fanins pushed) at epoch, done at epoch + 1. Stamps left by walks
/// over other managers are all below the current epoch, so one array
/// serves every manager the thread walks.
struct WalkMarks {
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  std::vector<std::uint32_t> stack;
};

thread_local WalkMarks t_walk_marks;

}  // namespace

std::vector<std::uint32_t> cone_topo_order(const Aig& aig, Ref root) {
  std::vector<std::uint32_t> order;
  cone_topo_order(aig, &root, 1, order);
  return order;
}

void cone_topo_order(const Aig& aig, const Ref* roots, std::size_t count,
                     std::vector<std::uint32_t>& order) {
  WalkMarks& marks = t_walk_marks;
  if (marks.stamp.size() < aig.num_nodes()) {
    marks.stamp.resize(aig.num_nodes(), 0);
  }
  if (marks.epoch >= 0xfffffffdu) {
    std::fill(marks.stamp.begin(), marks.stamp.end(), 0);
    marks.epoch = 0;
  }
  marks.epoch += 2;
  const std::uint32_t open = marks.epoch;
  const std::uint32_t done = open + 1;
  order.clear();
  std::vector<std::uint32_t>& stack = marks.stack;
  for (std::size_t r = 0; r < count; ++r) {
    stack.clear();
    stack.push_back(ref_node(roots[r]));
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      std::uint32_t& mark = marks.stamp[n];
      if (mark == done) {
        stack.pop_back();
        continue;
      }
      const Aig::Node& node = aig.node(n);
      const bool is_leaf = node.input_id >= 0 || n == 0;
      if (mark != open) {
        mark = open;
        if (!is_leaf) {
          stack.push_back(ref_node(node.fanin0));
          stack.push_back(ref_node(node.fanin1));
          continue;
        }
      }
      mark = done;
      order.push_back(n);
      stack.pop_back();
    }
  }
}

Ref Aig::compose(Ref root,
                 const std::unordered_map<std::int32_t, Ref>& substitution) {
  const std::vector<std::uint32_t> order = cone_topo_order(*this, root);
  // Rebuilt ref of every cone node, indexed by node: each entry is
  // written (in topological order) before it is read, so the per-thread
  // array is never cleared. and_gate below only appends nodes past the
  // cone, so the size taken here covers every index read.
  thread_local std::vector<Ref> rebuilt;
  if (rebuilt.size() < nodes_.size()) rebuilt.resize(nodes_.size());
  for (const std::uint32_t n : order) {
    const Node& node = nodes_[n];
    if (n == 0) {
      rebuilt[n] = kFalseRef;
    } else if (node.input_id >= 0) {
      const auto it = substitution.find(node.input_id);
      rebuilt[n] = it != substitution.end() ? it->second
                                            : make_ref(n, false);
    } else {
      const Ref f0 = rebuilt[ref_node(node.fanin0)] ^
                     (ref_complemented(node.fanin0) ? 1u : 0u);
      const Ref f1 = rebuilt[ref_node(node.fanin1)] ^
                     (ref_complemented(node.fanin1) ? 1u : 0u);
      rebuilt[n] = and_gate(f0, f1);
    }
  }
  return rebuilt[ref_node(root)] ^ (ref_complemented(root) ? 1u : 0u);
}

Ref Aig::cofactor(Ref root, std::int32_t input_id, bool value) {
  return compose(root, {{input_id, constant(value)}});
}

std::vector<std::int32_t> Aig::support(Ref root) const {
  std::vector<std::int32_t> ids;
  for (const std::uint32_t n : cone_topo_order(*this, root)) {
    if (nodes_[n].input_id >= 0) ids.push_back(nodes_[n].input_id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t Aig::cone_size(Ref root) const {
  std::size_t count = 0;
  for (const std::uint32_t n : cone_topo_order(*this, root)) {
    if (n != 0 && nodes_[n].input_id < 0) ++count;
  }
  return count;
}

bool Aig::evaluate(
    Ref root, const std::unordered_map<std::int32_t, bool>& inputs) const {
  std::unordered_map<std::uint32_t, bool> value;
  for (const std::uint32_t n : cone_topo_order(*this, root)) {
    const Node& node = nodes_[n];
    if (n == 0) {
      value[n] = false;
    } else if (node.input_id >= 0) {
      const auto it = inputs.find(node.input_id);
      assert(it != inputs.end());
      value[n] = it->second;
    } else {
      const bool f0 =
          value[ref_node(node.fanin0)] != ref_complemented(node.fanin0);
      const bool f1 =
          value[ref_node(node.fanin1)] != ref_complemented(node.fanin1);
      value[n] = f0 && f1;
    }
  }
  return value[ref_node(root)] != ref_complemented(root);
}

bool Aig::evaluate(Ref root, const cnf::Assignment& a) const {
  std::unordered_map<std::uint32_t, bool> value;
  for (const std::uint32_t n : cone_topo_order(*this, root)) {
    const Node& node = nodes_[n];
    if (n == 0) {
      value[n] = false;
    } else if (node.input_id >= 0) {
      value[n] = a.value(static_cast<cnf::Var>(node.input_id));
    } else {
      const bool f0 =
          value[ref_node(node.fanin0)] != ref_complemented(node.fanin0);
      const bool f1 =
          value[ref_node(node.fanin1)] != ref_complemented(node.fanin1);
      value[n] = f0 && f1;
    }
  }
  return value[ref_node(root)] != ref_complemented(root);
}

Ref import_cone(const Aig& src, Aig& dst, Ref root,
                std::unordered_map<std::uint32_t, Ref>& node_map) {
  const auto translate = [&node_map](Ref r) {
    return node_map.at(ref_node(r)) ^ (ref_complemented(r) ? 1u : 0u);
  };
  for (const std::uint32_t idx : cone_topo_order(src, root)) {
    if (node_map.find(idx) != node_map.end()) continue;
    const Aig::Node& node = src.node(idx);
    Ref mapped;
    if (idx == ref_node(kFalseRef)) {
      mapped = kFalseRef;
    } else if (node.input_id >= 0) {
      mapped = dst.input(node.input_id);
    } else {
      mapped = dst.and_gate(translate(node.fanin0), translate(node.fanin1));
    }
    node_map.emplace(idx, mapped);
  }
  return translate(root);
}

}  // namespace manthan::aig
