#include "aig/aig_sim.hpp"

#include <algorithm>
#include <cassert>

namespace manthan::aig {

namespace {

/// Words per simulation block: each gate evaluates up to kSimBlockWords
/// words (1024 patterns) in one tight loop instead of one word per gate
/// visit, while the per-gate scratch slot (128 bytes) stays
/// cache-resident across blocks.
constexpr std::size_t kSimBlockWords = 16;

/// All-zero block read by constants and out-of-matrix inputs.
constexpr std::uint64_t kZeroBlock[kSimBlockWords] = {};

/// Input patterns of the first six enumerated inputs: input j toggles
/// every 2^j bits, so one word covers all 64 assignments of the six.
constexpr std::uint64_t kBasePatterns[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};

/// A cone flattened for word-parallel simulation. Every cone node is an
/// operand (its position in the walk) with a kSimBlockWords-word scratch
/// slot; gates hold the operand indices of their fanins and inversion
/// masks, leaves the input id they read. Per block, `operand[o]` points
/// at the words of operand o: a gate at its own slot, the constant at
/// the zero block, and a leaf wherever its caller binds it (a matrix
/// column, or enumerated patterns written into the leaf's own slot).
struct FlatCone {
  struct Gate {
    std::uint32_t out = 0;
    std::uint32_t in0 = 0;
    std::uint32_t in1 = 0;
    std::uint64_t inv0 = 0;
    std::uint64_t inv1 = 0;
  };
  struct Leaf {
    std::uint32_t operand = 0;
    std::int32_t input_id = 0;
  };
  struct Root {
    std::uint32_t operand = 0;
    std::uint64_t inv = 0;
  };
  std::vector<Gate> gates;
  std::vector<Leaf> leaves;
  std::vector<Root> roots;
  std::vector<const std::uint64_t*> operand;
  std::vector<std::uint64_t> scratch;
  // Walk buffer and node index -> operand map: every cone entry of
  // `slot` is written before it is read, so it is never cleared.
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> slot;

  std::uint64_t* slot_words(std::uint32_t o) {
    return scratch.data() + std::size_t{o} * kSimBlockWords;
  }

  /// Evaluate every gate over the first `n` words of the current block.
  void eval(std::size_t n) {
    const std::uint64_t* const* op = operand.data();
    for (const Gate& gate : gates) {
      std::uint64_t* dst = slot_words(gate.out);
      const std::uint64_t* a = op[gate.in0];
      const std::uint64_t* b = op[gate.in1];
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = (a[i] ^ gate.inv0) & (b[i] ^ gate.inv1);
      }
    }
  }

  /// Word i of root r in the current block.
  std::uint64_t root_word(std::size_t r, std::size_t i) const {
    return operand[roots[r].operand][i] ^ roots[r].inv;
  }
};

thread_local FlatCone t_flat;

/// The one flattening step: walk the union cone of `roots` once and lay
/// it out in the thread's FlatCone. Gate and constant operands are bound
/// here; leaf operands are left for the caller to bind per block.
FlatCone& flatten(const Aig& aig, const Ref* roots, std::size_t count) {
  FlatCone& c = t_flat;
  cone_topo_order(aig, roots, count, c.order);
  if (c.slot.size() < aig.num_nodes()) c.slot.resize(aig.num_nodes());
  c.gates.clear();
  c.leaves.clear();
  c.roots.clear();
  c.operand.assign(c.order.size(), kZeroBlock);
  if (c.scratch.size() < c.order.size() * kSimBlockWords) {
    c.scratch.resize(c.order.size() * kSimBlockWords);
  }
  for (std::size_t i = 0; i < c.order.size(); ++i) {
    const std::uint32_t n = c.order[i];
    const auto o = static_cast<std::uint32_t>(i);
    c.slot[n] = o;
    const Aig::Node& node = aig.node(n);
    if (n == 0) continue;  // the constant keeps the zero block
    if (node.input_id >= 0) {
      c.leaves.push_back({o, node.input_id});
    } else {
      c.gates.push_back({o, c.slot[ref_node(node.fanin0)],
                         c.slot[ref_node(node.fanin1)],
                         ref_complemented(node.fanin0) ? ~0ULL : 0,
                         ref_complemented(node.fanin1) ? ~0ULL : 0});
      c.operand[o] = c.slot_words(o);
    }
  }
  for (std::size_t r = 0; r < count; ++r) {
    c.roots.push_back({c.slot[ref_node(roots[r])],
                       ref_complemented(roots[r]) ? ~0ULL : 0});
  }
  return c;
}

/// Evaluate the flattened cone `c` for every assignment of k enumerated
/// inputs; leaf l takes the role of input `position[l]` (< k), or of
/// input l when `position` is null. Calls `visit(c, n)` after each block
/// of n words; pattern p of the whole enumeration is bit p % 64 of word
/// p / 64, so input j is bit j of p. Below six inputs the single word
/// holds 2^(6-k) copies of the 2^k patterns (input j < k repeats every
/// 2^(j+1) bits), so whole-word tests need no mask. Blocks grow from one
/// word to kSimBlockWords, so a check that fails early pays for little
/// more than one word. Returns false as soon as `visit` does.
template <typename Visit>
bool for_all_patterns(FlatCone& c, std::size_t k,
                      const std::size_t* position, Visit visit) {
  const std::uint64_t words = k > 6 ? 1ULL << (k - 6) : 1;
  for (const FlatCone::Leaf& leaf : c.leaves) {
    c.operand[leaf.operand] = c.slot_words(leaf.operand);
  }
  std::uint64_t w = 0;
  for (std::size_t block = 1; w < words;
       block = std::min(2 * block, kSimBlockWords)) {
    const auto n =
        static_cast<std::size_t>(std::min<std::uint64_t>(block, words - w));
    for (std::size_t l = 0; l < c.leaves.size(); ++l) {
      std::uint64_t* dst = c.slot_words(c.leaves[l].operand);
      const std::size_t j = position != nullptr ? position[l] : l;
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = j < 6 ? kBasePatterns[j]
                       : (((w + i) >> (j - 6)) & 1) != 0 ? ~0ULL : 0;
      }
    }
    c.eval(n);
    if (!visit(c, n)) return false;
    w += n;
  }
  return true;
}

/// True iff the disjunction of `literals[0..count)` holds for every
/// assignment of their union support.
bool disjunction_is_tautology(const Aig& aig, const Ref* literals,
                              std::size_t count) {
  FlatCone& c = flatten(aig, literals, count);
  assert(c.leaves.size() <= 24 &&
         "exhaustive check limited to small supports");
  return for_all_patterns(
      c, c.leaves.size(), nullptr,
      [](const FlatCone& f, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          std::uint64_t word = 0;
          for (std::size_t r = 0; r < f.roots.size(); ++r) {
            word |= f.root_word(r, i);
          }
          if (word != ~0ULL) return false;
        }
        return true;
      });
}

}  // namespace

std::vector<std::uint64_t> simulate_matrix(const Aig& aig, Ref root,
                                           const cnf::SampleMatrix& matrix) {
  std::vector<std::uint64_t> out(matrix.num_words());
  if (out.empty()) return out;
  FlatCone& c = flatten(aig, &root, 1);
  const std::size_t words = matrix.num_words();
  for (std::size_t w = 0; w < words; w += kSimBlockWords) {
    const std::size_t n = std::min(kSimBlockWords, words - w);
    // Leaves read their matrix column from word w on; inputs outside
    // the matrix keep the zero block.
    for (const FlatCone::Leaf& leaf : c.leaves) {
      if (leaf.input_id < static_cast<std::int32_t>(matrix.num_vars())) {
        c.operand[leaf.operand] =
            matrix.column(static_cast<cnf::Var>(leaf.input_id)) + w;
      }
    }
    c.eval(n);
    for (std::size_t i = 0; i < n; ++i) out[w + i] = c.root_word(0, i);
  }
  // Mask the tail: callers popcount the result directly.
  out[words - 1] &= matrix.tail_mask();
  return out;
}

bool is_tautology(const Aig& aig, Ref root) {
  return disjunction_is_tautology(aig, &root, 1);
}

bool clause_is_tautology(const Aig& aig, const std::vector<Ref>& literals) {
  return disjunction_is_tautology(aig, literals.data(), literals.size());
}

bool semantically_equal(const Aig& aig, Ref a, Ref b) {
  // Both cones in one flattening, enumerated over their union support.
  const Ref roots[2] = {a, b};
  FlatCone& c = flatten(aig, roots, 2);
  assert(c.leaves.size() <= 24 &&
         "exhaustive check limited to small supports");
  return for_all_patterns(
      c, c.leaves.size(), nullptr,
      [](const FlatCone& f, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          if (f.root_word(0, i) != f.root_word(1, i)) return false;
        }
        return true;
      });
}

std::vector<bool> truth_table(const Aig& aig, Ref root,
                              const std::vector<std::int32_t>& input_ids) {
  const std::size_t k = input_ids.size();
  assert(k <= 24 && "truth table limited to small supports");
  FlatCone& c = flatten(aig, &root, 1);
  std::vector<std::size_t> position(c.leaves.size());
  for (std::size_t l = 0; l < c.leaves.size(); ++l) {
    const auto it = std::find(input_ids.begin(), input_ids.end(),
                              c.leaves[l].input_id);
    assert(it != input_ids.end() && "input_ids must cover the support");
    position[l] = static_cast<std::size_t>(it - input_ids.begin());
  }
  std::vector<bool> table(1ULL << k);
  std::size_t row = 0;
  for_all_patterns(
      c, k, position.data(),
      [&](const FlatCone& f, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint64_t word = f.root_word(0, i);
          for (int bit = 0; bit < 64 && row < table.size(); ++bit) {
            table[row++] = ((word >> bit) & 1) != 0;
          }
        }
        return true;
      });
  return table;
}

}  // namespace manthan::aig
