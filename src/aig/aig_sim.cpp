#include "aig/aig_sim.hpp"

#include <algorithm>
#include <cassert>

namespace manthan::aig {

std::uint64_t simulate64(
    const Aig& aig, Ref root,
    const std::unordered_map<std::int32_t, std::uint64_t>& input_patterns) {
  std::unordered_map<std::uint32_t, std::uint64_t> value;
  for (const std::uint32_t n : cone_topo_order(aig, root)) {
    const Aig::Node& node = aig.node(n);
    if (n == 0) {
      value[n] = 0;
    } else if (node.input_id >= 0) {
      const auto it = input_patterns.find(node.input_id);
      value[n] = it != input_patterns.end() ? it->second : 0;
    } else {
      const std::uint64_t f0 = value[ref_node(node.fanin0)] ^
                               (ref_complemented(node.fanin0) ? ~0ULL : 0);
      const std::uint64_t f1 = value[ref_node(node.fanin1)] ^
                               (ref_complemented(node.fanin1) ? ~0ULL : 0);
      value[n] = f0 & f1;
    }
  }
  return value[ref_node(root)] ^ (ref_complemented(root) ? ~0ULL : 0);
}

namespace {

/// Words per simulation block: each gate evaluates kSimBlockWords words
/// (1024 samples) in one tight loop instead of one word per gate visit,
/// while the per-gate scratch slot (128 bytes) stays cache-resident
/// across blocks.
constexpr std::size_t kSimBlockWords = 16;

/// All-zero block read by constants and out-of-matrix inputs.
constexpr std::uint64_t kZeroBlock[kSimBlockWords] = {};

}  // namespace

std::vector<std::uint64_t> simulate_matrix(const Aig& aig, Ref root,
                                           const cnf::SampleMatrix& matrix) {
  std::vector<std::uint64_t> out(matrix.num_words());
  if (out.empty()) return out;
  const std::vector<std::uint32_t> order = cone_topo_order(aig, root);
  // Flatten the cone once: leaves resolve to matrix columns (or the zero
  // block), gates to scratch slots. The block loop then evaluates gates
  // only, lane-wide, without hash lookups. `slot` maps a node index to
  // its position in `order`; every cone entry is written before it is
  // read, so the per-thread array is never cleared.
  thread_local std::vector<std::uint32_t> slot;
  if (slot.size() < aig.num_nodes()) slot.resize(aig.num_nodes());
  struct Source {
    const std::uint64_t* column = nullptr;  // non-null: leaf
    std::uint32_t gate = 0;                 // otherwise: scratch slot index
  };
  struct Gate {
    std::uint32_t slot0 = 0;  // Source indices of the two fanins
    std::uint32_t slot1 = 0;
    std::uint64_t inv0 = 0;
    std::uint64_t inv1 = 0;
  };
  std::vector<Source> sources(order.size());
  std::vector<Gate> gates;
  gates.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::uint32_t n = order[i];
    slot[n] = static_cast<std::uint32_t>(i);
    const Aig::Node& node = aig.node(n);
    if (n == 0 || node.input_id >= 0) {
      sources[i].column =
          (n != 0 &&
           node.input_id < static_cast<std::int32_t>(matrix.num_vars()))
              ? matrix.column(static_cast<cnf::Var>(node.input_id))
              : kZeroBlock;
    } else {
      sources[i].gate = static_cast<std::uint32_t>(gates.size());
      gates.push_back({slot[ref_node(node.fanin0)],
                       slot[ref_node(node.fanin1)],
                       ref_complemented(node.fanin0) ? ~0ULL : 0,
                       ref_complemented(node.fanin1) ? ~0ULL : 0});
    }
  }
  const std::uint64_t root_inv = ref_complemented(root) ? ~0ULL : 0;
  const std::uint32_t root_slot = slot[ref_node(root)];

  std::vector<std::uint64_t> scratch(gates.size() * kSimBlockWords);
  const std::size_t words = matrix.num_words();
  for (std::size_t w = 0; w < words; w += kSimBlockWords) {
    const std::size_t n = std::min(kSimBlockWords, words - w);
    // Value of Source s for this block: leaves advance with the block
    // (except the zero block), gates read their scratch slot.
    const auto src = [&](std::uint32_t s) -> const std::uint64_t* {
      const Source& source = sources[s];
      if (source.column != nullptr) {
        return source.column == kZeroBlock ? kZeroBlock : source.column + w;
      }
      return scratch.data() + source.gate * kSimBlockWords;
    };
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const Gate& gate = gates[g];
      std::uint64_t* dst = scratch.data() + g * kSimBlockWords;
      const std::uint64_t* a = src(gate.slot0);
      const std::uint64_t* b = src(gate.slot1);
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = (a[i] ^ gate.inv0) & (b[i] ^ gate.inv1);
      }
    }
    const std::uint64_t* root_words = src(root_slot);
    for (std::size_t i = 0; i < n; ++i) out[w + i] = root_words[i] ^ root_inv;
  }
  // Mask the tail: callers popcount the result directly.
  out[words - 1] &= matrix.tail_mask();
  return out;
}

namespace {

/// Evaluate `root` for all assignments of `ids`; calls `visit` with each
/// 64-pattern word. Returns false early if visit returns false.
template <typename Visit>
bool for_all_patterns(const Aig& aig, Ref root,
                      const std::vector<std::int32_t>& ids, Visit visit) {
  const std::size_t k = ids.size();
  // The first six inputs are packed into the bit positions of one word.
  std::unordered_map<std::int32_t, std::uint64_t> patterns;
  static constexpr std::uint64_t kBasePatterns[6] = {
      0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
      0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};
  for (std::size_t i = 0; i < k && i < 6; ++i) {
    patterns[ids[i]] = kBasePatterns[i];
  }
  const std::size_t high_bits = k > 6 ? k - 6 : 0;
  const std::uint64_t blocks = 1ULL << high_bits;
  const std::uint64_t valid_mask =
      k >= 6 ? ~0ULL : (1ULL << (1ULL << k)) - 1;
  for (std::uint64_t block = 0; block < blocks; ++block) {
    for (std::size_t i = 6; i < k; ++i) {
      patterns[ids[i]] = ((block >> (i - 6)) & 1) ? ~0ULL : 0ULL;
    }
    if (!visit(simulate64(aig, root, patterns), valid_mask)) return false;
  }
  return true;
}

}  // namespace

bool is_tautology(const Aig& aig, Ref root) {
  const std::vector<std::int32_t> ids = aig.support(root);
  assert(ids.size() <= 24 && "exhaustive check limited to small supports");
  return for_all_patterns(
      aig, root, ids, [](std::uint64_t word, std::uint64_t mask) {
        return (word & mask) == mask;
      });
}

bool semantically_equal(const Aig& aig, Ref a, Ref b) {
  // Equality over the union of supports == xnor is a tautology; but avoid
  // mutating the manager: simulate both and compare words.
  std::vector<std::int32_t> ids = aig.support(a);
  for (const std::int32_t id : aig.support(b)) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  assert(ids.size() <= 24 && "exhaustive check limited to small supports");

  const std::size_t k = ids.size();
  std::unordered_map<std::int32_t, std::uint64_t> patterns;
  static constexpr std::uint64_t kBasePatterns[6] = {
      0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
      0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL};
  for (std::size_t i = 0; i < k && i < 6; ++i) {
    patterns[ids[i]] = kBasePatterns[i];
  }
  const std::size_t high_bits = k > 6 ? k - 6 : 0;
  const std::uint64_t blocks = 1ULL << high_bits;
  const std::uint64_t valid_mask =
      k >= 6 ? ~0ULL : (1ULL << (1ULL << k)) - 1;
  for (std::uint64_t block = 0; block < blocks; ++block) {
    for (std::size_t i = 6; i < k; ++i) {
      patterns[ids[i]] = ((block >> (i - 6)) & 1) ? ~0ULL : 0ULL;
    }
    const std::uint64_t wa = simulate64(aig, a, patterns);
    const std::uint64_t wb = simulate64(aig, b, patterns);
    if (((wa ^ wb) & valid_mask) != 0) return false;
  }
  return true;
}

std::vector<bool> truth_table(const Aig& aig, Ref root,
                              const std::vector<std::int32_t>& input_ids) {
  const std::size_t k = input_ids.size();
  assert(k <= 24 && "truth table limited to small supports");
  std::vector<bool> table;
  table.reserve(1ULL << k);
  std::unordered_map<std::int32_t, bool> inputs;
  for (std::uint64_t row = 0; row < (1ULL << k); ++row) {
    for (std::size_t j = 0; j < k; ++j) {
      inputs[input_ids[j]] = ((row >> j) & 1) != 0;
    }
    table.push_back(aig.evaluate(root, inputs));
  }
  return table;
}

}  // namespace manthan::aig
