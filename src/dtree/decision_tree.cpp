#include "dtree/decision_tree.hpp"

#include <algorithm>
#include <cassert>
#include <functional>

#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace manthan::dtree {

namespace {

/// Gini impurity of a (pos, total) split part.
double gini(std::size_t pos, std::size_t total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(pos) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

// The node-level policy is shared by all three builders (row-wise oracle,
// packed, sparse) through the two helpers below; only the (hi_total,
// hi_pos) counting differs per representation. One implementation of the
// leaf guards and the seed-rotated Gini scan is what keeps the paths
// bit-identical — the invariant the differential suite pins.

/// Whether a node with these statistics stops as a leaf.
bool stop_as_leaf(std::size_t total, std::size_t positives,
                  std::size_t depth, const DtreeOptions& options) {
  const bool pure = positives == 0 || positives == total;
  const bool depth_capped =
      options.max_depth != 0 && depth >= options.max_depth;
  return pure || depth_capped || total < options.min_samples_split;
}

/// Best-Gini-gain feature, or -1 when nothing clears options.min_gain.
/// `count(f, hi_total, hi_pos)` supplies the split statistics of feature
/// f. The scan order is rotated by the stream seed so exact gain ties
/// (strict > keeps the first maximum) break differently per stream.
template <typename CountFn>
std::int32_t choose_split(std::size_t num_features, std::size_t total,
                          std::size_t positives, std::size_t depth,
                          const DtreeOptions& options, CountFn count) {
  const double parent_impurity = gini(positives, total);
  double best_gain = options.min_gain;
  std::int32_t best_feature = -1;
  const std::size_t start =
      options.seed == 0 || num_features == 0
          ? 0
          : static_cast<std::size_t>(
                util::splitmix64(options.seed + depth) % num_features);
  for (std::size_t step = 0; step < num_features; ++step) {
    const std::size_t f = (start + step) % num_features;
    std::size_t hi_total = 0;
    std::size_t hi_pos = 0;
    count(f, hi_total, hi_pos);
    const std::size_t lo_total = total - hi_total;
    const std::size_t lo_pos = positives - hi_pos;
    if (hi_total == 0 || lo_total == 0) continue;  // useless split
    const double weighted =
        (static_cast<double>(hi_total) * gini(hi_pos, hi_total) +
         static_cast<double>(lo_total) * gini(lo_pos, lo_total)) /
        static_cast<double>(total);
    const double gain = parent_impurity - weighted;
    if (gain > best_gain) {
      best_gain = gain;
      best_feature = static_cast<std::int32_t>(f);
    }
  }
  return best_feature;
}

}  // namespace

DecisionTree DecisionTree::fit(const std::vector<std::vector<bool>>& rows,
                               const std::vector<bool>& labels,
                               const DtreeOptions& options) {
  assert(rows.size() == labels.size());
  DecisionTree tree;
  std::vector<std::uint32_t> indices(rows.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<std::uint32_t>(i);
  }
  if (rows.empty()) {
    tree.nodes_.push_back({-1, -1, -1, false});
  } else {
    tree.build(rows, labels, indices, 0, options);
  }
  return tree;
}

std::int32_t DecisionTree::build(const std::vector<std::vector<bool>>& rows,
                                 const std::vector<bool>& labels,
                                 std::vector<std::uint32_t>& indices,
                                 std::size_t depth,
                                 const DtreeOptions& options) {
  const std::size_t total = indices.size();
  std::size_t positives = 0;
  for (const std::uint32_t i : indices) {
    if (labels[i]) ++positives;
  }
  const bool majority = positives * 2 >= total;

  const auto make_leaf = [&](bool label) {
    const auto id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back({-1, -1, -1, label});
    return id;
  };

  if (stop_as_leaf(total, positives, depth, options)) {
    return make_leaf(majority);
  }

  const std::size_t num_features = rows[0].size();
  const std::int32_t best_feature = choose_split(
      num_features, total, positives, depth, options,
      [&](std::size_t f, std::size_t& hi_total, std::size_t& hi_pos) {
        for (const std::uint32_t i : indices) {
          if (rows[i][f]) {
            ++hi_total;
            if (labels[i]) ++hi_pos;
          }
        }
      });
  if (best_feature < 0) return make_leaf(majority);

  std::vector<std::uint32_t> lo_indices;
  std::vector<std::uint32_t> hi_indices;
  for (const std::uint32_t i : indices) {
    (rows[i][static_cast<std::size_t>(best_feature)] ? hi_indices
                                                     : lo_indices)
        .push_back(i);
  }
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back({best_feature, -1, -1, false});
  const std::int32_t lo = build(rows, labels, lo_indices, depth + 1, options);
  const std::int32_t hi = build(rows, labels, hi_indices, depth + 1, options);
  nodes_[static_cast<std::size_t>(id)].lo = lo;
  nodes_[static_cast<std::size_t>(id)].hi = hi;
  return id;
}

DecisionTree DecisionTree::fit(const cnf::SampleMatrix& data,
                               const std::vector<cnf::Var>& feature_vars,
                               cnf::Var label_var,
                               const DtreeOptions& options) {
  DecisionTree tree;
  if (data.empty()) {
    tree.nodes_.push_back({-1, -1, -1, false});
    return tree;
  }
  const std::size_t words = data.num_words();
  std::vector<const std::uint64_t*> cols;
  cols.reserve(feature_vars.size());
  for (const cnf::Var v : feature_vars) cols.push_back(data.column(v));
  // Root active mask: every sample. Column tail bits beyond num_samples()
  // are zero by construction, so child masks (active & col, active & ~col)
  // never resurrect tail bits once the root mask clears them.
  std::vector<std::uint64_t> active(words, ~0ULL);
  active[words - 1] = data.tail_mask();
  tree.build_packed(cols, data.column(label_var), words, active, 0, options);
  return tree;
}

namespace {

/// Below this active-row count a node's split scan switches from masked
/// popcounts (which always touch every word of every column) to reading
/// the active rows' bits individually: deep trees spend most of their
/// nodes on a few dozen rows spread thinly across the whole matrix, where
/// per-row reads beat per-word popcounts. Pure cost switch — the counts,
/// and therefore the trees, are unchanged.
constexpr std::size_t kSparseRowsPerWord = 2;

}  // namespace

// Mirrors build() decision for decision: the counting lambda feeds the
// shared stop_as_leaf/choose_split policy, and children recurse
// lo-then-hi — so both paths emit the same node array. test_dtree pins
// this.
std::int32_t DecisionTree::build_packed(
    const std::vector<const std::uint64_t*>& cols, const std::uint64_t* label,
    std::size_t words, const std::vector<std::uint64_t>& active,
    std::size_t depth, const DtreeOptions& options) {
  // popcount(active) and popcount(active & label): the node's counts.
  std::size_t total = 0;
  std::size_t positives = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += util::popcount64(active[w]);
    positives += util::popcount64(active[w] & label[w]);
  }
  if (total < kSparseRowsPerWord * words) {
    // Sparse node: unpack the mask into row indices once and count by
    // row from here down.
    std::vector<std::uint32_t> indices;
    indices.reserve(total);
    for (std::size_t w = 0; w < words; ++w) {
      const auto base = static_cast<std::uint32_t>(w << 6);
      for (std::uint64_t bits = active[w]; bits != 0; bits &= bits - 1) {
        indices.push_back(base +
                          static_cast<std::uint32_t>(__builtin_ctzll(bits)));
      }
    }
    return build_sparse(cols, label, indices, depth, options);
  }
  const bool majority = positives * 2 >= total;

  const auto make_leaf = [&](bool leaf_label) {
    const auto id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back({-1, -1, -1, leaf_label});
    return id;
  };

  if (stop_as_leaf(total, positives, depth, options)) {
    return make_leaf(majority);
  }

  const std::int32_t best_feature = choose_split(
      cols.size(), total, positives, depth, options,
      [&](std::size_t f, std::size_t& hi_total, std::size_t& hi_pos) {
        // popcount(active & col) and popcount(active & col & label): the
        // (hi_total, hi_pos) split statistics of one feature, in one pass.
        const std::uint64_t* col = cols[f];
        for (std::size_t w = 0; w < words; ++w) {
          const std::uint64_t hi = active[w] & col[w];
          hi_total += util::popcount64(hi);
          hi_pos += util::popcount64(hi & label[w]);
        }
      });
  if (best_feature < 0) return make_leaf(majority);

  const std::uint64_t* best_col =
      cols[static_cast<std::size_t>(best_feature)];
  std::vector<std::uint64_t> lo_active(words);
  std::vector<std::uint64_t> hi_active(words);
  for (std::size_t w = 0; w < words; ++w) {
    hi_active[w] = active[w] & best_col[w];
    lo_active[w] = active[w] & ~best_col[w];
  }
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back({best_feature, -1, -1, false});
  const std::int32_t lo =
      build_packed(cols, label, words, lo_active, depth + 1, options);
  const std::int32_t hi =
      build_packed(cols, label, words, hi_active, depth + 1, options);
  nodes_[static_cast<std::size_t>(id)].lo = lo;
  nodes_[static_cast<std::size_t>(id)].hi = hi;
  return id;
}

std::int32_t DecisionTree::build_sparse(
    const std::vector<const std::uint64_t*>& cols, const std::uint64_t* label,
    const std::vector<std::uint32_t>& indices, std::size_t depth,
    const DtreeOptions& options) {
  const auto bit_at = [](const std::uint64_t* col, std::uint32_t s) {
    return (col[s >> 6] >> (s & 63)) & 1u;
  };
  const std::size_t total = indices.size();
  std::size_t positives = 0;
  for (const std::uint32_t s : indices) positives += bit_at(label, s);
  const bool majority = positives * 2 >= total;

  const auto make_leaf = [&](bool leaf_label) {
    const auto id = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back({-1, -1, -1, leaf_label});
    return id;
  };

  if (stop_as_leaf(total, positives, depth, options)) {
    return make_leaf(majority);
  }

  const std::int32_t best_feature = choose_split(
      cols.size(), total, positives, depth, options,
      [&](std::size_t f, std::size_t& hi_total, std::size_t& hi_pos) {
        const std::uint64_t* col = cols[f];
        for (const std::uint32_t s : indices) {
          if (bit_at(col, s) != 0) {
            ++hi_total;
            hi_pos += bit_at(label, s);
          }
        }
      });
  if (best_feature < 0) return make_leaf(majority);

  const std::uint64_t* best_col =
      cols[static_cast<std::size_t>(best_feature)];
  std::vector<std::uint32_t> lo_indices;
  std::vector<std::uint32_t> hi_indices;
  for (const std::uint32_t s : indices) {
    (bit_at(best_col, s) != 0 ? hi_indices : lo_indices).push_back(s);
  }
  const auto id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back({best_feature, -1, -1, false});
  const std::int32_t lo =
      build_sparse(cols, label, lo_indices, depth + 1, options);
  const std::int32_t hi =
      build_sparse(cols, label, hi_indices, depth + 1, options);
  nodes_[static_cast<std::size_t>(id)].lo = lo;
  nodes_[static_cast<std::size_t>(id)].hi = hi;
  return id;
}

bool DecisionTree::predict(const std::vector<bool>& row) const {
  std::int32_t n = 0;
  while (nodes_[static_cast<std::size_t>(n)].feature >= 0) {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    n = row[static_cast<std::size_t>(node.feature)] ? node.hi : node.lo;
  }
  return nodes_[static_cast<std::size_t>(n)].label;
}

aig::Ref DecisionTree::to_aig(aig::Aig& manager,
                              const std::vector<aig::Ref>& feature_refs) const {
  // Disjunction over all paths from the root to leaves labeled 1
  // (Algorithm 2, lines 7-10).
  std::vector<aig::Ref> paths;
  std::vector<aig::Ref> prefix;
  const std::function<void(std::int32_t)> walk = [&](std::int32_t n) {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.feature < 0) {
      if (node.label) paths.push_back(manager.and_all(prefix));
      return;
    }
    const aig::Ref f = feature_refs[static_cast<std::size_t>(node.feature)];
    prefix.push_back(aig::ref_not(f));
    walk(node.lo);
    prefix.back() = f;
    walk(node.hi);
    prefix.pop_back();
  };
  walk(0);
  return manager.or_all(paths);
}

std::vector<std::int32_t> DecisionTree::used_features() const {
  std::vector<std::int32_t> features;
  for (const Node& n : nodes_) {
    if (n.feature >= 0) features.push_back(n.feature);
  }
  std::sort(features.begin(), features.end());
  features.erase(std::unique(features.begin(), features.end()),
                 features.end());
  return features;
}

std::size_t DecisionTree::num_leaves() const {
  std::size_t count = 0;
  for (const Node& n : nodes_) {
    if (n.feature < 0) ++count;
  }
  return count;
}

std::size_t DecisionTree::depth() const {
  // Depth via recursive descent (trees are small).
  const std::function<std::size_t(std::int32_t)> walk =
      [&](std::int32_t n) -> std::size_t {
    const Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.feature < 0) return 0;
    return 1 + std::max(walk(node.lo), walk(node.hi));
  };
  return walk(0);
}

}  // namespace manthan::dtree
