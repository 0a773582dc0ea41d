// Binary decision-tree learning (ID3 with the Gini impurity measure).
//
// Role in the paper: scikit-learn's DecisionTreeClassifier. CandidateHkF
// (Algorithm 2) fits one tree per existential variable: rows are sampled
// models, features are the Henkin dependencies H_i plus admissible Y
// variables, labels are the sampled values of y_i. The candidate function
// is the disjunction of all root-to-leaf paths ending in a leaf labeled 1,
// extracted here directly as an AIG.
//
// Two fitting paths produce bit-identical trees from the same data:
//   * the packed path consumes a cnf::SampleMatrix view directly — split
//     statistics are popcounts over (active & column [& label]) words,
//     with one active-row bitmask per tree node, so a feature scan costs
//     features x words instead of features x samples bit reads;
//   * the row-wise path over std::vector<bool> rows is kept as the
//     differential oracle (and for callers without packed data). Counts,
//     Gini arithmetic, tie-break rotation, and recursion order match the
//     packed path exactly, which the test suite pins.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/sample_matrix.hpp"

namespace manthan::dtree {

struct DtreeOptions {
  /// Maximum tree depth; 0 means unlimited.
  std::size_t max_depth = 0;
  /// Do not split nodes with fewer samples than this.
  std::size_t min_samples_split = 2;
  /// Minimum Gini gain required to accept a split.
  double min_gain = 1e-9;
  /// Stream seed for split tie-breaking: the feature scan at each node is
  /// rotated by splitmix64(seed + depth), so equal-gain splits resolve
  /// differently (but deterministically) per stream. Manthan3 derives one
  /// stream per existential with util::derive_seed, which keeps parallel
  /// candidate learning bit-identical to serial. 0 keeps the natural
  /// feature order.
  std::uint64_t seed = 0;
};

/// A fitted tree. Node 0 is the root; leaves carry the predicted label.
class DecisionTree {
 public:
  struct Node {
    std::int32_t feature = -1;  // -1 for leaves
    std::int32_t lo = -1;       // child for feature == false
    std::int32_t hi = -1;       // child for feature == true
    bool label = false;         // leaf prediction

    bool operator==(const Node& o) const {
      return feature == o.feature && lo == o.lo && hi == o.hi &&
             label == o.label;
    }
  };

  /// Fit from dense boolean rows. `rows[s][f]` is feature f of sample s.
  static DecisionTree fit(const std::vector<std::vector<bool>>& rows,
                          const std::vector<bool>& labels,
                          const DtreeOptions& options = {});

  /// Fit from a bit-packed matrix: feature f of sample s is
  /// data.value(s, feature_vars[f]), its label data.value(s, label_var).
  /// Split counting runs popcount over masked 64-sample words. Produces
  /// exactly the tree the row-wise overload fits on the unpacked data.
  static DecisionTree fit(const cnf::SampleMatrix& data,
                          const std::vector<cnf::Var>& feature_vars,
                          cnf::Var label_var,
                          const DtreeOptions& options = {});

  bool predict(const std::vector<bool>& row) const;

  /// Build the path formula: OR over all root-to-leaf(1) paths of the AND
  /// of edge literals. `feature_refs[f]` supplies the AIG edge for
  /// feature f.
  aig::Ref to_aig(aig::Aig& manager,
                  const std::vector<aig::Ref>& feature_refs) const;

  /// Features actually used by some internal node.
  std::vector<std::int32_t> used_features() const;

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_leaves() const;
  std::size_t depth() const;
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  std::int32_t build(const std::vector<std::vector<bool>>& rows,
                     const std::vector<bool>& labels,
                     std::vector<std::uint32_t>& indices, std::size_t depth,
                     const DtreeOptions& options);
  std::int32_t build_packed(const std::vector<const std::uint64_t*>& cols,
                            const std::uint64_t* label, std::size_t words,
                            const std::vector<std::uint64_t>& active,
                            std::size_t depth, const DtreeOptions& options);
  std::int32_t build_sparse(const std::vector<const std::uint64_t*>& cols,
                            const std::uint64_t* label,
                            const std::vector<std::uint32_t>& indices,
                            std::size_t depth, const DtreeOptions& options);

  std::vector<Node> nodes_;
};

}  // namespace manthan::dtree
