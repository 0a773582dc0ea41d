// Bit-packed training matrix for the sample -> learn data path.
//
// The sampler harvests thousands of models and the decision-tree learner
// scans them feature-by-feature; storing each model as its own row
// makes both sides pay per-bit. SampleMatrix stores the data column-major
// instead: one std::uint64_t word per 64 samples per variable, so
//   * the sampler appends a model with one pass over its set bits,
//   * the learner counts split statistics with popcount over masked words
//     (decision_tree.cpp), 64 samples per instruction,
//   * the AIG simulator batch-evaluates a candidate over the whole matrix
//     with its existing 64-way words (aig_sim.cpp), and
//   * the synthesis loop appends repair counterexamples across rounds
//     without re-packing anything (cross-round sample reuse).
//
// The matrix also owns sample de-duplication: it records the 64-bit
// fingerprint of every row it holds in one open-addressing set, and
// append_distinct() drops a model whose fingerprint is already there. The
// sampler's draw and the synthesis loop's counterexample reuse both go
// through it, so the one set built while sampling serves the whole call.
#pragma once

#include <cstdint>
#include <vector>

#include "cnf/cnf.hpp"

namespace manthan::cnf {

class SampleMatrix {
 public:
  SampleMatrix() = default;
  explicit SampleMatrix(Var num_vars)
      : num_vars_(static_cast<std::size_t>(num_vars)) {}

  Var num_vars() const { return static_cast<Var>(num_vars_); }
  std::size_t num_samples() const { return num_samples_; }
  bool empty() const { return num_samples_ == 0; }
  /// Words per column: ceil(num_samples / 64).
  std::size_t num_words() const { return (num_samples_ + 63) / 64; }

  /// Append one sample row and record its fingerprint. `a` must assign at
  /// least num_vars() variables; anything above (solver-internal
  /// selectors, Tseitin variables) is ignored.
  void append(const Assignment& a);

  /// Append `a` unless a row with the same fingerprint (over the first
  /// num_vars() variables) is already held; returns whether it was added.
  bool append_distinct(const Assignment& a);

  /// Bit (sample, v): sample's value of variable v.
  bool value(std::size_t sample, Var v) const {
    return (column(v)[sample >> 6] >> (sample & 63)) & 1u;
  }

  /// Unpack one sample into a full Assignment over num_vars() variables.
  Assignment row(std::size_t sample) const;

  /// The packed column of variable `v`: num_words() words, sample s at bit
  /// (s % 64) of word (s / 64). Bits at positions >= num_samples() in the
  /// last word are always zero, so popcounts over (column & column) terms
  /// need no masking; complemented terms must be masked with tail_mask().
  const std::uint64_t* column(Var v) const {
    return data_.data() + static_cast<std::size_t>(v) * words_cap_;
  }

  /// Valid-bit mask of the last word (all-ones when num_samples() is a
  /// multiple of 64, or for the empty matrix).
  std::uint64_t tail_mask() const {
    const std::size_t rem = num_samples_ & 63;
    return rem == 0 ? ~0ULL : (1ULL << rem) - 1;
  }

  void reserve(std::size_t samples);

  /// Heap bytes held by the packed matrix and its fingerprint set
  /// (capacity, not size: this is what the process actually pays). Feeds
  /// the memory-accounting gauges.
  std::size_t bytes() const {
    return (data_.capacity() + fps_.capacity()) * sizeof(std::uint64_t);
  }

 private:
  void grow_words(std::size_t words);
  void check_width(const Assignment& a) const;
  void append_row(const Assignment& a);
  /// Insert `fp` into the fingerprint set; false if already present.
  bool insert_fingerprint(std::uint64_t fp);

  std::size_t num_vars_ = 0;
  std::size_t num_samples_ = 0;
  /// Words allocated per column; column v occupies
  /// data_[v * words_cap_ .. v * words_cap_ + words_cap_).
  std::size_t words_cap_ = 0;
  std::vector<std::uint64_t> data_;
  /// Fingerprint set: open addressing with linear probing over a
  /// power-of-two table, grown at 50% load. Slot value 0 marks an empty
  /// slot; the fingerprint 0 itself is tracked by has_zero_fp_.
  std::vector<std::uint64_t> fps_;
  std::size_t fps_used_ = 0;
  bool has_zero_fp_ = false;
};

/// 64-bit fingerprint of the first `num_vars` values of `a` (splitmix64
/// chained over the packed words; `num_vars` <= a.size()). Used for model
/// deduplication: equal fingerprints drop a candidate sample, so a
/// collision loses one model in ~2^64 — negligible against sample
/// budgets — while distinct fingerprints guarantee distinct models, so
/// surviving samples stay pairwise distinct.
std::uint64_t fingerprint(const Assignment& a, std::size_t num_vars);
/// Fingerprint over all of `a`.
std::uint64_t fingerprint(const Assignment& a);

}  // namespace manthan::cnf
