// Constrained sampling of satisfying assignments.
//
// Role in the paper: CMSGen. GetSamples (Algorithm 1, line 1) draws
// quasi-uniform models of the specification to serve as training data for
// candidate learning.
//
// Front end: one persistent *enumerating* solver session per sampling
// run — the CDCL search hands back a model per phase-scrambled descent
// (sat::Solver::enumerate) instead of paying a full solve() call per
// model, and models land directly in a column-major bit-packed
// cnf::SampleMatrix (one uint64_t word per 64 samples per variable) that
// the decision-tree learner and the AIG batch simulator consume without
// re-packing. The matrix drops duplicates itself (append_distinct, by
// 64-bit model fingerprint over the word-packed model) and hands its
// fingerprint set on to the caller with the samples.
//
// Small model spaces: once the random draw sees 16 duplicates in a row,
// the same solver finishes the call in distinct mode
// (sat::EnumerateMode::kDistinct): each remaining model is reported once
// and the session ends when none is left, as UniGen enumerates small
// cells exactly. A formula with fewer models than requested therefore
// yields all of its models (SamplerStats::exhausted), and no duplicate
// budget is needed.
//
// Adaptive weighting (as in Manthan): a small probe round with unbiased
// polarities measures, for each output variable, the fraction of models in
// which it is true (a popcount over the packed column); variables with a
// strong skew get their polarity bias pushed towards the majority value
// (0.9/0.1), which concentrates the data in the region the learner must
// fit, dramatically reducing repair load on skewed specifications.
#pragma once

#include <vector>

#include "cnf/cnf.hpp"
#include "cnf/sample_matrix.hpp"
#include "util/timer.hpp"

namespace manthan::sampler {

using cnf::Assignment;
using cnf::CnfFormula;
using cnf::Var;

struct SamplerOptions {
  std::size_t num_samples = 500;
  /// Probe-round size used to estimate per-variable skew.
  std::size_t probe_samples = 64;
  /// Enable the adaptive bias stage (ablation knob: abl2_sampling).
  bool adaptive = true;
  std::uint64_t seed = 42;
};

/// Counters of the most recent sample()/sample_packed() call.
struct SamplerStats {
  /// Distinct models drawn in the probe round (== all models when the
  /// adaptive stage is disabled).
  std::size_t probe_samples = 0;
  /// Distinct models added by the biased main round.
  std::size_t main_samples = 0;
  /// Whether a main-round draw ran at all. Stays false when the deadline
  /// expired during the probe round.
  bool main_round = false;
  /// Rediscovered models dropped by fingerprint.
  std::size_t duplicates = 0;
  /// The draw ran out of models: the matrix holds every model of the
  /// formula.
  bool exhausted = false;
};

class Sampler {
 public:
  explicit Sampler(SamplerOptions options = {});

  /// Draw up to options.num_samples models of `formula` into a bit-packed
  /// matrix over the formula's variables. `bias_vars` are the variables
  /// subject to adaptive weighting (the Y variables in Manthan3). Returns
  /// an empty matrix iff the formula is UNSAT (or the deadline expired
  /// before the first model). Samples are pairwise distinct: repeated
  /// models are dropped by fingerprint and the draw loop tops itself up.
  /// A formula with fewer models than requested is returned whole, with
  /// stats().exhausted set (a probe round that exhausts skips the main
  /// round); only the deadline can cut such a draw short.
  cnf::SampleMatrix sample_packed(const CnfFormula& formula,
                                  const std::vector<Var>& bias_vars,
                                  const util::Deadline* deadline = nullptr);

  /// Row-unpacked convenience wrapper around sample_packed().
  std::vector<Assignment> sample(const CnfFormula& formula,
                                 const std::vector<Var>& bias_vars,
                                 const util::Deadline* deadline = nullptr);

  const SamplerStats& stats() const { return stats_; }

 private:
  SamplerOptions options_;
  SamplerStats stats_;
};

}  // namespace manthan::sampler
