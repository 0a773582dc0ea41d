#include "sampler/sampler.hpp"

#include "obs/trace.hpp"
#include "sat/solver.hpp"
#include "util/popcount.hpp"

namespace manthan::sampler {

namespace {

/// Duplicates in a row after which the random draw counts as stalled: the
/// model space is (nearly) used up, and the rest of the call enumerates
/// the remaining models exactly.
constexpr std::size_t kStallRun = 16;

/// Adaptive weighting: a bias variable true in at least kSkewHigh (at
/// most kSkewLow) of the probe models decides true with probability
/// kStrongBias (1 - kStrongBias) in the main round.
constexpr double kSkewHigh = 0.65;
constexpr double kSkewLow = 0.35;
constexpr double kStrongBias = 0.9;

/// Population count of variable `v`'s packed column (tail bits are zero by
/// construction, so no masking is needed).
std::size_t column_popcount(const cnf::SampleMatrix& m, Var v) {
  const std::uint64_t* col = m.column(v);
  std::size_t count = 0;
  for (std::size_t w = 0; w < m.num_words(); ++w) {
    count += util::popcount64(col[w]);
  }
  return count;
}

}  // namespace

Sampler::Sampler(SamplerOptions options) : options_(options) {}

cnf::SampleMatrix Sampler::sample_packed(const CnfFormula& formula,
                                         const std::vector<Var>& bias_vars,
                                         const util::Deadline* deadline) {
  cnf::SampleMatrix matrix(formula.num_vars());
  stats_ = SamplerStats{};
  // One solver serves both rounds. Probe round: unbiased random
  // polarities.
  sat::SolverOptions probe_options;
  probe_options.random_polarity = true;
  probe_options.seed = options_.seed;
  sat::Solver solver(probe_options);
  if (!solver.add_formula(formula)) return matrix;

  // Randomized branching can rediscover the same model; the training set
  // must contain distinct assignments, so the matrix drops repeats (by
  // 64-bit model fingerprint — see cnf::fingerprint on the collision
  // odds) and the draw loop tops itself up. Once kStallRun duplicates come
  // in a row the session switches to distinct mode for the rest of the
  // call, which reports each remaining model once and ends when none is
  // left.
  bool distinct = false;

  // Persistent enumerating session. The sink tracks the stall; the
  // solver polls the deadline on its decision + propagation counter, so
  // the sink reads no clock per model.
  const auto draw = [&](std::size_t count) {
    if (count == 0) return;
    std::size_t run = 0;
    const sat::ModelSink sink = [&](const Assignment& model) {
      if (matrix.append_distinct(model)) {
        run = 0;
        return --count > 0;
      }
      ++stats_.duplicates;
      return distinct || ++run < kStallRun;
    };
    sat::Result result = solver.enumerate(
        sink, {}, deadline,
        distinct ? sat::EnumerateMode::kDistinct : sat::EnumerateMode::kRandom);
    if (run >= kStallRun) {
      distinct = true;
      result =
          solver.enumerate(sink, {}, deadline, sat::EnumerateMode::kDistinct);
    }
    stats_.exhausted = result == sat::Result::kUnsat;
  };

  const std::size_t probe_count =
      options_.adaptive ? std::min(options_.probe_samples,
                                   options_.num_samples)
                        : options_.num_samples;
  {
    obs::Span span("sample.probe");
    draw(probe_count);
  }
  stats_.probe_samples = matrix.num_samples();
  if (matrix.empty()) return matrix;
  // An expired deadline must short-circuit here, before the main round
  // starts a draw it would immediately abandon.
  if (deadline != nullptr && deadline->expired()) return matrix;
  if (!options_.adaptive || stats_.exhausted ||
      matrix.num_samples() >= options_.num_samples) {
    return matrix;
  }

  // Estimate skew of each bias variable across the probe models: one
  // popcount pass over the packed column.
  std::vector<double> bias(static_cast<std::size_t>(formula.num_vars()), 0.5);
  for (const Var v : bias_vars) {
    const double fraction =
        static_cast<double>(column_popcount(matrix, v)) /
        static_cast<double>(matrix.num_samples());
    if (fraction >= kSkewHigh) {
      bias[static_cast<std::size_t>(v)] = kStrongBias;
    } else if (fraction <= kSkewLow) {
      bias[static_cast<std::size_t>(v)] = 1.0 - kStrongBias;
    }
  }

  // Main round with the learned biases.
  stats_.main_round = true;
  obs::Span main_span("sample.main");
  // Same session keeps its learnt clauses; only the polarity bias and the
  // decision RNG stream change between rounds.
  solver.options().polarity_bias = bias;
  solver.reseed(options_.seed ^ 0x5deece66dULL);
  draw(options_.num_samples - matrix.num_samples());
  stats_.main_samples = matrix.num_samples() - stats_.probe_samples;
  return matrix;
}

std::vector<Assignment> Sampler::sample(const CnfFormula& formula,
                                        const std::vector<Var>& bias_vars,
                                        const util::Deadline* deadline) {
  const cnf::SampleMatrix matrix =
      sample_packed(formula, bias_vars, deadline);
  std::vector<Assignment> samples;
  samples.reserve(matrix.num_samples());
  for (std::size_t s = 0; s < matrix.num_samples(); ++s) {
    samples.push_back(matrix.row(s));
  }
  return samples;
}

}  // namespace manthan::sampler
