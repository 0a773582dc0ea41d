// Bit-parallel and exhaustive simulation of AIG cones.
//
// Used for fast semantic checks in tests and generators: 64 input patterns
// per word, plus exhaustive tautology/equality checks for cones with small
// structural support.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/sample_matrix.hpp"

namespace manthan::aig {

/// Simulate one 64-pattern word: each input id maps to a 64-bit pattern;
/// returns the 64 output bits.
std::uint64_t simulate64(
    const Aig& aig, Ref root,
    const std::unordered_map<std::int32_t, std::uint64_t>& input_patterns);

/// Batch-evaluate `root` over every sample of a bit-packed training
/// matrix: input ids are read as matrix variables (ids outside the matrix
/// evaluate to false), 64 samples per word, in blocks of 16 words per
/// gate. Returns one output word per matrix word; bits at
/// positions >= num_samples() in the last word are ZERO (the result is
/// masked with matrix.tail_mask() before returning), so popcounts over the
/// result need no re-masking. This is how the synthesis loop screens
/// repair/refit candidates against the whole training set — words instead
/// of one evaluate() walk per assignment.
std::vector<std::uint64_t> simulate_matrix(const Aig& aig, Ref root,
                                           const cnf::SampleMatrix& matrix);

/// Exhaustively check whether `root` is a tautology over its structural
/// support. Intended for supports up to ~24 inputs (2^support evaluations,
/// 64 at a time).
bool is_tautology(const Aig& aig, Ref root);

/// Exhaustively check semantic equivalence of two cones (over the union of
/// their supports).
bool semantically_equal(const Aig& aig, Ref a, Ref b);

/// Full truth table of `root` over the given ordered input ids (must cover
/// the support). Bit i of the result corresponds to the assignment where
/// input_ids[j] takes bit j of i.
std::vector<bool> truth_table(const Aig& aig, Ref root,
                              const std::vector<std::int32_t>& input_ids);

}  // namespace manthan::aig
