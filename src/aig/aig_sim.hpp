// Word-parallel simulation of AIG cones.
//
// One kernel serves every entry point: a cone is flattened once per call
// (one walk, in per-thread scratch) into a gate list whose fanins are
// operand slots with inversion masks, and whose leaves are input slots.
// Gates then evaluate 64 patterns per word, up to 16 words per gate
// visit, with no hashing. The leaves read either the columns of a
// bit-packed sample matrix (`simulate_matrix`, the synthesis loop's
// candidate screen) or an exhaustive enumeration of the cone's inputs
// (`is_tautology`, `clause_is_tautology`, `semantically_equal`,
// `truth_table`: generators and tests, for small structural supports).
// `Aig::evaluate` stays the independent per-assignment reference.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "cnf/sample_matrix.hpp"

namespace manthan::aig {

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

/// Exhaustively check whether the clause OR(`literals`) is a tautology
/// over the union of their supports, without building the disjunction
/// in the manager (the planted generators test many candidate clauses
/// and keep few).
bool clause_is_tautology(const Aig& aig, const std::vector<Ref>& literals);

/// Exhaustively check semantic equivalence of two cones (over the union of
/// their supports).
bool semantically_equal(const Aig& aig, Ref a, Ref b);

/// Full truth table of `root` over the given ordered input ids (must cover
/// the support). Bit i of the result corresponds to the assignment where
/// input_ids[j] takes bit j of i.
std::vector<bool> truth_table(const Aig& aig, Ref root,
                              const std::vector<std::int32_t>& input_ids);

}  // namespace manthan::aig
