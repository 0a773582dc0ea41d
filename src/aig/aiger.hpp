// AIGER (ASCII "aag") reading and writing.
//
// AIGER is the interchange format of the ABC/AIGER ecosystem the paper's
// toolchain lives in. We support the combinational subset (no latches):
// reading produces input ids 0..I-1 and a vector of output edges in a
// fresh manager; writing serializes the union cone of a set of outputs.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace manthan::aig {

struct AigerModule {
  /// Input ids used by the functions (0-based, dense).
  std::size_t num_inputs = 0;
  std::vector<Ref> outputs;
};

/// Read an ASCII AIGER file ("aag" header, combinational only) into
/// `manager`. Throws std::runtime_error on malformed input or latches.
AigerModule read_aiger_ascii(std::istream& in, Aig& manager);
AigerModule read_aiger_ascii_string(const std::string& text, Aig& manager);

/// Append the given outputs to `out` as an ASCII AIGER file. Inputs are
/// the union of the cones' input ids, mapped densely in ascending id
/// order; AND nodes follow in the order of the union-cone walk.
void append_aiger_ascii(std::string& out, const Aig& manager,
                        const std::vector<Ref>& outputs);
std::string to_aiger_ascii_string(const Aig& manager,
                                  const std::vector<Ref>& outputs);

}  // namespace manthan::aig
