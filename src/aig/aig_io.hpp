// Exporting synthesized functions as circuit netlists.
//
// Henkin functions are delivered as AIG edges; downstream users (ECO
// patch insertion, controller implementation) want them as netlists.
// Writers for BLIF and structural Verilog are provided; both treat a
// collection of named output functions over shared named inputs.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "aig/aig.hpp"

namespace manthan::aig {

struct NamedFunction {
  std::string name;
  Ref function;
};

/// Produce a readable name for input id `id` (x<id> by default).
std::string default_input_name(std::int32_t id);

/// Write the cones of all functions as a single BLIF model. Inputs are
/// named via `input_name`; internal AND nodes become two-literal .names
/// covers; complemented edges become inverter covers.
void write_blif(std::ostream& out, const Aig& aig, const std::string& model,
                const std::vector<NamedFunction>& outputs);

/// Append to `out` the BLIF text write_blif gives for `outputs` once their
/// cones are imported (import_cone, in output order, one shared node map)
/// into a fresh manager, without building that manager. AND nodes are
/// numbered densely in the order that import creates them, so the text
/// depends on the functions' structure, not on where they sit in `aig`.
void append_dense_blif(std::string& out, const Aig& aig,
                       const std::string& model,
                       const std::vector<NamedFunction>& outputs);

/// Write the cones as a structural Verilog module (assign statements).
void write_verilog(std::ostream& out, const Aig& aig,
                   const std::string& module,
                   const std::vector<NamedFunction>& outputs);

}  // namespace manthan::aig
