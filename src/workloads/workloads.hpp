// Benchmark instance generators.
//
// The paper evaluates on 563 QBFEval'18/19/20 DQBF instances drawn from
// equivalence checking of partial circuits, controller synthesis, and
// succinct DQBF representations of propositional satisfiability. QBFLib
// is not available offline, so this module generates instances of those
// same application classes (plus planted-random and adversarial families)
// from fixed seeds — see DESIGN.md §"Substitutions". Every generator
// documents whether its instances are True by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dqbf/dqbf.hpp"

namespace manthan::workloads {

/// A named benchmark instance.
struct Instance {
  std::string name;
  std::string family;
  dqbf::DqbfFormula formula;
};

// --- planted random (True by construction) --------------------------------
struct PlantedParams {
  std::size_t num_universals = 8;
  std::size_t num_existentials = 4;
  /// Size of each Henkin dependency set.
  std::size_t dep_size = 3;
  /// AND-gate budget of each planted function.
  std::size_t function_gates = 6;
  /// Number of matrix clauses to emit (each valid under the plant).
  std::size_t num_clauses = 30;
  std::uint64_t seed = 1;
  /// Allow XOR gates in the planted functions. false keeps the functions
  /// tree-learnable — the "planted-hard" family combines this with large
  /// dependency sets, which defeats table- and elimination-based engines
  /// while staying inside Manthan3's sweet spot.
  bool xor_functions = true;
  /// Nested dependency chain H_1 ⊂ H_2 ⊂ … ⊂ H_m (prefixes of a random
  /// permutation of X, growing from dep_size to dep_size_max). Nested
  /// sets give Manthan3's learning its Y-features and its repair a
  /// non-empty Ŷ — the regime where the paper's algorithm excels.
  bool nested_deps = false;
  /// Largest chain size when nested_deps is set (0: use dep_size).
  std::size_t dep_size_max = 0;
};
/// Random dependency sets, random planted functions f_i over H_i, and a
/// matrix of random clauses that the planted vector satisfies for every X.
dqbf::DqbfFormula gen_planted(const PlantedParams& params);

// --- partial equivalence checking (True by construction) ------------------
struct PecParams {
  std::size_t num_inputs = 8;
  std::size_t num_outputs = 2;
  std::size_t num_blackboxes = 2;
  /// Inputs visible to each blackbox (its Henkin dependency set).
  std::size_t blackbox_inputs = 3;
  /// AND-gate budget of the implementation circuit per output.
  std::size_t circuit_gates = 12;
  std::uint64_t seed = 1;
};
/// Implementation with blackboxes vs. a golden circuit obtained by
/// plugging planted blackbox functions in; the matrix asserts output
/// equivalence (Gitina et al.'s partial-design equivalence checking).
dqbf::DqbfFormula gen_pec(const PecParams& params);

// --- partial-observation controller synthesis -----------------------------
struct ControllerParams {
  std::size_t state_bits = 4;
  std::size_t disturbance_bits = 2;
  std::size_t control_bits = 2;
  /// Whether each controller output observes everything its correction
  /// target needs (realizable) or is blinded on one input (typically
  /// unrealizable).
  bool fully_observable = true;
  std::size_t update_gates = 8;
  std::uint64_t seed = 1;
};
/// One-step safety control: next-state bit j is u_j ⊕ g_j(s,d); the
/// controller (partial observation = Henkin dependencies) must keep the
/// safe region invariant.
dqbf::DqbfFormula gen_controller(const ControllerParams& params);

// --- succinct SAT encodings (True by construction) -------------------------
struct SuccinctSatParams {
  std::size_t num_vars = 16;
  double clause_ratio = 3.2;
  std::uint64_t seed = 1;
};
/// A planted-satisfiable random 3-SAT formula whose variables become
/// existentials with empty dependency sets: Henkin functions are the bits
/// of a satisfying assignment.
dqbf::DqbfFormula gen_succinct_sat(const SuccinctSatParams& params);

// --- split-dependency XOR families (paper §5) -------------------------------
struct XorChainParams {
  std::size_t num_pairs = 2;
  /// false: pure equality pairs ¬(y ⊕ y') — the paper's incompleteness
  /// example. true: pairs additionally XOR to the shared universal.
  bool xor_with_shared = false;
  std::uint64_t seed = 1;
};
/// True instances with incomparable dependency windows {x_a,x_s} /
/// {x_s,x_b}; the only Henkin functions factor through the shared x_s.
/// Drives Manthan3 into its documented incompleteness on bad candidates.
dqbf::DqbfFormula gen_xor_chain(const XorChainParams& params);

struct UnrealizableParams {
  std::size_t num_constraints = 2;
  /// false: y_i ↔ x_a ⊕ x_b with H_i = {x_a} — False, but *not* provable
  /// through Manthan3's extension check (every X-assignment extends to a
  /// model); expansion or elimination reasoning refutes it.
  /// true: additionally y_i ↔ x_b, so an X-assignment with x_a ≠ x_b has
  /// no extension at all — every engine detects False quickly.
  bool extension_detectable = false;
  std::uint64_t seed = 1;
};
/// False instances: y_i must track universals outside H_i.
dqbf::DqbfFormula gen_unrealizable(const UnrealizableParams& params);

// --- suite assembly ---------------------------------------------------------
struct SuiteParams {
  /// Rough size multiplier: 1 = smoke suite, 2 = paper-shaped evaluation.
  std::size_t scale = 1;
  std::uint64_t seed = 2023;
};
/// The standard benchmark suite used by the figure/table benches: a
/// deterministic mix of all families at several sizes.
std::vector<Instance> standard_suite(const SuiteParams& params);

}  // namespace manthan::workloads
