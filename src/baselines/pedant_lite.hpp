// PedantLite — a definition-extraction-based Henkin synthesizer in the
// spirit of Pedant (Reichl, Slivovsky, Szeider, SAT 2021).
//
// Strategy: for every existential y_i, decide with Padoa's method whether
// φ uniquely defines y_i in terms of H_i; extract definitions for defined
// variables. For the remaining variables, Pedant's arbiter variables —
// one per relevant assignment of the dependency set — are realized here
// as a counterexample-driven *arbiter table*: a decision list of
// (H_i-cube → value) entries layered over a default function. Every
// verification counterexample either inserts or flips a table entry, so
// the loop makes progress; oscillating entries signal an instance the
// approach cannot finish (bounded by max_iterations). The cube and
// decision-list code lives in core/arbiter.hpp, shared with Manthan3's
// repair of last resort.
//
// This reproduces Pedant's profile: instant on definition-rich instances
// (e.g. equivalence checking), weak when outputs are heavily
// underconstrained over large dependency sets.
#pragma once

#include "aig/aig.hpp"
#include "core/manthan3.hpp"  // SynthesisResult / SynthesisStatus
#include "core/unique_def.hpp"
#include "dqbf/dqbf.hpp"
#include "util/cancel.hpp"

namespace manthan::baselines {

struct PedantLiteOptions {
  core::UniqueDefOptions unique;
  /// Cap on verification counterexamples.
  std::size_t max_iterations = 3000;
  /// Cap on total arbiter-table entries across all outputs.
  std::size_t max_table_entries = 50000;
  /// Wall-clock budget in seconds; 0 = unlimited.
  double time_limit_seconds = 0.0;
  /// Cooperative stop flag composed into the internal Deadline (polled in
  /// the counterexample loop and every SAT query). Null = not
  /// cancellable; must outlive synthesize().
  const util::CancelToken* cancel = nullptr;
};

class PedantLite {
 public:
  explicit PedantLite(PedantLiteOptions options = {});

  core::SynthesisResult synthesize(const dqbf::DqbfFormula& formula,
                                   aig::Aig& manager);

 private:
  PedantLiteOptions options_;
};

}  // namespace manthan::baselines
