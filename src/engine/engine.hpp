// Cancellation-aware single-engine invocation — the common job body of
// the parallel suite runner and the racing portfolio.
//
// This is the canonical home of EngineKind (the portfolio layer aliases
// it for source compatibility): one enum naming the three synthesizers,
// plus run_engine(), which packages "run this engine on this formula
// under this budget/seed/token" as a self-contained, thread-safe unit of
// work. Each call builds its own synthesizer (and the caller supplies a
// private aig::Aig), so any number of run_engine() calls may execute
// concurrently on scheduler workers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "aig/aig.hpp"
#include "core/manthan3.hpp"
#include "dqbf/dqbf.hpp"
#include "util/cancel.hpp"

namespace manthan::engine {

enum class EngineKind { kManthan3, kHqsLite, kPedantLite };

const char* engine_name(EngineKind kind);
const char* status_name(core::SynthesisStatus status);
/// Inverse lookups, used by the persisted-cache decoder; nullopt for
/// unrecognized names (a corrupt or future-format entry).
std::optional<core::SynthesisStatus> status_from_name(const std::string& name);
std::optional<EngineKind> engine_from_name(const std::string& name);

/// Budget, stream identity, and trace tag for one engine run. Every other
/// engine option runs at its default.
struct EngineOptions {
  /// Wall-clock budget in seconds; 0 = unlimited.
  double time_limit_seconds = 0.0;
  /// Seed for the engine's private RNG streams (Manthan3 only; the
  /// baseline engines are deterministic). Derive per-job seeds with
  /// util::derive_seed — see the contract in util/rng.hpp.
  std::uint64_t seed = 42;
  /// Cooperative stop flag composed into the engine's internal Deadline;
  /// null means "not cancellable". Must outlive the run.
  const util::CancelToken* cancel = nullptr;
  /// Tag for Manthan3's trace spans (core::Manthan3Options::trace_id);
  /// the service sets it per request. 0 = untagged.
  std::uint64_t trace_id = 0;
};

/// Run one engine on one formula. Thread-safe: shares no mutable state
/// with other calls; `manager` must be private to this call.
core::SynthesisResult run_engine(const dqbf::DqbfFormula& formula,
                                 aig::Aig& manager, EngineKind kind,
                                 const EngineOptions& options);

}  // namespace manthan::engine
