// Racing portfolio: run several engines on the same instance
// concurrently, return the first definitive answer, cancel the losers.
//
// The paper's evaluation (§6) shows the three engines have orthogonal
// strengths — each family has instances only one of them solves fast. A
// race turns that orthogonality into latency: every contender runs on its
// own scheduler worker with a private aig::Aig, and the first lane to
// produce a *certified* realizable vector (or a proven-False verdict)
// flips a shared util::CancelToken. The token is composed into every
// lane's Deadline, so the losing engines stop at their next budget poll —
// inside the SAT solver's decisions+propagations check, the Manthan3
// verify/repair loop, or the baselines' outer loops — and their lane
// stats record the truncated work.
//
// An uncertified "realizable" claim never wins (solved == certified, as
// everywhere in this codebase); such a lane simply finishes and the race
// continues.
#pragma once

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "core/manthan3.hpp"
#include "dqbf/dqbf.hpp"
#include "engine/engine.hpp"
#include "util/budget.hpp"
#include "util/cancel.hpp"

namespace manthan::engine {

struct RaceOptions {
  std::vector<EngineKind> contenders{
      EngineKind::kManthan3, EngineKind::kHqsLite, EngineKind::kPedantLite};
  /// Per-lane wall-clock budget in seconds; 0 = unlimited (the race still
  /// ends when every lane returns).
  double time_limit_seconds = 0.0;
  std::uint64_t seed = 42;
  /// Tag for the lane spans and every lane's engine spans; 0 = untagged.
  std::uint64_t trace_id = 0;
  /// External stop signal (a service shutdown, a caller's per-request
  /// cancel): composed with the race's internal winner token, so every
  /// lane stops at its next poll when either fires. Null = the race can
  /// only be ended by a winner or the time budget. Must outlive race().
  const util::CancelToken* cancel = nullptr;
  /// Per-request resource budget shared by all lanes (the budget's token
  /// should additionally be composed into `cancel` by the caller). Each
  /// lane installs it as its thread's growth-site budget, so a race
  /// charges memory/conflicts the same way a single-engine run does.
  /// Null = unbudgeted. Must outlive race().
  util::ResourceBudget* budget = nullptr;
};

/// Outcome of one contender.
struct RaceLane {
  EngineKind engine = EngineKind::kManthan3;
  core::SynthesisStatus status = core::SynthesisStatus::kLimit;
  /// Lane returned kRealizable and the checker accepted its vector.
  bool certified = false;
  bool winner = false;
  /// Lane was stopped by the winner's cancellation (its stats show the
  /// truncated work).
  bool cancelled = false;
  double seconds = 0.0;
  core::SynthesisStats stats;
};

struct RaceOutcome {
  /// Winner's status; when no lane was definitive: kIncomplete if any
  /// lane hit the engine's incompleteness, else kLimit if any lane hit an
  /// iteration limit, else kTimeout.
  core::SynthesisStatus status = core::SynthesisStatus::kLimit;
  /// Index into `lanes` of the winning engine; -1 if none was definitive.
  int winner = -1;
  bool certified = false;
  /// Winner's Henkin functions, rebuilt in the caller's manager; valid
  /// when status == kRealizable.
  dqbf::HenkinVector vector;
  std::vector<RaceLane> lanes;

  /// A certified Henkin vector was synthesized.
  bool solved() const {
    return status == core::SynthesisStatus::kRealizable && certified;
  }
};

/// Race `options.contenders` on `formula`; one scheduler worker per lane.
/// The winning vector is imported into `manager`.
RaceOutcome race(const dqbf::DqbfFormula& formula, aig::Aig& manager,
                 const RaceOptions& options = {});

}  // namespace manthan::engine
