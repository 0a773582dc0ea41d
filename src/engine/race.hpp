// Racing portfolio: run several engines on the same instance
// concurrently, return the first definitive answer, cancel the losers.
//
// The paper's evaluation (§6) shows the three engines have orthogonal
// strengths — each family has instances only one of them solves fast. A
// race turns that orthogonality into latency: every contender runs on a
// lane thread with a private aig::Aig, and the first lane to produce a
// *certified* realizable vector (or a proven-False verdict) wins. race()
// returns at that moment; it does not wait for the losers. The win flips
// the lanes' shared util::CancelToken, which is composed into every
// lane's Deadline, so the losing engines stop at their next budget poll —
// inside the SAT solver's decisions+propagations check, the Manthan3
// verify/repair loop, or the baselines' outer loops — in the background.
//
// Lane threads are persistent (RaceLanes): they start on the first race,
// one per contender, and serve every later race until their owner joins
// them. A lane owns, through the race's shared state, everything it
// touches after race() has returned: the formula, its manager, its result
// slot, the lanes' token and the request's budget. The external stop
// token (RaceOptions::cancel) is read only while race() runs.
//
// An uncertified "realizable" claim never wins (solved == certified, as
// everywhere in this codebase); such a lane simply finishes and the race
// continues. A lane that returns after the win is not certified at all:
// its verdict is not used, so check_certificate is skipped.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
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
  /// Per-lane wall-clock budget in seconds; 0 = unlimited (a race with no
  /// definitive lane then lasts until every lane returns).
  double time_limit_seconds = 0.0;
  std::uint64_t seed = 42;
  /// Tag for the lane spans and every lane's engine spans; 0 = untagged.
  std::uint64_t trace_id = 0;
  /// External stop signal (a service shutdown, a caller's per-request
  /// cancel): every lane stops at its next poll when it fires. Read only
  /// while race() runs, so it need only outlive the call; a lane still
  /// running afterwards has already been stopped by the win. Null = the
  /// race can only be ended by a winner or the time budget.
  const util::CancelToken* cancel = nullptr;
  /// Per-request resource budget shared by all lanes (the budget's token
  /// should additionally be composed into `cancel` by the caller). Each
  /// lane installs it as its thread's growth-site budget, so a race
  /// charges memory/conflicts the same way a single-engine run does.
  /// Shared with the lanes, which may outlive race(). Null = unbudgeted.
  std::shared_ptr<util::ResourceBudget> budget;
};

/// Outcome of one contender, as it stood when race() returned.
struct RaceLane {
  EngineKind engine = EngineKind::kManthan3;
  core::SynthesisStatus status = core::SynthesisStatus::kLimit;
  /// This lane won with a kRealizable vector that the checker accepted.
  bool certified = false;
  bool winner = false;
  /// The lane's verdict was not used: the winner's token stopped it
  /// (status kTimeout, truncated stats), it returned after the win (any
  /// status, never certified), or it had not returned when race() did.
  bool cancelled = false;
  /// Wall time of the lane; for a lane still running, the race's time so
  /// far.
  double seconds = 0.0;
  /// Engine counters; empty for a lane still running.
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
  /// One entry per contender. A lane that had not returned when race()
  /// did is reported with status kTimeout and cancelled set.
  std::vector<RaceLane> lanes;

  /// A certified Henkin vector was synthesized.
  bool solved() const {
    return status == core::SynthesisStatus::kRealizable && certified;
  }
};

class RaceLanes;

/// Race `options.contenders` on `formula`, one lane thread per contender
/// from `lanes`. Returns at the first definitive lane (or once every lane
/// has returned); the winning vector is imported into `manager`.
RaceOutcome race(RaceLanes& lanes,
                 std::shared_ptr<const dqbf::DqbfFormula> formula,
                 aig::Aig& manager, const RaceOptions& options = {});

/// The same race on lane threads that live as long as the process.
RaceOutcome race(const dqbf::DqbfFormula& formula, aig::Aig& manager,
                 const RaceOptions& options = {});

/// Persistent lane threads for race(). Constructing one starts no thread:
/// the first race starts one per contender, and a later lane starts a new
/// thread only when none is idle (concurrent races, or losers of an
/// earlier race still stopping), so a lane never queues behind another
/// race's and the set settles at the peak number of lanes in flight. The
/// destructor lets every running lane finish — each race has stopped its
/// losers before returning, so that is their next poll — and joins the
/// threads.
class RaceLanes {
 public:
  RaceLanes() = default;
  ~RaceLanes();

  RaceLanes(const RaceLanes&) = delete;
  RaceLanes& operator=(const RaceLanes&) = delete;

 private:
  friend RaceOutcome race(RaceLanes&, std::shared_ptr<const dqbf::DqbfFormula>,
                          aig::Aig&, const RaceOptions&);

  /// Hand `lane` to an idle thread, or to a new one if none is idle.
  void run(std::function<void()> lane);
  void loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mutex_
  std::size_t idle_ = 0;                     // guarded by mutex_
  bool stopping_ = false;                    // guarded by mutex_
  std::vector<std::thread> threads_;         // guarded by mutex_
};

}  // namespace manthan::engine
