#include "engine/race.hpp"

#include <exception>
#include <unordered_map>
#include <utility>

#include "dqbf/certificate.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace manthan::engine {

namespace {

/// The lanes' stop flag. The winner sets it; while race() runs it also
/// reads the external token. detach() ends that: once it returns no lane
/// reads the external token again, so its owner may destroy it while
/// losing lanes still poll this one.
class LaneToken final : public util::CancelToken {
 public:
  explicit LaneToken(const util::CancelToken* external)
      : external_(external) {}

  bool cancelled() const override {
    if (CancelToken::cancelled()) return true;
    const std::lock_guard<std::mutex> lock(mutex_);
    return external_ != nullptr && external_->cancelled();
  }

  void detach() {
    const std::lock_guard<std::mutex> lock(mutex_);
    external_ = nullptr;
  }

 private:
  mutable std::mutex mutex_;
  const util::CancelToken* external_;  // guarded by mutex_
};

/// Everything a lane touches, shared by race() and its lanes: the last
/// holder (race() or the slowest lane) frees the formula and the managers.
struct RaceState {
  struct Lane {
    aig::Aig manager;
    core::SynthesisResult result;
    RaceLane report;
    bool finished = false;
    std::exception_ptr error;  // a throw the lane could not turn into a status
  };

  RaceState(std::shared_ptr<const dqbf::DqbfFormula> formula_,
            const RaceOptions& options)
      : formula(std::move(formula_)),
        time_limit_seconds(options.time_limit_seconds),
        seed(options.seed),
        trace_id(options.trace_id),
        budget(options.budget),
        token(options.cancel),
        lanes(options.contenders.size()) {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes[i].report.engine = options.contenders[i];
    }
  }

  const std::shared_ptr<const dqbf::DqbfFormula> formula;
  const double time_limit_seconds;
  const std::uint64_t seed;
  const std::uint64_t trace_id;
  const std::shared_ptr<util::ResourceBudget> budget;
  LaneToken token;

  // Guards winner, finished and each lane's result, report, finished and
  // error. A lane's manager is its own thread's until it has finished.
  std::mutex mutex;
  std::condition_variable settled;
  int winner = -1;
  std::size_t finished = 0;
  std::vector<Lane> lanes;
};

void run_lane(RaceState& state, std::size_t i) {
  RaceState::Lane& lane = state.lanes[i];
  const EngineKind kind = lane.report.engine;  // written before any lane ran
  // One span per contender; all lanes share the request's trace id, so a
  // trace shows them racing side by side across threads.
  obs::Span lane_span("race.lane", "service", state.trace_id);
  // The budget is thread-local; each lane re-installs it so its growth
  // sites charge the shared request budget.
  util::BudgetScope budget_scope(state.budget.get());
  util::Timer timer;
  EngineOptions engine_options;
  engine_options.time_limit_seconds = state.time_limit_seconds;
  engine_options.seed =
      util::derive_seed(state.seed, static_cast<std::uint64_t>(kind), i);
  engine_options.cancel = &state.token;
  engine_options.trace_id = state.trace_id;

  core::SynthesisResult result;
  bool certified = false;
  std::exception_ptr error;
  try {
    try {
      result = run_engine(*state.formula, lane.manager, kind, engine_options);
    } catch (const util::OutOfBudgetError&) {
      // Baseline engines don't catch budget trips themselves (Manthan3
      // does); a tripped lane is a finished lane.
      result.status = core::SynthesisStatus::kOutOfBudget;
    }
    if (result.status == core::SynthesisStatus::kRealizable) {
      bool decided = false;
      {
        const std::lock_guard<std::mutex> lock(state.mutex);
        decided = state.winner >= 0;
      }
      // After the win this vector is never used: skip its certificate.
      if (!decided) {
        certified = dqbf::check_certificate(*state.formula, lane.manager,
                                            result.vector)
                        .status == dqbf::CertificateStatus::kValid;
      }
    }
  } catch (...) {
    error = std::current_exception();
  }

  const std::lock_guard<std::mutex> lock(state.mutex);
  RaceLane& report = lane.report;
  report.status = result.status;
  report.stats = result.stats;
  report.seconds = timer.seconds();
  if (state.winner >= 0) {
    report.cancelled = true;  // returned after the win
  } else if (certified ||
             result.status == core::SynthesisStatus::kUnrealizable) {
    state.winner = static_cast<int>(i);
    report.certified = certified;
    report.winner = true;
    obs::trace_instant("race.win", "service", state.trace_id);
    state.token.cancel();  // stop the losing lanes at their next poll
  } else if (state.token.cancelled() &&
             result.status == core::SynthesisStatus::kTimeout) {
    // Truncated by the external token, not a natural completion.
    report.cancelled = true;
  }
  lane.result = std::move(result);
  lane.error = error;
  lane.finished = true;
  ++state.finished;
  state.settled.notify_all();
}

}  // namespace

RaceLanes::~RaceLanes() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void RaceLanes::run(std::function<void()> lane) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(lane));
    // Each idle thread takes one queued lane; the rest get a new thread.
    if (queue_.size() > idle_) threads_.emplace_back([this] { loop(); });
  }
  cv_.notify_one();
}

void RaceLanes::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    ++idle_;
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    --idle_;
    if (queue_.empty()) return;  // stopping, and every lane has run
    std::function<void()> lane = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    lane();
    lane = nullptr;  // may free the race's state: do it off the lock
    lock.lock();
  }
}

RaceOutcome race(RaceLanes& lanes,
                 std::shared_ptr<const dqbf::DqbfFormula> formula,
                 aig::Aig& manager, const RaceOptions& options) {
  RaceOutcome outcome;
  const std::size_t n = options.contenders.size();
  if (n == 0) return outcome;

  util::Timer timer;
  const auto state = std::make_shared<RaceState>(std::move(formula), options);
  // On every way out, stop the lanes still running and cut them off from
  // the external token, which only has to outlive this call. The winner
  // flips only the lanes' own flag; an external stop (service shutdown,
  // per-request cancel) flows in without being conflated with a win.
  struct Release {
    LaneToken& token;
    ~Release() {
      token.cancel();
      token.detach();
    }
  } release{state->token};
  for (std::size_t i = 0; i < n; ++i) {
    lanes.run([state, i] { run_lane(*state, i); });
  }

  int winner = -1;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->settled.wait(
        lock, [&] { return state->winner >= 0 || state->finished == n; });
    winner = state->winner;
    outcome.lanes.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const RaceState::Lane& lane = state->lanes[i];
      RaceLane& report = outcome.lanes[i];
      if (lane.finished) {
        report = lane.report;
        if (error == nullptr) error = lane.error;
      } else {
        report.engine = lane.report.engine;
        report.status = core::SynthesisStatus::kTimeout;
        report.cancelled = true;
        report.seconds = timer.seconds();
      }
    }
  }

  if (winner >= 0) {
    // The winning lane has finished: its manager and result are no longer
    // written, so they are read here without the lock.
    const RaceState::Lane& lane = state->lanes[static_cast<std::size_t>(winner)];
    outcome.winner = winner;
    outcome.status = lane.report.status;
    outcome.certified = lane.report.certified;
    if (outcome.status == core::SynthesisStatus::kRealizable) {
      // Rebuild the winning functions in the caller's manager.
      std::unordered_map<std::uint32_t, aig::Ref> node_map;
      outcome.vector.functions.reserve(lane.result.vector.functions.size());
      for (const aig::Ref f : lane.result.vector.functions) {
        outcome.vector.functions.push_back(
            aig::import_cone(lane.manager, manager, f, node_map));
      }
    }
    return outcome;
  }
  // No definitive lane, and every lane has returned. A throw no lane could
  // turn into a status (a certificate check over budget, an engine fault)
  // ends the race the way it would end a single-engine run.
  if (error != nullptr) std::rethrow_exception(error);

  // Summarize the failure mode. Incompleteness dominates (a budget would
  // not have helped), then iteration limits, then resource-budget trips,
  // then genuine timeouts; an uncertified kRealizable claim counts as
  // incompleteness (the engine finished but produced an invalid vector).
  // Internal errors rank last — any other lane's outcome is more
  // informative.
  const auto rank = [](core::SynthesisStatus s) {
    switch (s) {
      case core::SynthesisStatus::kIncomplete: return 0;
      case core::SynthesisStatus::kRealizable: return 0;  // uncertified
      case core::SynthesisStatus::kLimit: return 1;
      case core::SynthesisStatus::kOutOfBudget: return 2;
      case core::SynthesisStatus::kInternalError: return 4;
      default: return 3;  // kTimeout
    }
  };
  outcome.status = core::SynthesisStatus::kTimeout;
  for (const RaceLane& lane : outcome.lanes) {
    if (rank(lane.status) >= rank(outcome.status)) continue;
    outcome.status = lane.status == core::SynthesisStatus::kRealizable
                         ? core::SynthesisStatus::kIncomplete
                         : lane.status;
  }
  return outcome;
}

RaceOutcome race(const dqbf::DqbfFormula& formula, aig::Aig& manager,
                 const RaceOptions& options) {
  // Joined at exit, after its last race stopped its losers.
  static RaceLanes process_lanes;
  return race(process_lanes, std::make_shared<const dqbf::DqbfFormula>(formula),
              manager, options);
}

}  // namespace manthan::engine
