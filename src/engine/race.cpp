#include "engine/race.hpp"

#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "dqbf/certificate.hpp"
#include "obs/trace.hpp"
#include "util/budget.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/scheduler.hpp"
#include "util/timer.hpp"

namespace manthan::engine {

RaceOutcome race(const dqbf::DqbfFormula& formula, aig::Aig& manager,
                 const RaceOptions& options) {
  RaceOutcome outcome;
  const std::size_t n = options.contenders.size();
  outcome.lanes.resize(n);
  if (n == 0) return outcome;

  // The winner flips only the child flag; an external stop (service
  // shutdown, per-request cancel) flows in through the parent without
  // being conflated with a win.
  util::AnyOfCancelToken cancel(options.cancel);
  std::mutex finish_mutex;  // guards winner selection across lanes
  std::vector<std::unique_ptr<aig::Aig>> managers(n);
  std::vector<core::SynthesisResult> results(n);

  {
    util::Scheduler pool(n);
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(pool.submit([&, i]() {
        // One span per contender; all lanes share the request's trace id,
        // so a trace shows them racing side by side across threads.
        obs::Span lane_span("race.lane", "service", options.trace_id);
        // The budget is thread-local; each lane re-installs it so its
        // growth sites charge the shared request budget.
        util::BudgetScope budget_scope(options.budget);
        util::Timer timer;
        EngineOptions engine_options;
        engine_options.time_limit_seconds = options.time_limit_seconds;
        engine_options.seed = util::derive_seed(
            options.seed,
            static_cast<std::uint64_t>(options.contenders[i]), i);
        engine_options.cancel = &cancel;
        engine_options.trace_id = options.trace_id;
        managers[i] = std::make_unique<aig::Aig>();
        core::SynthesisResult result;
        try {
          result = run_engine(formula, *managers[i], options.contenders[i],
                              engine_options);
        } catch (const util::OutOfBudgetError&) {
          // Baseline engines don't catch budget trips themselves
          // (Manthan3 does); a tripped lane is a finished lane.
          result.status = core::SynthesisStatus::kOutOfBudget;
        }

        RaceLane& lane = outcome.lanes[i];
        lane.engine = options.contenders[i];
        lane.status = result.status;
        lane.stats = result.stats;
        lane.seconds = timer.seconds();
        if (result.status == core::SynthesisStatus::kRealizable) {
          const dqbf::CertificateResult cert = dqbf::check_certificate(
              formula, *managers[i], result.vector);
          lane.certified = cert.status == dqbf::CertificateStatus::kValid;
        }
        const bool definitive =
            lane.certified ||
            result.status == core::SynthesisStatus::kUnrealizable;

        const std::lock_guard<std::mutex> lock(finish_mutex);
        results[i] = std::move(result);
        if (definitive && outcome.winner < 0) {
          outcome.winner = static_cast<int>(i);
          lane.winner = true;
          obs::trace_instant("race.win", "service", options.trace_id);
          cancel.cancel();  // stop the losing lanes at their next poll
        } else if (cancel.cancelled() &&
                   lane.status == core::SynthesisStatus::kTimeout) {
          // Truncated by the token, not a natural completion. (A lane
          // whose own time budget expired in the instant after the win
          // is indistinguishable and also counted; a lane that finished
          // with a real verdict is not.)
          lane.cancelled = true;
        }
      }));
    }
    for (std::future<void>& f : futures) f.get();
  }

  if (outcome.winner >= 0) {
    const std::size_t w = static_cast<std::size_t>(outcome.winner);
    outcome.status = outcome.lanes[w].status;
    outcome.certified = outcome.lanes[w].certified;
    if (outcome.status == core::SynthesisStatus::kRealizable) {
      // Rebuild the winning functions in the caller's manager.
      std::unordered_map<std::uint32_t, aig::Ref> node_map;
      outcome.vector.functions.reserve(results[w].vector.functions.size());
      for (const aig::Ref f : results[w].vector.functions) {
        outcome.vector.functions.push_back(
            aig::import_cone(*managers[w], manager, f, node_map));
      }
    }
    return outcome;
  }

  // No definitive lane: summarize the failure mode. Incompleteness
  // dominates (a budget would not have helped), then iteration limits,
  // then resource-budget trips, then genuine timeouts; an uncertified
  // kRealizable claim counts as incompleteness (the engine finished but
  // produced an invalid vector). Internal errors rank last — any other
  // lane's outcome is more informative.
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

}  // namespace manthan::engine
