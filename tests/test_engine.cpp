// Parallel execution engine: thread-pool scheduler semantics, cooperative
// cancellation through the CancelToken/Deadline composition (SAT solver
// and synthesis engines stop mid-run with bounded extra work), and the
// racing portfolio (first certified result wins, losers are cancelled).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "test_util.hpp"
#include "baselines/hqs_lite.hpp"
#include "baselines/pedant_lite.hpp"
#include "engine/engine.hpp"
#include "engine/race.hpp"
#include "sat/solver.hpp"
#include "util/cancel.hpp"
#include "util/scheduler.hpp"
#include "util/timer.hpp"
#include "workloads/workloads.hpp"

namespace manthan::engine {
namespace {

using cnf::Var;
using util::Scheduler;

// --- CancelToken / Deadline composition ------------------------------------

TEST(CancelToken, StickyFlagAndReset) {
  util::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelToken, ComposesWithUnlimitedDeadline) {
  util::CancelToken token;
  const util::Deadline deadline(0.0, &token);
  EXPECT_FALSE(deadline.expired());
  EXPECT_TRUE(std::isinf(deadline.remaining_seconds()));
  token.cancel();
  EXPECT_TRUE(deadline.expired());
  EXPECT_TRUE(deadline.cancelled());
  EXPECT_EQ(deadline.remaining_seconds(), 0.0);
}

TEST(CancelToken, TimeLimitStillExpiresWithoutCancel) {
  util::CancelToken token;
  const util::Deadline deadline(1e-9, &token);
  while (!deadline.expired()) {
  }
  EXPECT_TRUE(deadline.expired());
  EXPECT_FALSE(deadline.cancelled());
}

// --- Scheduler --------------------------------------------------------------

TEST(Scheduler, ReturnsResultsThroughFutures) {
  Scheduler pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 64; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(Scheduler, SingleWorkerRunsFifo) {
  std::vector<int> order;
  {
    Scheduler pool(1);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i) {
      futures.push_back(pool.submit([i, &order]() { order.push_back(i); }));
    }
    for (auto& f : futures) f.get();
  }
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, DestructorDrainsQueuedJobs) {
  std::atomic<int> done{0};
  {
    Scheduler pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&done]() { done.fetch_add(1); });
    }
    // No get(): the destructor must still run every queued job.
  }
  EXPECT_EQ(done.load(), 100);
}

TEST(Scheduler, ExceptionsArriveThroughTheFuture) {
  Scheduler pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("job failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(Scheduler, ZeroWorkersClampedToOne) {
  Scheduler pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

// --- cancellation of the SAT solver ----------------------------------------

/// Pigeonhole PHP(n+1, n): UNSAT and exponentially hard for CDCL —
/// guaranteed to still be running when the cancel lands.
cnf::CnfFormula pigeonhole(int holes) {
  const int pigeons = holes + 1;
  cnf::CnfFormula f(static_cast<Var>(pigeons * holes));
  const auto var = [holes](int pigeon, int hole) {
    return static_cast<Var>(pigeon * holes + hole);
  };
  for (int p = 0; p < pigeons; ++p) {
    cnf::Clause somewhere;
    for (int h = 0; h < holes; ++h) somewhere.push_back(cnf::pos(var(p, h)));
    f.add_clause(somewhere);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        f.add_clause({cnf::neg(var(p, h)), cnf::neg(var(q, h))});
      }
    }
  }
  return f;
}

TEST(Cancellation, PreCancelledTokenStopsSolverWithBoundedWork) {
  // Long implication chains: tens of thousands of propagations and zero
  // conflicts if the solve is allowed to run.
  sat::Solver solver;
  const int chains = 10;
  const int length = 1000;
  for (int c = 0; c < chains; ++c) {
    const Var base = static_cast<Var>(c * length);
    for (int i = 0; i + 1 < length; ++i) {
      solver.add_clause({cnf::neg(base + i), cnf::pos(base + i + 1)});
    }
  }
  for (int c = 0; c < chains; ++c) {
    solver.add_clause({cnf::pos(static_cast<Var>(c * length))});
  }
  util::CancelToken token;
  token.cancel();
  const util::Deadline deadline(0.0, &token);
  const std::uint64_t work_before =
      solver.stats().decisions + solver.stats().propagations;
  EXPECT_EQ(solver.solve({}, deadline), sat::Result::kUnknown);
  // The token is polled on the decisions+propagations counter; an
  // already-cancelled solve must stop within one poll interval.
  const std::uint64_t work_after =
      solver.stats().decisions + solver.stats().propagations;
  EXPECT_LT(work_after - work_before, 10000u);
  // The solver stays usable after the interrupted call.
  EXPECT_EQ(solver.solve({}), sat::Result::kSat);
}

TEST(Cancellation, StopsSolverMidSolve) {
  sat::Solver solver;
  solver.add_formula(pigeonhole(12));
  util::CancelToken token;
  util::Timer timer;
  sat::Result result = sat::Result::kSat;
  std::thread worker([&]() {
    // 60 s backstop: if cancellation is broken the deadline still ends
    // the test (as a failure of the elapsed bound) instead of hanging.
    const util::Deadline deadline(60.0, &token);
    result = solver.solve({}, deadline);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  token.cancel();
  worker.join();
  EXPECT_EQ(result, sat::Result::kUnknown);
  EXPECT_LT(timer.seconds(), 30.0);
}

// --- cancellation of the synthesis engines ----------------------------------

/// Nested-dependency planted instance: Manthan3 needs >1 s of repair
/// work, PedantLite needs several seconds of arbiter-table work, while
/// HqsLite eliminates it in well under a second — the asymmetry the
/// racing test exploits.
dqbf::DqbfFormula slow_planted_hard() {
  workloads::PlantedParams params{16, 6, 5, 5, 180, 3};
  params.xor_functions = false;
  params.nested_deps = true;
  params.dep_size_max = 12;
  return workloads::gen_planted(params);
}

TEST(Cancellation, PreCancelledTokenStopsManthan3) {
  util::CancelToken token;
  token.cancel();
  core::Manthan3Options options;
  options.cancel = &token;
  core::Manthan3 synthesizer(options);
  aig::Aig manager;
  const core::SynthesisResult result =
      synthesizer.synthesize(testutil::hard_planted(3), manager);
  EXPECT_EQ(result.status, core::SynthesisStatus::kTimeout);
  // Truncated run: never reached the verify/repair loop.
  EXPECT_EQ(result.stats.counterexamples, 0u);
  EXPECT_EQ(result.stats.repairs, 0u);
}

TEST(Cancellation, StopsManthan3MidRun) {
  // No time limit: a kTimeout status can only come from the token. If
  // cancellation were broken the engine would *finish* and the status
  // assertion would fail rather than the test hanging: slow_planted()
  // keeps a default run busy for at least 1 s (Manthan3.SlowPlantedStaysSlow),
  // well past the 100 ms cancellation point. Every phase polls the token,
  // so the run stops well within 500 ms of it.
  const dqbf::DqbfFormula formula = testutil::slow_planted();
  util::CancelToken token;
  core::Manthan3Options options;
  options.cancel = &token;
  core::SynthesisResult result;
  aig::Aig manager;
  std::thread worker([&]() {
    core::Manthan3 synthesizer(options);
    result = synthesizer.synthesize(formula, manager);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto cancelled_at = std::chrono::steady_clock::now();
  token.cancel();
  worker.join();
  const auto latency_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - cancelled_at);
  EXPECT_EQ(result.status, core::SynthesisStatus::kTimeout);
  EXPECT_LE(latency_ms.count(), 500);
}

TEST(Cancellation, PreCancelledTokenStopsBaselines) {
  // slow_planted_hard is inside HqsLite's expansion cap (unlike
  // hard_planted, which it refuses outright with kLimit before doing any
  // cancellable work) and costs PedantLite seconds of arbiter work.
  const dqbf::DqbfFormula formula = slow_planted_hard();
  util::CancelToken token;
  token.cancel();
  {
    baselines::HqsLiteOptions options;
    options.cancel = &token;
    baselines::HqsLite engine(options);
    aig::Aig manager;
    EXPECT_EQ(engine.synthesize(formula, manager).status,
              core::SynthesisStatus::kTimeout);
  }
  {
    baselines::PedantLiteOptions options;
    options.cancel = &token;
    baselines::PedantLite engine(options);
    aig::Aig manager;
    EXPECT_EQ(engine.synthesize(formula, manager).status,
              core::SynthesisStatus::kTimeout);
  }
}

// --- run_engine -------------------------------------------------------------

TEST(RunEngine, AllEnginesSolveThePaperExample) {
  const dqbf::DqbfFormula formula = testutil::paper_example();
  for (const EngineKind kind :
       {EngineKind::kManthan3, EngineKind::kHqsLite,
        EngineKind::kPedantLite}) {
    aig::Aig manager;
    EngineOptions options;
    options.time_limit_seconds = 20.0;
    const core::SynthesisResult result =
        run_engine(formula, manager, kind, options);
    EXPECT_TRUE(testutil::is_certified(formula, manager, result))
        << engine_name(kind);
  }
}

TEST(RunEngine, NamesAreStable) {
  EXPECT_STREQ(engine_name(EngineKind::kManthan3), "Manthan3");
  EXPECT_STREQ(engine_name(EngineKind::kHqsLite), "HqsLite");
  EXPECT_STREQ(engine_name(EngineKind::kPedantLite), "PedantLite");
  EXPECT_STREQ(status_name(core::SynthesisStatus::kTimeout), "timeout");
}

// --- racing portfolio -------------------------------------------------------

TEST(Race, ReturnsCertifiedWinnerOnEasyInstance) {
  const dqbf::DqbfFormula formula = testutil::paper_example();
  aig::Aig manager;
  RaceOptions options;
  options.time_limit_seconds = 20.0;
  const RaceOutcome outcome = race(formula, manager, options);
  ASSERT_TRUE(outcome.solved());
  ASSERT_GE(outcome.winner, 0);
  ASSERT_EQ(outcome.lanes.size(), 3u);
  EXPECT_TRUE(outcome.lanes[outcome.winner].winner);
  EXPECT_TRUE(outcome.lanes[outcome.winner].certified);
  // The imported vector certifies against the *caller's* manager.
  const dqbf::CertificateResult cert =
      dqbf::check_certificate(formula, manager, outcome.vector);
  EXPECT_EQ(cert.status, dqbf::CertificateStatus::kValid);
}

TEST(Race, CancelsTheLosingEngines) {
  // HqsLite eliminates this instance in a fraction of the time
  // PedantLite's arbiter loop needs (seconds serially), so the race must
  // end with HqsLite certified and PedantLite stopped by the token —
  // status kTimeout with truncated stats, not its serial kRealizable.
  const dqbf::DqbfFormula formula = slow_planted_hard();
  aig::Aig manager;
  RaceOptions options;
  options.contenders = {EngineKind::kHqsLite, EngineKind::kPedantLite};
  options.time_limit_seconds = 120.0;
  const RaceOutcome outcome = race(formula, manager, options);
  ASSERT_TRUE(outcome.solved());
  ASSERT_EQ(outcome.winner, 0);
  EXPECT_EQ(outcome.lanes[0].engine, EngineKind::kHqsLite);
  EXPECT_TRUE(outcome.lanes[0].certified);
  const RaceLane& loser = outcome.lanes[1];
  EXPECT_TRUE(loser.cancelled);
  EXPECT_EQ(loser.status, core::SynthesisStatus::kTimeout);
  const dqbf::CertificateResult cert =
      dqbf::check_certificate(formula, manager, outcome.vector);
  EXPECT_EQ(cert.status, dqbf::CertificateStatus::kValid);
}

TEST(Race, ReportsUnrealizableVerdicts) {
  // Every engine detects this False instance; whichever wins, the race
  // must report kUnrealizable with no vector.
  const dqbf::DqbfFormula formula =
      workloads::gen_unrealizable({2, true, 1});
  aig::Aig manager;
  RaceOptions options;
  options.time_limit_seconds = 20.0;
  const RaceOutcome outcome = race(formula, manager, options);
  EXPECT_EQ(outcome.status, core::SynthesisStatus::kUnrealizable);
  EXPECT_GE(outcome.winner, 0);
  EXPECT_FALSE(outcome.solved());
  EXPECT_TRUE(outcome.vector.functions.empty());
}

TEST(Race, EmptyContendersIsANoOp) {
  aig::Aig manager;
  RaceOptions options;
  options.contenders = {};
  const RaceOutcome outcome =
      race(testutil::paper_example(), manager, options);
  EXPECT_EQ(outcome.winner, -1);
  EXPECT_FALSE(outcome.solved());
  EXPECT_TRUE(outcome.lanes.empty());
}

}  // namespace
}  // namespace manthan::engine
