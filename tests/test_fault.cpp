// Robustness under injected faults and resource budgets: the fault
// injector's spec grammar and schedule determinism, ResourceBudget trip
// semantics, full Manthan3 synthesize runs under seeded fault schedules
// (same schedule → same status, twice), the service's internal-error and
// budget paths, the crash-durable tier-1 cache (warm restart,
// corruption tolerance, eviction), and the daemon's retry / backoff /
// quarantine / journal-recovery machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "cnf/cnf.hpp"
#include "core/manthan3.hpp"
#include "dqbf/certificate.hpp"
#include "dqbf/dqdimacs.hpp"
#include "dqbf/fingerprint.hpp"
#include "engine/daemon.hpp"
#include "engine/service.hpp"
#include "obs/metrics.hpp"
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "workloads/workloads.hpp"

namespace manthan {
namespace {

namespace fs = std::filesystem;
namespace fault = util::fault;

using engine::DaemonOptions;
using engine::DrainReport;
using engine::Service;
using engine::ServiceOptions;
using engine::ServiceResponse;
using engine::SolveOptions;
using util::ResourceBudget;

/// Every test in this file runs with a clean process-global injector;
/// a schedule leaked across tests would poison unrelated suites.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::clear(); }
};

ServiceOptions single_manthan3(std::size_t workers = 1) {
  ServiceOptions options;
  options.workers = workers;
  options.admission = ServiceOptions::Admission::kSingle;
  options.single_engine = engine::EngineKind::kManthan3;
  return options;
}

dqbf::DqbfFormula unrealizable_formula() {
  workloads::UnrealizableParams params;
  params.num_constraints = 1;
  params.extension_detectable = true;
  params.seed = 7;
  return workloads::gen_unrealizable(params);
}

std::uint64_t counter_value(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// Fault-spec grammar.
// ---------------------------------------------------------------------------

TEST(FaultSpec, ParsesFullGrammar) {
  const fault::Schedule schedule = fault::parse_schedule(
      "seed=7;sat.arena.grow:alloc:after=3:every=2:limit=4:p=0.5;"
      "daemon.write:io;service.job:stall:ms=25");
  EXPECT_EQ(schedule.seed, 7u);
  ASSERT_EQ(schedule.rules.size(), 3u);

  const fault::Rule& arena = schedule.rules[0];
  EXPECT_EQ(arena.site, fault::Site::kSatArenaGrow);
  EXPECT_EQ(arena.kind, fault::Kind::kAlloc);
  EXPECT_EQ(arena.after, 3u);
  EXPECT_EQ(arena.every, 2u);
  EXPECT_EQ(arena.limit, 4u);
  EXPECT_DOUBLE_EQ(arena.probability, 0.5);

  const fault::Rule& io = schedule.rules[1];
  EXPECT_EQ(io.site, fault::Site::kDaemonWrite);
  EXPECT_EQ(io.kind, fault::Kind::kIo);
  EXPECT_EQ(io.after, 1u);   // defaults
  EXPECT_EQ(io.every, 0u);
  EXPECT_EQ(io.limit, 1u);

  const fault::Rule& stall = schedule.rules[2];
  EXPECT_EQ(stall.kind, fault::Kind::kStall);
  EXPECT_EQ(stall.stall_ms, 25u);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::parse_schedule("nonsense.site:alloc"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_schedule("sat.arena.grow:frobnicate"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_schedule("sat.arena.grow"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_schedule("sat.arena.grow:alloc:after=zero"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_schedule("sat.arena.grow:alloc:after=0"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_schedule("sat.arena.grow:alloc:p=2.5"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_schedule("seed=7;sat.arena.grow:alloc:bogus"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Injector firing discipline.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, FiresAtExactPollIndex) {
  fault::install("seed=1;sat.arena.grow:alloc:after=3");
  std::vector<fault::Kind> kinds;
  for (int i = 0; i < 5; ++i) {
    kinds.push_back(fault::poll(fault::Site::kSatArenaGrow));
  }
  const std::vector<fault::Kind> expected{
      fault::Kind::kNone, fault::Kind::kNone, fault::Kind::kAlloc,
      fault::Kind::kNone, fault::Kind::kNone};
  EXPECT_EQ(kinds, expected);
  EXPECT_EQ(fault::stats(fault::Site::kSatArenaGrow).polls, 5u);
  EXPECT_EQ(fault::stats(fault::Site::kSatArenaGrow).fires, 1u);
  EXPECT_EQ(fault::total_fires(), 1u);
}

TEST_F(FaultTest, EveryAndLimitBoundRepeats) {
  fault::install("seed=1;daemon.read:io:after=2:every=2:limit=2");
  std::vector<std::size_t> fired_at;
  for (std::size_t poll = 1; poll <= 8; ++poll) {
    if (fault::poll(fault::Site::kDaemonRead) == fault::Kind::kIo) {
      fired_at.push_back(poll);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<std::size_t>{2, 4}));
}

TEST_F(FaultTest, ProbabilisticFiringIsSeedDeterministic) {
  const std::string spec =
      "seed=9;service.job:io:after=1:every=1:limit=0:p=0.5";
  const auto record = [&] {
    fault::install(spec);
    std::vector<fault::Kind> kinds;
    for (int i = 0; i < 64; ++i) {
      kinds.push_back(fault::poll(fault::Site::kServiceJob));
    }
    return kinds;
  };
  const std::vector<fault::Kind> first = record();
  const std::vector<fault::Kind> second = record();
  EXPECT_EQ(first, second);
  const auto fires = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), fault::Kind::kIo));
  EXPECT_GT(fires, 0u);   // p=0.5 over 64 polls: both extremes are
  EXPECT_LT(fires, 64u);  // astronomically unlikely under a fair coin
}

TEST_F(FaultTest, InstallClearAndActiveSpec) {
  EXPECT_FALSE(fault::active());
  EXPECT_EQ(fault::poll(fault::Site::kServiceJob), fault::Kind::kNone);
  const std::string spec = "seed=3;service.job:cancel:after=1";
  fault::install(spec);
  EXPECT_TRUE(fault::active());
  EXPECT_EQ(fault::active_spec(), spec);
  fault::clear();
  EXPECT_FALSE(fault::active());
  EXPECT_EQ(fault::poll(fault::Site::kServiceJob), fault::Kind::kNone);
}

TEST_F(FaultTest, StallSleepsInsidePoll) {
  fault::install("seed=1;service.job:stall:after=1:ms=30");
  const auto start = std::chrono::steady_clock::now();
  const fault::Kind kind = fault::poll(fault::Site::kServiceJob);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(kind, fault::Kind::kStall);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            20);
}

// ---------------------------------------------------------------------------
// ResourceBudget semantics.
// ---------------------------------------------------------------------------

TEST(ResourceBudgetTest, MemoryChargeTrips) {
  ResourceBudget::Limits limits;
  limits.memory_bytes = 1000;
  ResourceBudget budget(limits);
  EXPECT_TRUE(budget.charge_bytes(600));
  EXPECT_EQ(budget.tripped(), ResourceBudget::Trip::kNone);
  EXPECT_FALSE(budget.token().cancelled());
  EXPECT_FALSE(budget.charge_bytes(600));
  EXPECT_EQ(budget.tripped(), ResourceBudget::Trip::kMemory);
  EXPECT_TRUE(budget.token().cancelled());
  EXPECT_FALSE(budget.charge_bytes(1));  // stays tripped
}

TEST(ResourceBudgetTest, ConflictLimitTrips) {
  ResourceBudget::Limits limits;
  limits.conflicts = 10;
  ResourceBudget budget(limits);
  EXPECT_TRUE(budget.add_conflicts(10));
  EXPECT_FALSE(budget.add_conflicts(1));
  EXPECT_EQ(budget.tripped(), ResourceBudget::Trip::kConflicts);
}

TEST(ResourceBudgetTest, FirstCauseWins) {
  ResourceBudget budget;
  budget.trip(ResourceBudget::Trip::kTime);
  budget.trip(ResourceBudget::Trip::kMemory);
  EXPECT_EQ(budget.tripped(), ResourceBudget::Trip::kTime);
}

TEST(ResourceBudgetTest, UnlimitedBudgetNeverTrips) {
  ResourceBudget budget;  // all limits zero = unlimited
  EXPECT_FALSE(ResourceBudget::Limits{}.any());
  EXPECT_TRUE(budget.charge_bytes(1ull << 40));
  EXPECT_TRUE(budget.add_conflicts(1ull << 40));
  EXPECT_EQ(budget.tripped(), ResourceBudget::Trip::kNone);
}

TEST(ResourceBudgetTest, BudgetScopeNestsAndRestores) {
  EXPECT_EQ(util::current_budget(), nullptr);
  ResourceBudget outer;
  {
    util::BudgetScope outer_scope(&outer);
    EXPECT_EQ(util::current_budget(), &outer);
    {
      // Installing null clears: an unbudgeted nested request must not
      // charge the outer request's budget.
      util::BudgetScope inner_scope(nullptr);
      EXPECT_EQ(util::current_budget(), nullptr);
    }
    EXPECT_EQ(util::current_budget(), &outer);
  }
  EXPECT_EQ(util::current_budget(), nullptr);
}

TEST(ResourceBudgetTest, GuardedGrowThrowsBeforeAllocWhenOverBudget) {
  ResourceBudget::Limits limits;
  limits.memory_bytes = 100;
  ResourceBudget budget(limits);
  util::BudgetScope scope(&budget);
  bool alloc_ran = false;
  try {
    util::guarded_grow(fault::Site::kSatArenaGrow, 200,
                       [&] { alloc_ran = true; });
    FAIL() << "guarded_grow must throw when over budget";
  } catch (const util::OutOfBudgetError& e) {
    EXPECT_EQ(e.cause(), ResourceBudget::Trip::kMemory);
    EXPECT_NE(std::string(e.what()).find("sat.arena.grow"),
              std::string::npos);
  }
  EXPECT_FALSE(alloc_ran);
  EXPECT_EQ(budget.tripped(), ResourceBudget::Trip::kMemory);
}

TEST(ResourceBudgetTest, GuardedGrowConvertsBadAlloc) {
  ResourceBudget budget;
  util::BudgetScope scope(&budget);
  try {
    util::guarded_grow(fault::Site::kAigNodeAlloc, 8,
                       [] { throw std::bad_alloc(); });
    FAIL() << "guarded_grow must convert bad_alloc";
  } catch (const util::OutOfBudgetError& e) {
    EXPECT_EQ(e.cause(), ResourceBudget::Trip::kAllocFailure);
  }
  EXPECT_EQ(budget.tripped(), ResourceBudget::Trip::kAllocFailure);
  EXPECT_TRUE(budget.token().cancelled());
}

TEST(ResourceBudgetTest, GuardedGrowConvertsWithoutBudgetToo) {
  // Even an unbudgeted run degrades an OOM at a guarded site into
  // OutOfBudgetError (→ kOutOfBudget result) instead of process death.
  EXPECT_EQ(util::current_budget(), nullptr);
  EXPECT_THROW(util::guarded_grow(fault::Site::kSampleMatrixGrow, 8,
                                  [] { throw std::bad_alloc(); }),
               util::OutOfBudgetError);
}

// ---------------------------------------------------------------------------
// Full synthesize runs under seeded fault schedules: no crash, no hang,
// and the status is a pure function of the schedule.
// ---------------------------------------------------------------------------

struct RunOutcome {
  core::SynthesisStatus status;
  std::uint64_t fires;
};

RunOutcome run_manthan3_with_faults(const std::string& spec) {
  core::Manthan3Options options;
  options.time_limit_seconds = 30.0;
  core::Manthan3 engine(options);
  aig::Aig manager;
  const dqbf::DqbfFormula f = testutil::paper_example();
  // install() resets the poll counters, so the schedule indexes polls from
  // the start of synthesize().
  fault::install(spec);
  const core::SynthesisResult result = engine.synthesize(f, manager);
  return {result.status, fault::total_fires()};
}

TEST_F(FaultTest, ScheduledRunsAreDeterministic) {
  // Six schedules mixing alloc faults, stalls, and probabilistic firing
  // across every engine-side site. Each runs the full pipeline twice; the verdict and the number
  // of injected faults must be a pure function of the schedule.
  const char* schedules[] = {
      "seed=11;sat.arena.grow:alloc:after=1",
      "seed=12;sample_matrix.grow:alloc:after=1",
      "seed=13;aig.node.alloc:alloc:after=2",
      "seed=14;sat.arena.grow:alloc:after=40;"
      "sample_matrix.grow:stall:after=1:ms=1",
      "seed=15;sat.arena.grow:stall:after=2:ms=1",
      "seed=16;sat.arena.grow:alloc:after=5:every=3:limit=2:p=0.6",
  };
  for (const char* spec : schedules) {
    const RunOutcome first = run_manthan3_with_faults(spec);
    const RunOutcome second = run_manthan3_with_faults(spec);
    EXPECT_EQ(first.status, second.status) << spec;
    EXPECT_EQ(first.fires, second.fires) << spec;
    // Whatever the schedule did, the engine must return a verdict, not
    // crash or wedge: every status in the enum is acceptable except an
    // uninitialized garbage value, which EQ-comparison would not catch —
    // so pin the set explicitly.
    EXPECT_TRUE(first.status == core::SynthesisStatus::kRealizable ||
                first.status == core::SynthesisStatus::kUnrealizable ||
                first.status == core::SynthesisStatus::kIncomplete ||
                first.status == core::SynthesisStatus::kLimit ||
                first.status == core::SynthesisStatus::kTimeout ||
                first.status == core::SynthesisStatus::kOutOfBudget)
        << spec;
  }
}

TEST_F(FaultTest, ArenaAllocFaultDegradesToOutOfBudget) {
  // The very first clause-arena growth fails: the run must degrade into
  // kOutOfBudget, not crash on bad_alloc.
  const RunOutcome outcome =
      run_manthan3_with_faults("seed=21;sat.arena.grow:alloc:after=1");
  EXPECT_EQ(outcome.status, core::SynthesisStatus::kOutOfBudget);
  EXPECT_GE(outcome.fires, 1u);
}

TEST_F(FaultTest, ControlScheduleNeverFires) {
  // A schedule whose poll index is never reached must be bit-for-bit a
  // clean run: realizable verdict, zero fires.
  const RunOutcome outcome =
      run_manthan3_with_faults("seed=22;sat.arena.grow:alloc:after=1000000");
  EXPECT_EQ(outcome.status, core::SynthesisStatus::kRealizable);
  EXPECT_EQ(outcome.fires, 0u);
}

// ---------------------------------------------------------------------------
// Service: worker exceptions surface as structured internal errors.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, WorkerExceptionBecomesInternalError) {
  const std::uint64_t exceptions_before =
      counter_value("service_job_exceptions_total");
  fault::install("seed=1;service.job:io:after=1");
  Service service(single_manthan3());
  const dqbf::DqbfFormula f = testutil::paper_example();

  const ServiceResponse failed = service.submit(f).get();
  EXPECT_EQ(failed.status, core::SynthesisStatus::kInternalError);
  EXPECT_NE(failed.error.find("injected"), std::string::npos);
  EXPECT_FALSE(failed.certified);
  EXPECT_FALSE(failed.cancelled);
  EXPECT_EQ(service.stats().internal_errors, 1u);
  EXPECT_EQ(counter_value("service_job_exceptions_total"),
            exceptions_before + 1);

  // The rule is exhausted (limit defaults to 1): the service must stay
  // fully usable, and the error must not have poisoned the cache.
  const ServiceResponse ok = service.submit(f).get();
  EXPECT_EQ(ok.status, core::SynthesisStatus::kRealizable);
  EXPECT_TRUE(ok.certified);
  EXPECT_FALSE(ok.cache_hit);
  const ServiceResponse warm = service.submit(f).get();
  EXPECT_TRUE(warm.cache_hit);
}

// ---------------------------------------------------------------------------
// Service: per-request budgets end runs as kOutOfBudget.
// ---------------------------------------------------------------------------

TEST(ServiceBudget, MemoryBudgetTripsAndIsNotCached) {
  const std::uint64_t trips_before =
      counter_value("budget_trips_total_memory");
  Service service(single_manthan3());
  const dqbf::DqbfFormula f = testutil::slow_planted();

  SolveOptions tiny;
  tiny.budget = ResourceBudget::Limits{};
  tiny.budget->memory_bytes = 4096;  // trips at the first arena growth
  const ServiceResponse tripped = service.submit(f, tiny).get();
  EXPECT_EQ(tripped.status, core::SynthesisStatus::kOutOfBudget);
  EXPECT_EQ(tripped.budget_trip, ResourceBudget::Trip::kMemory);
  EXPECT_FALSE(tripped.cancelled);  // a final answer, not an interrupt
  EXPECT_FALSE(tripped.certified);
  EXPECT_EQ(service.stats().budget_trips, 1u);
  EXPECT_EQ(counter_value("budget_trips_total_memory"), trips_before + 1);

  // kOutOfBudget must not enter the tier-1 cache: a later unbudgeted
  // submission of the same spec gets a real run, not the truncated one.
  EXPECT_EQ(service.stats().cache_entries, 0u);
}

TEST(ServiceBudget, ConflictBudgetTrips) {
  Service service(single_manthan3());
  SolveOptions options;
  options.budget = ResourceBudget::Limits{};
  options.budget->conflicts = 1;
  const ServiceResponse response =
      service.submit(testutil::slow_planted(), options).get();
  EXPECT_EQ(response.status, core::SynthesisStatus::kOutOfBudget);
  EXPECT_EQ(response.budget_trip, ResourceBudget::Trip::kConflicts);
}

TEST(ServiceBudget, WallClockWatchdogTrips) {
  ServiceOptions service_options = single_manthan3();
  service_options.watchdog_poll_ms = 5;
  Service service(service_options);
  SolveOptions options;
  options.budget = ResourceBudget::Limits{};
  options.budget->wall_seconds = 0.2;
  const ServiceResponse response =
      service.submit(testutil::slow_planted(), options).get();
  EXPECT_EQ(response.status, core::SynthesisStatus::kOutOfBudget);
  EXPECT_EQ(response.budget_trip, ResourceBudget::Trip::kTime);
  // The watchdog must interrupt a multi-second solve well before it
  // finishes.
  EXPECT_LT(response.solve_seconds, 8.0);
}

TEST(ServiceBudget, GenerousDefaultBudgetDoesNotPerturbResults) {
  // A budget far above the instance's real footprint must be invisible:
  // same verdict and same deterministic counters as an unbudgeted run.
  Service plain(single_manthan3());
  ServiceOptions budgeted_options = single_manthan3();
  budgeted_options.default_budget.memory_bytes = 1ull << 32;
  budgeted_options.default_budget.conflicts = 1ull << 40;
  Service budgeted(budgeted_options);

  const dqbf::DqbfFormula f = testutil::paper_example();
  const ServiceResponse a = plain.submit(f).get();
  const ServiceResponse b = budgeted.submit(f).get();
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.certified, b.certified);
  testutil::expect_same_counts(a.stats, b.stats);
}

// ---------------------------------------------------------------------------
// Crash-durable tier-1 cache.
// ---------------------------------------------------------------------------

class PersistedCache : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("manthan3_cache_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::clear();
    fs::remove_all(dir_);
  }

  ServiceOptions cached_options() {
    ServiceOptions options = single_manthan3();
    options.cache_dir = dir_.string();
    return options;
  }

  std::size_t cache_file_count() const {
    std::size_t count = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().extension() == ".m3c") ++count;
    }
    return count;
  }

  fs::path dir_;
};

TEST_F(PersistedCache, WarmHitAcrossServiceInstances) {
  const dqbf::DqbfFormula f = testutil::paper_example();
  ServiceResponse cold;
  {
    Service service(cached_options());
    cold = service.submit(f).get();
    ASSERT_TRUE(cold.solved());
    EXPECT_EQ(service.stats().persisted_entries, 1u);
  }
  ASSERT_EQ(cache_file_count(), 1u);

  // A fresh service over the same directory — the "restarted daemon" —
  // must answer the repeat from the reloaded cache, field for field.
  Service reborn(cached_options());
  EXPECT_EQ(reborn.stats().cache_entries, 1u);
  EXPECT_EQ(reborn.stats().persisted_entries, 1u);
  EXPECT_EQ(reborn.stats().persisted_corrupt, 0u);

  const ServiceResponse warm = reborn.submit(f).get();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.certified, cold.certified);
  EXPECT_EQ(warm.engine, cold.engine);
  EXPECT_EQ(warm.fingerprint.hi, cold.fingerprint.hi);
  EXPECT_EQ(warm.fingerprint.lo, cold.fingerprint.lo);
  for (const core::StatField& f : core::kStatFields) {
    EXPECT_EQ(core::stat_text(warm.stats, f), core::stat_text(cold.stats, f))
        << f.name;
  }
  ASSERT_NE(warm.functions, nullptr);
  EXPECT_EQ(warm.functions->roots().size(), cold.functions->roots().size());

  // The reloaded certificate must still import and certify.
  aig::Aig manager;
  const engine::ServiceResult result = reborn.solve(f, manager);
  ASSERT_TRUE(result.solved());
  EXPECT_EQ(dqbf::check_certificate(f, manager, result.vector).status,
            dqbf::CertificateStatus::kValid);
}

TEST_F(PersistedCache, EveryStatRowRoundTrips) {
  // A cache file for the paper example, byte for byte as the encoder that
  // predates core::kStatFields wrote it (three typed field tables, so a
  // different row order). It must load with every stat value as written;
  // rewritten with a distinct value per row, it must load each value into
  // its own field, and a row without a line as 0.
  const std::string golden =
      "manthan3-cache 1\nfp 0d5eb6aadcaf60a03d65ec92e3de96c7\nmode 0\n"
      "status realizable\nengine Manthan3\ncertified 1\nraced 0\n"
      "solve_seconds 0.0018900849999999999\nstat samples 12\n"
      "stat unique_defined 1\nstat learned_candidates 2\n"
      "stat counterexamples 0\nstat repairs 0\nstat repair_checks 0\n"
      "stat maxsat_calls 0\nstat cones_encoded 3\nstat cones_reused 0\n"
      "stat aig_nodes_encoded 8\nstat activations_retired 0\n"
      "stat verify_vars 21\nstat verify_clauses_retired 0\nstat phi_vars 6\n"
      "stat phi_clauses_retired 0\nstat samples_appended 0\n"
      "stat refit_rounds 0\nstat refit_candidates 0\n"
      "stat gk_streamed_samples 0\nstat analysis_unique_hits 0\n"
      "stat analysis_dependency_hits 0\nstat arbiter_points 0\n"
      "stat arbiter_patches 0\nstat repeated_repairs 0\n"
      "stat peak_rss_bytes 3739648\nstat sample_matrix_bytes 384\n"
      "stat verify_arena_bytes 528\nstat phi_arena_bytes 92\nstat aig_nodes 9\n"
      "stat aig_bytes 768\nstat sampling_seconds 0.000150412\n"
      "stat learning_seconds 2.0089e-05\n"
      "stat verify_seconds 3.4004999999999997e-05\nstat repair_seconds 0\n"
      "stat total_seconds 0.001279269\nroots 3\ninputs 1 2\nend-header\n"
      "aag 4 2 0 3 2\n2\n4\n1\n1\n9\n6 3 4\n8 3 7\n";
  const dqbf::DqbfFormula f = testutil::paper_example();
  const auto load = [&](const std::string& text) {
    {
      std::ofstream out(dir_ / "0d5eb6aadcaf60a03d65ec92e3de96c7-0.m3c",
                        std::ios::binary | std::ios::trunc);
      out << text;
    }
    Service reborn(cached_options());
    EXPECT_EQ(reborn.stats().persisted_corrupt, 0u);
    const ServiceResponse warm = reborn.submit(f).get();
    EXPECT_TRUE(warm.cache_hit);
    return warm;
  };

  const ServiceResponse warm = load(golden);
  core::SynthesisStats distinct;
  std::string stat_lines;
  for (std::size_t i = 0; i < std::size(core::kStatFields); ++i) {
    const core::StatField& row = core::kStatFields[i];
    EXPECT_NE(golden.find("\nstat " + std::string(row.name) + " " +
                          core::stat_text(warm.stats, row) + "\n"),
              std::string::npos)
        << row.name;
    // A writer that predates a row leaves its line out; it loads as 0.
    if (row.integer == &core::SynthesisStats::repeated_repairs) continue;
    if (row.seconds != nullptr) {
      distinct.*row.seconds = 1.0 / static_cast<double>(i + 3);
    } else {
      distinct.*row.integer = 1000 + i;
    }
    stat_lines += "stat " + std::string(row.name) + " " +
                  core::stat_text(distinct, row) + "\n";
  }

  const std::size_t first = golden.find("\nstat ") + 1;
  const std::size_t roots = golden.find("\nroots ") + 1;
  const ServiceResponse rewritten = load(golden.substr(0, first) + stat_lines +
                                         golden.substr(roots));
  for (const core::StatField& row : core::kStatFields) {
    EXPECT_TRUE(row.seconds != nullptr
                    ? rewritten.stats.*row.seconds == distinct.*row.seconds
                    : rewritten.stats.*row.integer == distinct.*row.integer)
        << row.name;
  }
}

TEST_F(PersistedCache, RetiredStatKeysStillLoad) {
  // Files from older writers carry stat lines for counters that no longer
  // exist; they must be skipped, not make the whole entry corrupt.
  const dqbf::DqbfFormula f = testutil::paper_example();
  ServiceResponse cold;
  {
    Service service(cached_options());
    cold = service.submit(f).get();
    ASSERT_TRUE(cold.solved());
  }
  ASSERT_EQ(cache_file_count(), 1u);
  fs::path file;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".m3c") file = entry.path();
  }
  std::string contents = read_file(file);
  const std::size_t roots = contents.find("\nroots ");
  ASSERT_NE(roots, std::string::npos);
  contents.insert(roots + 1,
                  "stat inprocess_runs 2\n"
                  "stat eliminated_vars 3\n"
                  "stat subsumed_clauses 4\n"
                  "stat vivified_literals 5\n"
                  "stat remapped_vars 6\n"
                  "stat restarts 1\n"
                  "stat learn_workers 4\n"
                  "stat adaptive_refits 3\n"
                  "stat analysis_unique_hits 7\n"
                  "stat analysis_dependency_hits 1\n");
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  Service reborn(cached_options());
  EXPECT_EQ(reborn.stats().persisted_entries, 1u);
  EXPECT_EQ(reborn.stats().persisted_corrupt, 0u);
  const ServiceResponse warm = reborn.submit(f).get();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.certified, cold.certified);
  EXPECT_EQ(warm.stats.counterexamples, cold.stats.counterexamples);
  EXPECT_EQ(warm.stats.inprocess_runs, 0u);
  ASSERT_NE(warm.functions, nullptr);
  ASSERT_NE(cold.functions, nullptr);

  // Same certificate: both cones strash to the same Refs in one manager,
  // and the reloaded one still certifies.
  aig::Aig manager;
  const dqbf::HenkinVector cold_vector = cold.functions->import_into(manager);
  const dqbf::HenkinVector warm_vector = warm.functions->import_into(manager);
  EXPECT_EQ(warm_vector.functions, cold_vector.functions);
  EXPECT_EQ(dqbf::check_certificate(f, manager, warm_vector).status,
            dqbf::CertificateStatus::kValid);
}

TEST_F(PersistedCache, UnrealizableVerdictPersists) {
  const dqbf::DqbfFormula f = unrealizable_formula();
  {
    Service service(cached_options());
    const ServiceResponse cold = service.submit(f).get();
    ASSERT_EQ(cold.status, core::SynthesisStatus::kUnrealizable);
  }
  Service reborn(cached_options());
  const ServiceResponse warm = reborn.submit(f).get();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.status, core::SynthesisStatus::kUnrealizable);
  EXPECT_EQ(warm.functions, nullptr);
}

TEST_F(PersistedCache, CorruptFilesAreSkippedNotFatal) {
  const dqbf::DqbfFormula f = testutil::paper_example();
  {
    Service service(cached_options());
    ASSERT_TRUE(service.submit(f).get().solved());
  }
  ASSERT_EQ(cache_file_count(), 1u);
  fs::path valid;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".m3c") valid = entry.path();
  }

  // Three corruptions: pure garbage, a truncated copy of a real entry,
  // and a real entry under the wrong fingerprint-derived name.
  {
    std::ofstream garbage(dir_ / "zz-garbage.m3c");
    garbage << "not a cache entry\n";
  }
  const std::string contents = read_file(valid);
  {
    std::ofstream truncated(dir_ / "zz-truncated.m3c");
    truncated << contents.substr(0, contents.size() / 3);
  }
  {
    std::ofstream misnamed(
        dir_ / "00000000000000000000000000000000-0.m3c");
    misnamed << contents;
  }

  Service reborn(cached_options());
  EXPECT_EQ(reborn.stats().cache_entries, 1u);
  EXPECT_EQ(reborn.stats().persisted_entries, 1u);
  EXPECT_EQ(reborn.stats().persisted_corrupt, 3u);
  const ServiceResponse warm = reborn.submit(f).get();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.solved());
}

TEST_F(PersistedCache, EvictionDeletesTheFile) {
  ServiceOptions options = cached_options();
  options.result_cache_capacity = 1;
  Service service(options);
  ASSERT_TRUE(service.submit(testutil::paper_example()).get().solved());
  EXPECT_EQ(cache_file_count(), 1u);
  // A second definitive result evicts the first from the LRU — and its
  // cache file must go with it, or restarts would resurrect the evicted
  // entry past the capacity bound.
  const ServiceResponse second =
      service.submit(testutil::identity_spec()).get();
  ASSERT_TRUE(second.solved());
  EXPECT_EQ(cache_file_count(), 1u);
  EXPECT_EQ(service.stats().persisted_entries, 1u);
  EXPECT_EQ(service.stats().cache_evictions, 1u);
}

// ---------------------------------------------------------------------------
// Daemon: retry with backoff, quarantine, journal recovery.
// ---------------------------------------------------------------------------

class DaemonChaos : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("manthan3d_chaos_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::clear();
    fs::remove_all(dir_);
  }

  void write_request(const std::string& name, const dqbf::DqbfFormula& f) {
    std::ofstream out(dir_ / name);
    out << dqbf::to_dqdimacs_string(f);
  }

  void write_journal(const std::string& request_name,
                     std::uint64_t attempts) {
    fs::create_directories(dir_ / "journal");
    std::ofstream out(dir_ / "journal" / (request_name + ".journal"));
    out << "attempts " << attempts << "\n";
    out << "next_retry_ms 0\n";
  }

  DaemonOptions immediate_retry() {
    DaemonOptions options;
    options.queue_dir = dir_.string();
    options.retry_base_ms = 0.0;  // retries are eligible immediately
    return options;
  }

  fs::path dir_;
};

TEST_F(DaemonChaos, InjectedOomQuarantinesOnlyThatRequest) {
  // Three distinct requests; the alloc fault fires on the second
  // executed service job only (after=2, no `every`). With max_attempts=1
  // that request is quarantined on the spot — and the rest of the drain
  // must complete untouched.
  const std::uint64_t quarantined_before =
      counter_value("service_requests_quarantined_total");
  write_request("a.dqdimacs", testutil::paper_example());
  write_request("b.dqdimacs", testutil::identity_spec());
  dqbf::DqbfFormula skolem;
  skolem.add_universal(0);
  skolem.add_existential(1, {0});
  skolem.matrix().add_clause({cnf::pos(1), cnf::pos(0)});
  skolem.matrix().add_clause({cnf::neg(1), cnf::neg(0)});
  write_request("c.dqdimacs", skolem);

  fault::install("seed=1;service.job:alloc:after=2");
  Service service(single_manthan3());
  DaemonOptions options = immediate_retry();
  options.max_attempts = 1;
  const DrainReport report = drain_queue(service, options);

  EXPECT_EQ(report.processed, 2u);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.retried, 0u);
  EXPECT_FALSE(report.stopped);
  EXPECT_TRUE(fs::exists(dir_ / "a.result.json"));
  EXPECT_FALSE(fs::exists(dir_ / "b.result.json"));
  EXPECT_TRUE(fs::exists(dir_ / "c.result.json"));
  EXPECT_TRUE(fs::exists(dir_ / "failed" / "b.dqdimacs"));
  EXPECT_TRUE(fs::exists(dir_ / "failed" / "b.dqdimacs.error.json"));
  EXPECT_FALSE(fs::exists(dir_ / "journal" / "b.dqdimacs.journal"));
  EXPECT_EQ(counter_value("service_requests_quarantined_total"),
            quarantined_before + 1);

  ASSERT_EQ(report.records.size(), 3u);
  const engine::RequestRecord& b = report.records[1];
  EXPECT_TRUE(b.quarantined);
  EXPECT_TRUE(b.internal_error);
  EXPECT_EQ(b.attempts, 1u);

  // The quarantined file names the cause.
  const std::string error_json =
      read_file(dir_ / "failed" / "b.dqdimacs.error.json");
  EXPECT_NE(error_json.find("quarantined"), std::string::npos);
}

TEST_F(DaemonChaos, TransientFailureRetriesThenSucceeds) {
  const std::uint64_t retried_before =
      counter_value("service_requests_retried_total");
  write_request("a.dqdimacs", testutil::paper_example());
  fault::install("seed=2;service.job:io:after=1");
  Service service(single_manthan3());
  const DaemonOptions options = immediate_retry();

  const DrainReport first = drain_queue(service, options);
  EXPECT_EQ(first.processed, 0u);
  EXPECT_EQ(first.retried, 1u);
  ASSERT_EQ(first.records.size(), 1u);
  EXPECT_TRUE(first.records[0].retried);
  EXPECT_TRUE(first.records[0].internal_error);
  EXPECT_EQ(first.records[0].attempts, 1u);
  EXPECT_FALSE(fs::exists(dir_ / "a.result.json"));
  EXPECT_TRUE(fs::exists(dir_ / "journal" / "a.dqdimacs.journal"));
  EXPECT_EQ(counter_value("service_requests_retried_total"),
            retried_before + 1);

  // The fault rule is exhausted; the journaled retry must run and win.
  const DrainReport second = drain_queue(service, options);
  EXPECT_EQ(second.processed, 1u);
  EXPECT_EQ(second.solved, 1u);
  ASSERT_EQ(second.records.size(), 1u);
  EXPECT_EQ(second.records[0].attempts, 2u);
  EXPECT_TRUE(fs::exists(dir_ / "a.result.json"));
  EXPECT_FALSE(fs::exists(dir_ / "journal" / "a.dqdimacs.journal"));
}

TEST_F(DaemonChaos, BackoffDefersRetryUntilDue) {
  write_request("a.dqdimacs", testutil::paper_example());
  fault::install("seed=3;service.job:io:after=1");
  Service service(single_manthan3());
  DaemonOptions options = immediate_retry();
  options.retry_base_ms = 1e7;  // hours: the retry can never be due here

  const DrainReport first = drain_queue(service, options);
  EXPECT_EQ(first.retried, 1u);

  const DrainReport second = drain_queue(service, options);
  EXPECT_EQ(second.processed, 0u);
  EXPECT_EQ(second.deferred, 1u);
  EXPECT_FALSE(second.stopped);  // a deferral must not wedge the drain
  ASSERT_EQ(second.records.size(), 1u);
  EXPECT_TRUE(second.records[0].deferred);
  EXPECT_TRUE(fs::exists(dir_ / "journal" / "a.dqdimacs.journal"));
  EXPECT_FALSE(fs::exists(dir_ / "a.result.json"));
}

TEST_F(DaemonChaos, ResultWriteFaultRollsBackAndRetries) {
  write_request("a.dqdimacs", testutil::paper_example());
  fault::install("seed=4;daemon.write:io:after=1");
  Service service(single_manthan3());
  const DaemonOptions options = immediate_retry();

  // The engine solved the request, but the result never became durable:
  // the drain must not count it as processed, and the journal must
  // schedule a re-run.
  const DrainReport first = drain_queue(service, options);
  EXPECT_EQ(first.processed, 0u);
  EXPECT_EQ(first.solved, 0u);
  EXPECT_EQ(first.retried, 1u);
  EXPECT_FALSE(fs::exists(dir_ / "a.result.json"));

  const DrainReport second = drain_queue(service, options);
  EXPECT_EQ(second.processed, 1u);
  EXPECT_EQ(second.solved, 1u);
  EXPECT_TRUE(second.records[0].cache_hit);  // re-run hits the tier-1
  EXPECT_TRUE(fs::exists(dir_ / "a.result.json"));
}

TEST_F(DaemonChaos, RequestReadFaultIsTransientNotMalformed) {
  write_request("a.dqdimacs", testutil::paper_example());
  fault::install("seed=5;daemon.read:io:after=1");
  Service service(single_manthan3());
  const DaemonOptions options = immediate_retry();

  const DrainReport first = drain_queue(service, options);
  EXPECT_EQ(first.failed, 0u);  // an I/O error is not a poisoned request
  EXPECT_EQ(first.retried, 1u);
  ASSERT_EQ(first.records.size(), 1u);
  EXPECT_FALSE(first.records[0].malformed);

  const DrainReport second = drain_queue(service, options);
  EXPECT_EQ(second.processed, 1u);
  EXPECT_EQ(second.solved, 1u);
}

TEST_F(DaemonChaos, ExhaustedJournalQuarantinesWithoutExecution) {
  // A journal left behind by three crashed executions (attempts ==
  // max_attempts): the next drain must quarantine without burning a
  // fourth execution on a request that kills the process.
  write_request("a.dqdimacs", testutil::paper_example());
  write_journal("a.dqdimacs", 3);
  Service service(single_manthan3());
  DaemonOptions options = immediate_retry();
  options.max_attempts = 3;

  const DrainReport report = drain_queue(service, options);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.processed, 0u);
  EXPECT_EQ(service.stats().requests, 0u);  // never reached the service
  EXPECT_TRUE(fs::exists(dir_ / "failed" / "a.dqdimacs"));
  EXPECT_FALSE(fs::exists(dir_ / "journal" / "a.dqdimacs.journal"));
}

TEST_F(DaemonChaos, RestartRerunsJournaledRequestOnceFromWarmCache) {
  // The full kill-and-restart story: daemon 1 answers the spec (and
  // persists the tier-1 entry), then "dies" mid-way through a duplicate
  // request — simulated by the intent journal it wrote before executing,
  // with no result file. The restarted daemon must re-run that request
  // exactly once and answer it from the persisted cache.
  const fs::path cache_dir = dir_ / "cache";
  ServiceOptions service_options = single_manthan3();
  service_options.cache_dir = cache_dir.string();

  write_request("a.dqdimacs", testutil::paper_example());
  {
    Service daemon1(service_options);
    const DrainReport warmup = drain_queue(daemon1, immediate_retry());
    ASSERT_EQ(warmup.solved, 1u);
    ASSERT_EQ(daemon1.stats().persisted_entries, 1u);
  }

  write_request("b.dqdimacs", testutil::paper_example());
  write_journal("b.dqdimacs", 1);  // intent written, execution never
                                   // finished, process gone

  Service daemon2(service_options);
  EXPECT_EQ(daemon2.stats().cache_entries, 1u);  // reloaded from disk
  const DrainReport report = drain_queue(daemon2, immediate_retry());
  EXPECT_EQ(report.processed, 1u);  // a.dqdimacs already has its result
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.cache_hits, 1u);
  ASSERT_EQ(report.records.size(), 1u);  // skipped requests get no record
  const engine::RequestRecord& b = report.records[0];
  EXPECT_TRUE(b.cache_hit);
  EXPECT_EQ(b.attempts, 2u);  // the journaled attempt plus this one
  EXPECT_TRUE(fs::exists(dir_ / "b.result.json"));
  EXPECT_FALSE(fs::exists(dir_ / "journal" / "b.dqdimacs.journal"));

  // Exactly once: a third drain has nothing left to do.
  const DrainReport done = drain_queue(daemon2, immediate_retry());
  EXPECT_EQ(done.processed, 0u);
  EXPECT_EQ(done.skipped, 2u);
}

}  // namespace
}  // namespace manthan
