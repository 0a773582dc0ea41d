// The synthesis service: any-of cancellation composition, the tier-1
// result cache (duplicate and isomorphic requests answered without
// solving, warm results field-for-field identical to cold ones), in-flight
// coalescing, admission modes, per-request trace ids on engine spans,
// shutdown semantics, the service-routed portfolio runner, and the
// directory-queue daemon front end.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "test_util.hpp"
#include "dqbf/dqdimacs.hpp"
#include "dqbf/fingerprint.hpp"
#include "engine/daemon.hpp"
#include "engine/service.hpp"
#include "obs/trace.hpp"
#include "portfolio/runner.hpp"
#include "util/cancel.hpp"
#include "workloads/workloads.hpp"

namespace manthan::engine {
namespace {

namespace fs = std::filesystem;

ServiceOptions single_engine_service(std::size_t workers = 1) {
  ServiceOptions options;
  options.workers = workers;
  options.admission = ServiceOptions::Admission::kSingle;
  options.single_engine = EngineKind::kManthan3;
  return options;
}

// --- any-of cancellation composition ---------------------------------------

TEST(AnyOfCancelToken, OwnFlag) {
  util::AnyOfCancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(AnyOfCancelToken, EitherParentFires) {
  util::CancelToken a;
  util::CancelToken b;
  util::AnyOfCancelToken token(&a, &b);
  EXPECT_FALSE(token.cancelled());
  a.cancel();
  EXPECT_TRUE(token.cancelled());
  a.reset();
  b.cancel();
  EXPECT_TRUE(token.cancelled());
}

TEST(AnyOfCancelToken, ChildCancelDoesNotPropagateUp) {
  // The race winner's stop must not cancel the enclosing service.
  util::CancelToken parent;
  util::AnyOfCancelToken token(&parent);
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(parent.cancelled());
}

TEST(AnyOfCancelToken, NullParentsAreIgnored) {
  util::AnyOfCancelToken token(nullptr, nullptr);
  EXPECT_FALSE(token.cancelled());
  util::CancelToken parent;
  util::AnyOfCancelToken one_sided(nullptr, &parent);
  parent.cancel();
  EXPECT_TRUE(one_sided.cancelled());
}

TEST(AnyOfCancelToken, ComposesThroughBasePointer) {
  // Deadline and the solvers poll through const CancelToken*; the
  // virtual dispatch must reach the composed check.
  util::CancelToken parent;
  util::AnyOfCancelToken child(&parent);
  const util::CancelToken* base = &child;
  EXPECT_FALSE(base->cancelled());
  parent.cancel();
  EXPECT_TRUE(base->cancelled());
}

// --- tier-1 result cache ----------------------------------------------------

TEST(Service, DuplicateRequestHitsCache) {
  Service service(single_engine_service());
  const dqbf::DqbfFormula f = testutil::paper_example();
  aig::Aig manager;
  const ServiceResult cold = service.solve(f, manager);
  ASSERT_TRUE(cold.solved());
  EXPECT_FALSE(cold.response.cache_hit);

  const ServiceResult warm = service.solve(f, manager);
  ASSERT_TRUE(warm.solved());
  EXPECT_TRUE(warm.response.cache_hit);
  EXPECT_EQ(warm.response.fingerprint, cold.response.fingerprint);
  EXPECT_EQ(warm.response.engine, cold.response.engine);
  EXPECT_EQ(warm.response.status, cold.response.status);
  testutil::expect_same_counts(warm.response.stats, cold.response.stats);
  // Same strashed manager: the imported cones are literally the same
  // nodes, so a warm result is indistinguishable from re-solving.
  EXPECT_EQ(warm.vector.functions, cold.vector.functions);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.tier1_hits, 1u);
  EXPECT_EQ(stats.tier1_misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(Service, IsomorphicRequestHitsCache) {
  // Same spec under renamed variables and shuffled clauses: the
  // canonical fingerprint routes it to the cached result.
  Service service(single_engine_service());
  aig::Aig manager;
  const dqbf::DqbfFormula f = testutil::paper_example();
  ASSERT_TRUE(service.solve(f, manager).solved());

  dqbf::DqbfFormula renamed;
  renamed.matrix().ensure_vars(f.matrix().num_vars());
  // Rotate variable names: v -> (v + 2) mod 6 maps roles consistently
  // only if rotation keeps role sets; instead swap within roles:
  // universals 0<->2, existentials 3<->5.
  const auto perm = [](cnf::Var v) -> cnf::Var {
    if (v == 0) return 2;
    if (v == 2) return 0;
    if (v == 3) return 5;
    if (v == 5) return 3;
    return v;
  };
  for (const cnf::Var u : f.universals()) renamed.add_universal(perm(u));
  for (const auto& e : f.existentials()) {
    std::vector<cnf::Var> deps;
    for (const cnf::Var d : e.deps) deps.push_back(perm(d));
    renamed.add_existential(perm(e.var), std::move(deps));
  }
  const auto& clauses = f.matrix().clauses();
  for (std::size_t i = clauses.size(); i-- > 0;) {
    cnf::Clause mapped;
    for (const cnf::Lit l : clauses[i]) {
      mapped.emplace_back(perm(l.var()), l.negated());
    }
    renamed.matrix().add_clause(mapped);
  }

  const ServiceResult warm = service.solve(renamed, manager);
  EXPECT_TRUE(warm.response.cache_hit);
  EXPECT_TRUE(warm.solved());
}

TEST(Service, WarmMatchesColdAcrossServices) {
  // The determinism guard: a fresh service (no caches) run on the same
  // spec reproduces the cached run's counters field-for-field, because
  // per-request seeds derive from the fingerprint. The fixture makes
  // Manthan3 do real work (sampling, counterexamples, refits) yet solve
  // fast; small_planted would hit the engine's incompleteness, which is
  // a non-definitive verdict and deliberately not cached.
  workloads::PlantedParams params{10, 5, 3, 5, 60, 2};
  params.xor_functions = false;
  params.nested_deps = true;
  params.dep_size_max = 8;
  const dqbf::DqbfFormula f = workloads::gen_planted(params);
  aig::Aig manager_a;
  Service cached_service(single_engine_service());
  const ServiceResult first = cached_service.solve(f, manager_a);
  ASSERT_TRUE(first.solved());
  EXPECT_GT(first.response.stats.counterexamples, 0u);  // non-trivial run
  const ServiceResult warm = cached_service.solve(f, manager_a);
  ASSERT_TRUE(warm.response.cache_hit);

  ServiceOptions cacheless = single_engine_service();
  cacheless.result_cache = false;
  Service cold_service(cacheless);
  aig::Aig manager_b;
  const ServiceResult cold = cold_service.solve(f, manager_b);
  EXPECT_FALSE(cold.response.cache_hit);

  EXPECT_EQ(warm.response.status, cold.response.status);
  EXPECT_EQ(warm.response.certified, cold.response.certified);
  EXPECT_EQ(warm.response.engine, cold.response.engine);
  testutil::expect_same_counts(first.response.stats, cold.response.stats);
  testutil::expect_same_counts(warm.response.stats, cold.response.stats);
  EXPECT_EQ(warm.vector.functions.size(), cold.vector.functions.size());
}

TEST(Service, UnrealizableVerdictsAreCached) {
  workloads::UnrealizableParams params;
  params.extension_detectable = true;
  const dqbf::DqbfFormula f = workloads::gen_unrealizable(params);
  Service service(single_engine_service());
  aig::Aig manager;
  const ServiceResult cold = service.solve(f, manager);
  EXPECT_EQ(cold.response.status, core::SynthesisStatus::kUnrealizable);
  const ServiceResult warm = service.solve(f, manager);
  EXPECT_EQ(warm.response.status, core::SynthesisStatus::kUnrealizable);
  EXPECT_TRUE(warm.response.cache_hit);
  EXPECT_EQ(warm.response.functions, nullptr);
}

TEST(Service, ForcedEnginesCacheSeparately) {
  Service service(single_engine_service(2));
  const dqbf::DqbfFormula f = testutil::paper_example();
  aig::Aig manager;
  SolveOptions hqs;
  hqs.engine = EngineKind::kHqsLite;
  SolveOptions m3;
  m3.engine = EngineKind::kManthan3;

  EXPECT_FALSE(service.solve(f, manager, hqs).response.cache_hit);
  EXPECT_FALSE(service.solve(f, manager, m3).response.cache_hit);
  const ServiceResult warm_hqs = service.solve(f, manager, hqs);
  EXPECT_TRUE(warm_hqs.response.cache_hit);
  EXPECT_EQ(warm_hqs.response.engine, EngineKind::kHqsLite);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.tier1_misses, 2u);
  EXPECT_EQ(stats.tier1_hits, 1u);
  EXPECT_EQ(stats.cache_entries, 2u);
}

TEST(Service, CapacityBoundEvictsLru) {
  ServiceOptions options = single_engine_service();
  options.result_cache_capacity = 2;
  Service service(options);
  aig::Aig manager;
  const dqbf::DqbfFormula a = testutil::tiny_planted(1);
  const dqbf::DqbfFormula b = testutil::tiny_planted(2);
  const dqbf::DqbfFormula c = testutil::tiny_planted(3);
  service.solve(a, manager);
  service.solve(b, manager);
  service.solve(c, manager);  // evicts a (least recently used)
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_entries, 2u);
  EXPECT_EQ(stats.cache_evictions, 1u);
  EXPECT_FALSE(service.solve(a, manager).response.cache_hit);  // re-solved
  EXPECT_TRUE(service.solve(c, manager).response.cache_hit);
}

// --- cancellation and shutdown ----------------------------------------------

TEST(Service, PreCancelledRequestIsNotCached) {
  Service service(single_engine_service());
  util::CancelToken token;
  token.cancel();
  SolveOptions options;
  options.cancel = &token;
  aig::Aig manager;
  const ServiceResult cancelled =
      service.solve(testutil::paper_example(), manager, options);
  EXPECT_EQ(cancelled.response.status, core::SynthesisStatus::kTimeout);
  EXPECT_TRUE(cancelled.response.cancelled);
  EXPECT_EQ(service.stats().cache_entries, 0u);
  // The spec is still solvable afresh — the truncated run left nothing.
  const ServiceResult solved =
      service.solve(testutil::paper_example(), manager);
  EXPECT_FALSE(solved.response.cache_hit);
  EXPECT_TRUE(solved.solved());
}

TEST(Service, ShutdownStopsInFlightRequest) {
  Service service(single_engine_service());
  const std::shared_future<ServiceResponse> future =
      service.submit(testutil::slow_planted());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  service.shutdown();
  const ServiceResponse response = future.get();  // must not hang
  EXPECT_EQ(response.status, core::SynthesisStatus::kTimeout);
  EXPECT_TRUE(response.cancelled);
  EXPECT_EQ(service.stats().cache_entries, 0u);
  EXPECT_TRUE(service.shutting_down());
  // Requests after shutdown still get answered (fast, cancelled).
  const ServiceResponse late =
      service.submit(testutil::paper_example()).get();
  EXPECT_TRUE(late.cancelled);
}

TEST(Service, DestructorDrainsQueuedRequests) {
  // Queue more work than workers, then destroy the service immediately:
  // every future must still resolve (the pool drains; queued jobs see
  // the shutdown token at their first poll).
  std::vector<std::shared_future<ServiceResponse>> futures;
  {
    Service service(single_engine_service());
    for (int i = 0; i < 4; ++i) {
      futures.push_back(service.submit(testutil::slow_planted()));
    }
    service.shutdown();
  }
  for (auto& future : futures) {
    const ServiceResponse response = future.get();
    EXPECT_TRUE(response.cancelled);
  }
}

TEST(Service, ConcurrentDuplicatesCoalesce) {
  ServiceOptions options = single_engine_service();
  options.default_time_limit_seconds = 0.5;
  Service service(options);
  const dqbf::DqbfFormula f = testutil::slow_planted();
  const auto first = service.submit(f);
  const auto second = service.submit(f);
  const ServiceStats mid = service.stats();
  EXPECT_EQ(mid.coalesced, 1u);
  const ServiceResponse r1 = first.get();
  const ServiceResponse r2 = second.get();
  EXPECT_TRUE(r1.coalesced);
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
  EXPECT_EQ(r1.status, r2.status);
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(Service, RequestsWithTokensDoNotCoalesce) {
  ServiceOptions options = single_engine_service();
  options.default_time_limit_seconds = 0.5;
  Service service(options);
  const dqbf::DqbfFormula f = testutil::slow_planted();
  util::CancelToken token_a;
  util::CancelToken token_b;
  SolveOptions sa;
  sa.cancel = &token_a;
  SolveOptions sb;
  sb.cancel = &token_b;
  const auto first = service.submit(f, sa);
  const auto second = service.submit(f, sb);
  token_b.cancel();  // must only stop the second request
  const ServiceResponse r2 = second.get();
  EXPECT_TRUE(r2.cancelled);
  const ServiceResponse r1 = first.get();
  EXPECT_FALSE(r1.coalesced);
  EXPECT_EQ(service.stats().coalesced, 0u);
  EXPECT_EQ(service.stats().completed, 2u);
}

// --- admission --------------------------------------------------------------

TEST(Service, AutoAdmissionRacesWhenIdle) {
  ServiceOptions options;
  options.workers = 2;
  options.admission = ServiceOptions::Admission::kAuto;
  Service service(options);
  aig::Aig manager;
  const ServiceResult result =
      service.solve(testutil::paper_example(), manager);
  ASSERT_TRUE(result.solved());
  EXPECT_TRUE(result.response.raced);
  EXPECT_EQ(service.stats().races, 1u);
}

TEST(Service, ForcedEngineRunsSingle) {
  ServiceOptions options;
  options.workers = 2;
  options.admission = ServiceOptions::Admission::kRace;
  Service service(options);
  SolveOptions solve_options;
  solve_options.engine = EngineKind::kHqsLite;
  aig::Aig manager;
  const ServiceResult result =
      service.solve(testutil::paper_example(), manager, solve_options);
  ASSERT_TRUE(result.solved());
  EXPECT_FALSE(result.response.raced);
  EXPECT_EQ(result.response.engine, EngineKind::kHqsLite);
  EXPECT_EQ(service.stats().single_runs, 1u);
}

// --- trace ids ----------------------------------------------------------------

/// (name, trace id) of every buffered trace event, read back from the
/// Chrome trace JSON (one event per line); untagged events carry id 0.
std::vector<std::pair<std::string, std::uint64_t>> traced_events() {
  std::ostringstream out;
  obs::write_trace_json(out);
  std::vector<std::pair<std::string, std::uint64_t>> events;
  std::istringstream lines(out.str());
  std::string line;
  const std::string name_key = "{\"name\": \"";
  const std::string id_key = "\"trace_id\": \"";
  while (std::getline(lines, line)) {
    if (line.rfind(name_key, 0) != 0) continue;
    const std::size_t begin = name_key.size();
    std::string name = line.substr(begin, line.find('"', begin) - begin);
    const std::size_t id_at = line.find(id_key);
    const std::uint64_t id =
        id_at == std::string::npos
            ? 0
            : std::stoull(line.substr(id_at + id_key.size(), 16), nullptr,
                          16);
    events.emplace_back(std::move(name), id);
  }
  return events;
}

TEST(Service, EngineSpansCarryRequestTraceId) {
  // Each request's engine spans (Manthan3's synthesize span, and in race
  // mode every lane's span) carry the trace id of its service.job span.
  const struct {
    ServiceOptions::Admission admission;
    dqbf::DqbfFormula spec;
    std::size_t lanes;
  } cases[] = {
      {ServiceOptions::Admission::kSingle, testutil::paper_example(), 0},
      {ServiceOptions::Admission::kRace, testutil::tiny_planted(3), 3},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.lanes == 0 ? "kSingle" : "kRace");
    ServiceOptions options;
    options.workers = 2;
    options.admission = c.admission;
    Service service(options);
    aig::Aig manager;
    obs::start_tracing();
    const ServiceResult result = service.solve(c.spec, manager);
    obs::stop_tracing();
    const auto events = traced_events();
    obs::clear_trace();
    ASSERT_TRUE(result.solved());
    EXPECT_EQ(result.response.raced, c.lanes > 0);

    std::uint64_t job_id = 0;
    for (const auto& [name, id] : events) {
      if (name == "service.job") job_id = id;
    }
    ASSERT_NE(job_id, 0u);
    std::size_t synthesize = 0;
    std::size_t lanes = 0;
    for (const auto& [name, id] : events) {
      if (name == "synthesize") {
        EXPECT_EQ(id, job_id);
        ++synthesize;
      } else if (name == "race.lane") {
        EXPECT_EQ(id, job_id);
        ++lanes;
      }
    }
    EXPECT_EQ(synthesize, 1u);
    EXPECT_EQ(lanes, c.lanes);
  }
}

// --- service-routed portfolio runner ----------------------------------------

TEST(Runner, SuiteTwiceThroughServiceHitsTier1) {
  std::vector<workloads::Instance> suite;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    suite.push_back({"tiny" + std::to_string(seed), "planted",
                     testutil::tiny_planted(seed)});
  }
  portfolio::RunnerOptions runner_options;
  runner_options.per_instance_seconds = 30.0;
  const portfolio::Runner runner(runner_options);
  Service service(single_engine_service(2));

  const std::vector<portfolio::RunRecord> first =
      runner.run_suite(suite, {EngineKind::kManthan3}, service);
  ASSERT_EQ(first.size(), suite.size());
  for (const auto& record : first) {
    EXPECT_TRUE(record.solved()) << record.instance;
    EXPECT_FALSE(record.cache_hit) << record.instance;
  }

  const std::vector<portfolio::RunRecord> second =
      runner.run_suite(suite, {EngineKind::kManthan3}, service);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_TRUE(second[i].cache_hit) << second[i].instance;
    EXPECT_EQ(second[i].status, first[i].status);
    EXPECT_EQ(second[i].certified, first[i].certified);
    testutil::expect_same_counts(second[i].stats, first[i].stats);
  }
  EXPECT_GE(service.stats().tier1_hits, suite.size());
}

// --- directory-queue daemon -------------------------------------------------

class DaemonQueue : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("manthan3d_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  void write_request(const std::string& name, const std::string& text) {
    std::ofstream out(dir_ / name);
    out << text;
  }

  fs::path dir_;
};

TEST_F(DaemonQueue, DrainsCertifiesAndCachesDuplicates) {
  const std::string text =
      dqbf::to_dqdimacs_string(testutil::paper_example());
  write_request("a.dqdimacs", text);
  write_request("b.dqdimacs", text);  // duplicate: tier-1 hit
  write_request("broken.dqdimacs", "p cnf oops\n");

  Service service(single_engine_service(2));
  DaemonOptions options;
  options.queue_dir = dir_.string();
  const DrainReport report = drain_queue(service, options);

  EXPECT_EQ(report.processed, 2u);
  EXPECT_EQ(report.solved, 2u);
  EXPECT_EQ(report.cache_hits, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_FALSE(report.stopped);
  EXPECT_TRUE(fs::exists(dir_ / "a.result.json"));
  EXPECT_TRUE(fs::exists(dir_ / "b.result.json"));
  EXPECT_TRUE(fs::exists(dir_ / "broken.result.json"));

  // The result JSON names the fingerprint and embeds the certificate.
  std::ifstream in(dir_ / "a.result.json");
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"status\": \"realizable\""), std::string::npos);
  EXPECT_NE(json.find("\"certified\": true"), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\": \""), std::string::npos);
  EXPECT_NE(json.find("functions_blif"), std::string::npos);
  // Its stats object carries every kStatFields row, and none named like
  // a top-level key, which a first-match reader must still find.
  const std::size_t stats_at = json.find("\"stats\": {");
  for (const core::StatField& f : core::kStatFields) {
    EXPECT_NE(json.find("\"" + std::string(f.name) + "\": ", stats_at),
              std::string::npos)
        << f.name;
  }
  for (const char* top : {"status", "engine", "certified", "cache_hit",
                          "seconds"}) {
    EXPECT_EQ(json.find("\"" + std::string(top) + "\": ", stats_at),
              std::string::npos)
        << top;
  }

  // Idempotent: a second drain skips everything.
  const DrainReport again = drain_queue(service, options);
  EXPECT_EQ(again.processed, 0u);
  EXPECT_EQ(again.skipped, 3u);
}

TEST_F(DaemonQueue, PreCancelledStopDrainsNothing) {
  write_request("a.dqdimacs",
                dqbf::to_dqdimacs_string(testutil::paper_example()));
  Service service(single_engine_service());
  util::CancelToken stop;
  stop.cancel();
  DaemonOptions options;
  options.queue_dir = dir_.string();
  options.stop = &stop;
  const DrainReport report = drain_queue(service, options);
  EXPECT_TRUE(report.stopped);
  EXPECT_EQ(report.processed, 0u);
  EXPECT_FALSE(fs::exists(dir_ / "a.result.json"));
}

TEST_F(DaemonQueue, MidRequestStopLeavesNoResultBehind) {
  // Stop the daemon while the engine is deep in a long solve: the
  // request must come back cancelled, write no result file (so a later
  // drain retries it), and the drain must report stopping early.
  write_request("slow.dqdimacs",
                dqbf::to_dqdimacs_string(testutil::slow_planted()));
  Service service(single_engine_service());
  util::CancelToken stop;
  DaemonOptions options;
  options.queue_dir = dir_.string();
  options.stop = &stop;

  DrainReport report;
  std::thread drainer(
      [&]() { report = drain_queue(service, options); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.cancel();
  drainer.join();

  EXPECT_TRUE(report.stopped);
  EXPECT_EQ(report.processed, 0u);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_TRUE(report.records[0].cancelled);
  EXPECT_FALSE(fs::exists(dir_ / "slow.result.json"));

  // The queue is intact: clearing the stop lets a later drain finish
  // the request (under a budget so the test stays bounded).
  stop.reset();
  options.time_limit_seconds = 0.5;
  const DrainReport retry = drain_queue(service, options);
  EXPECT_EQ(retry.processed + retry.failed, 1u);
}

TEST_F(DaemonQueue, MaxRequestsBoundsTheDrain) {
  const std::string text =
      dqbf::to_dqdimacs_string(testutil::paper_example());
  write_request("a.dqdimacs", text);
  write_request("b.dqdimacs", text);
  Service service(single_engine_service());
  DaemonOptions options;
  options.queue_dir = dir_.string();
  options.max_requests = 1;
  const DrainReport report = drain_queue(service, options);
  EXPECT_EQ(report.processed, 1u);
  EXPECT_TRUE(report.stopped);
}

}  // namespace
}  // namespace manthan::engine
