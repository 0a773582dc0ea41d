// Portfolio runner and analytics: solved semantics, VBS, scatter and
// count computations.
#include <gtest/gtest.h>

#include <sstream>

#include "test_util.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/tables.hpp"

namespace manthan::portfolio {
namespace {

RunRecord make_record(const std::string& instance, EngineKind engine,
                      core::SynthesisStatus status, bool certified,
                      double seconds) {
  RunRecord r;
  r.instance = instance;
  r.family = "test";
  r.engine = engine;
  r.status = status;
  r.certified = certified;
  r.seconds = seconds;
  return r;
}

TEST(RunRecord, SolvedRequiresCertification) {
  EXPECT_TRUE(make_record("a", EngineKind::kManthan3,
                          core::SynthesisStatus::kRealizable, true, 1.0)
                  .solved());
  EXPECT_FALSE(make_record("a", EngineKind::kManthan3,
                           core::SynthesisStatus::kRealizable, false, 1.0)
                   .solved());
  EXPECT_FALSE(make_record("a", EngineKind::kManthan3,
                           core::SynthesisStatus::kUnrealizable, false, 1.0)
                   .solved());
}

TEST(Analytics, VbsCactusSeries) {
  std::vector<RunRecord> records{
      make_record("i1", EngineKind::kManthan3,
                  core::SynthesisStatus::kRealizable, true, 3.0),
      make_record("i1", EngineKind::kHqsLite,
                  core::SynthesisStatus::kRealizable, true, 1.0),
      make_record("i2", EngineKind::kManthan3,
                  core::SynthesisStatus::kRealizable, true, 2.0),
      make_record("i2", EngineKind::kHqsLite,
                  core::SynthesisStatus::kTimeout, false, 5.0),
      make_record("i3", EngineKind::kManthan3,
                  core::SynthesisStatus::kIncomplete, false, 0.2),
      make_record("i3", EngineKind::kHqsLite,
                  core::SynthesisStatus::kTimeout, false, 5.0),
  };
  const auto both = vbs_cactus_series(
      records, {EngineKind::kManthan3, EngineKind::kHqsLite});
  EXPECT_EQ(both, (std::vector<double>{1.0, 2.0}));
  const auto hqs_only = vbs_cactus_series(records, {EngineKind::kHqsLite});
  EXPECT_EQ(hqs_only, (std::vector<double>{1.0}));
}

TEST(Analytics, ScatterMarksTimeouts) {
  std::vector<RunRecord> records{
      make_record("i1", EngineKind::kManthan3,
                  core::SynthesisStatus::kRealizable, true, 0.5),
      make_record("i1", EngineKind::kPedantLite,
                  core::SynthesisStatus::kLimit, false, 5.0),
  };
  const auto points = scatter_points(records, {EngineKind::kPedantLite},
                                     {EngineKind::kManthan3}, 100.0);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].x_seconds, 100.0);
  EXPECT_EQ(points[0].y_seconds, 0.5);
}

TEST(Analytics, SolvedCountsHeadlineNumbers) {
  // i1: all solve; i2: only Manthan3; i3: only HQS (Manthan3 incomplete);
  // i4: nobody.
  std::vector<RunRecord> records{
      make_record("i1", EngineKind::kManthan3,
                  core::SynthesisStatus::kRealizable, true, 2.0),
      make_record("i1", EngineKind::kHqsLite,
                  core::SynthesisStatus::kRealizable, true, 1.0),
      make_record("i1", EngineKind::kPedantLite,
                  core::SynthesisStatus::kRealizable, true, 3.0),
      make_record("i2", EngineKind::kManthan3,
                  core::SynthesisStatus::kRealizable, true, 1.0),
      make_record("i2", EngineKind::kHqsLite,
                  core::SynthesisStatus::kLimit, false, 5.0),
      make_record("i2", EngineKind::kPedantLite,
                  core::SynthesisStatus::kTimeout, false, 5.0),
      make_record("i3", EngineKind::kManthan3,
                  core::SynthesisStatus::kIncomplete, false, 0.1),
      make_record("i3", EngineKind::kHqsLite,
                  core::SynthesisStatus::kRealizable, true, 0.4),
      make_record("i3", EngineKind::kPedantLite,
                  core::SynthesisStatus::kLimit, false, 5.0),
      make_record("i4", EngineKind::kManthan3,
                  core::SynthesisStatus::kTimeout, false, 5.0),
      make_record("i4", EngineKind::kHqsLite,
                  core::SynthesisStatus::kTimeout, false, 5.0),
      make_record("i4", EngineKind::kPedantLite,
                  core::SynthesisStatus::kTimeout, false, 5.0),
  };
  const SolvedCounts c = compute_solved_counts(records);
  EXPECT_EQ(c.total_instances, 4u);
  EXPECT_EQ(c.solved_manthan3, 2u);
  EXPECT_EQ(c.solved_hqs, 2u);
  EXPECT_EQ(c.solved_pedant, 1u);
  EXPECT_EQ(c.vbs_without_manthan3, 2u);
  EXPECT_EQ(c.vbs_with_manthan3, 3u);
  EXPECT_EQ(c.manthan3_unique, 1u);
  EXPECT_EQ(c.manthan3_fastest, 1u);  // i2 (on i1 HQS is faster)
  EXPECT_EQ(c.others_not_manthan3, 1u);
  EXPECT_EQ(c.manthan3_incomplete, 1u);
  EXPECT_EQ(c.manthan3_timeout, 0u);
}

TEST(Runner, RunsPaperExampleWithAllEngines) {
  workloads::Instance instance;
  instance.name = "paper_example";
  instance.family = "manual";
  instance.formula = testutil::paper_example();

  RunnerOptions options;
  options.per_instance_seconds = 20.0;
  Runner runner(options);
  const std::vector<RunRecord> records = runner.run_suite(
      {instance}, {EngineKind::kManthan3, EngineKind::kHqsLite,
                   EngineKind::kPedantLite});
  ASSERT_EQ(records.size(), 3u);
  for (const RunRecord& r : records) {
    EXPECT_TRUE(r.solved()) << engine_name(r.engine) << " status "
                            << status_name(r.status);
    EXPECT_GT(r.seconds, 0.0);
  }
}

TEST(Runner, ParallelSuiteMatchesSerialAtFixedSeed) {
  // The determinism contract: every (instance, engine) job derives its
  // RNG stream from (suite seed, instance name, engine) only, so the
  // parallel fan-out must reproduce the serial records field for field
  // (timing aside) — including Manthan3's sample/repair counters, which
  // depend on every random draw.
  std::vector<workloads::Instance> suite;
  suite.push_back({"planted_a", "planted",
                   workloads::gen_planted({8, 4, 3, 5, 30, 11})});
  suite.push_back({"planted_b", "planted",
                   workloads::gen_planted({10, 5, 4, 6, 40, 12})});
  suite.push_back({"pec", "pec", workloads::gen_pec({8, 2, 2, 3, 12, 5})});
  suite.push_back({"succinct", "succinct_sat",
                   workloads::gen_succinct_sat({16, 3.2, 7})});
  const std::vector<EngineKind> engines{
      EngineKind::kManthan3, EngineKind::kHqsLite, EngineKind::kPedantLite};

  RunnerOptions options;
  options.per_instance_seconds = 60.0;  // comfortable: no timing-dependent paths
  options.seed = 2024;
  const Runner runner(options);
  const std::vector<RunRecord> serial = runner.run_suite(suite, engines);
  const std::vector<RunRecord> parallel =
      runner.run_suite(suite, engines, ParallelOptions{4});

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].instance, parallel[i].instance) << i;
    EXPECT_EQ(serial[i].family, parallel[i].family) << i;
    EXPECT_EQ(serial[i].engine, parallel[i].engine) << i;
    EXPECT_EQ(serial[i].status, parallel[i].status)
        << serial[i].instance << " / " << engine_name(serial[i].engine);
    EXPECT_EQ(serial[i].certified, parallel[i].certified) << i;
    SCOPED_TRACE(i);
    testutil::expect_same_counts(serial[i].stats, parallel[i].stats);
  }
}

TEST(Runner, ParallelSuiteHandlesEmptyInput) {
  const Runner runner;
  EXPECT_TRUE(runner.run_suite({}, {}, ParallelOptions{2}).empty());
  EXPECT_TRUE(
      runner
          .run_suite({}, {EngineKind::kManthan3}, ParallelOptions{0})
          .empty());
}

TEST(Tables, CactusOutputWellFormed) {
  std::ostringstream os;
  print_cactus(os, {"A", "B"}, {{0.5, 1.5}, {0.25}});
  const std::string text = os.str();
  EXPECT_NE(text.find("A=2"), std::string::npos);
  EXPECT_NE(text.find("B=1"), std::string::npos);
}

TEST(Tables, ScatterSummarizesWins) {
  std::ostringstream os;
  print_scatter(os, "X", "Y",
                {{"i1", 1.0, 2.0}, {"i2", 100.0, 3.0}}, 100.0);
  const std::string text = os.str();
  EXPECT_NE(text.find("X faster on 1"), std::string::npos);
  EXPECT_NE(text.find("exclusive 1"), std::string::npos);
}

TEST(Tables, SolvedCountsRendering) {
  SolvedCounts c;
  c.total_instances = 10;
  c.vbs_with_manthan3 = 7;
  c.vbs_without_manthan3 = 5;
  std::ostringstream os;
  print_solved_counts(os, c);
  EXPECT_NE(os.str().find("VBS improvement by Manthan3:     2"),
            std::string::npos);
}

TEST(Tables, EngineAndStatusNames) {
  EXPECT_STREQ(engine_name(EngineKind::kManthan3), "Manthan3");
  EXPECT_STREQ(engine_name(EngineKind::kHqsLite), "HqsLite");
  EXPECT_STREQ(engine_name(EngineKind::kPedantLite), "PedantLite");
  EXPECT_STREQ(status_name(core::SynthesisStatus::kRealizable),
               "realizable");
  EXPECT_STREQ(status_name(core::SynthesisStatus::kIncomplete),
               "incomplete");
}

}  // namespace
}  // namespace manthan::portfolio
