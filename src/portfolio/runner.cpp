#include "portfolio/runner.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "dqbf/certificate.hpp"
#include "util/rng.hpp"
#include "util/scheduler.hpp"
#include "util/timer.hpp"

namespace manthan::portfolio {

Runner::Runner(RunnerOptions options) : options_(options) {}

RunRecord Runner::run_one(const workloads::Instance& instance,
                          EngineKind engine) const {
  RunRecord record;
  record.instance = instance.name;
  record.family = instance.family;
  record.engine = engine;

  aig::Aig manager;
  util::Timer timer;
  engine::EngineOptions engine_options;
  engine_options.time_limit_seconds = options_.per_instance_seconds;
  // Job-local stream: a function of the suite seed and the job identity
  // only, so the parallel fan-out replays the serial run exactly.
  engine_options.seed =
      util::derive_seed(options_.seed, util::hash64(instance.name),
                        static_cast<std::uint64_t>(engine));
  const core::SynthesisResult result =
      engine::run_engine(instance.formula, manager, engine, engine_options);
  record.seconds = timer.seconds();
  record.status = result.status;
  record.stats = result.stats;
  if (result.status == core::SynthesisStatus::kRealizable) {
    const dqbf::CertificateResult cert =
        dqbf::check_certificate(instance.formula, manager, result.vector);
    record.certified = cert.status == dqbf::CertificateStatus::kValid;
  }
  return record;
}

std::vector<RunRecord> Runner::run_suite(
    const std::vector<workloads::Instance>& suite,
    const std::vector<EngineKind>& engines) const {
  std::vector<RunRecord> records;
  records.reserve(suite.size() * engines.size());
  for (const workloads::Instance& instance : suite) {
    for (const EngineKind engine : engines) {
      records.push_back(run_one(instance, engine));
    }
  }
  return records;
}

std::vector<RunRecord> Runner::run_suite(
    const std::vector<workloads::Instance>& suite,
    const std::vector<EngineKind>& engines,
    const ParallelOptions& parallel) const {
  const std::size_t total = suite.size() * engines.size();
  std::vector<RunRecord> records(total);
  if (total == 0) return records;

  std::size_t workers = parallel.workers != 0
                            ? parallel.workers
                            : std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  workers = std::min(workers, total);

  util::Scheduler pool(workers);
  std::vector<std::future<void>> futures;
  futures.reserve(total);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (std::size_t e = 0; e < engines.size(); ++e) {
      // Slot addressing reproduces the serial instance-major order no
      // matter which worker finishes first.
      const std::size_t slot = i * engines.size() + e;
      futures.push_back(pool.submit([this, &suite, &engines, &records, i, e,
                                     slot]() {
        records[slot] = run_one(suite[i], engines[e]);
      }));
    }
  }
  for (std::future<void>& f : futures) f.get();
  return records;
}

std::vector<RunRecord> Runner::run_suite(
    const std::vector<workloads::Instance>& suite,
    const std::vector<EngineKind>& engines,
    engine::Service& service) const {
  // Submit everything up front (instance-major, matching the serial
  // order), then collect: the service queues the backlog across its own
  // workers, and duplicate specs coalesce or hit the result cache.
  std::vector<std::shared_future<engine::ServiceResponse>> futures;
  futures.reserve(suite.size() * engines.size());
  for (const workloads::Instance& instance : suite) {
    for (const EngineKind engine : engines) {
      engine::SolveOptions solve_options;
      solve_options.time_limit_seconds = options_.per_instance_seconds;
      solve_options.engine = engine;
      futures.push_back(service.submit(instance.formula, solve_options));
    }
  }

  std::vector<RunRecord> records;
  records.reserve(futures.size());
  std::size_t slot = 0;
  for (const workloads::Instance& instance : suite) {
    for (const EngineKind engine : engines) {
      const engine::ServiceResponse response = futures[slot++].get();
      RunRecord record;
      record.instance = instance.name;
      record.family = instance.family;
      record.engine = engine;
      record.status = response.status;
      record.certified = response.certified;
      record.cache_hit = response.cache_hit;
      record.seconds = response.solve_seconds;
      record.stats = response.stats;
      records.push_back(std::move(record));
    }
  }
  return records;
}

namespace {

/// instance -> engine -> solving time (only solved runs).
std::map<std::string, std::map<EngineKind, double>> solved_times(
    const std::vector<RunRecord>& records) {
  std::map<std::string, std::map<EngineKind, double>> times;
  for (const RunRecord& r : records) {
    if (r.solved()) times[r.instance][r.engine] = r.seconds;
  }
  return times;
}

std::vector<std::string> all_instances(const std::vector<RunRecord>& records) {
  std::vector<std::string> names;
  for (const RunRecord& r : records) names.push_back(r.instance);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

/// Min time of any engine in `engines` on `instance`; +inf when unsolved.
double best_time(const std::map<std::string, std::map<EngineKind, double>>& t,
                 const std::string& instance,
                 const std::vector<EngineKind>& engines) {
  double best = std::numeric_limits<double>::infinity();
  const auto it = t.find(instance);
  if (it == t.end()) return best;
  for (const EngineKind e : engines) {
    const auto et = it->second.find(e);
    if (et != it->second.end()) best = std::min(best, et->second);
  }
  return best;
}

}  // namespace

std::vector<double> vbs_cactus_series(const std::vector<RunRecord>& records,
                                      const std::vector<EngineKind>& engines) {
  const auto times = solved_times(records);
  std::vector<double> series;
  for (const std::string& instance : all_instances(records)) {
    const double t = best_time(times, instance, engines);
    if (t < std::numeric_limits<double>::infinity()) series.push_back(t);
  }
  std::sort(series.begin(), series.end());
  return series;
}

std::vector<ScatterPoint> scatter_points(
    const std::vector<RunRecord>& records,
    const std::vector<EngineKind>& x_engines,
    const std::vector<EngineKind>& y_engines, double timeout_value) {
  const auto times = solved_times(records);
  std::vector<ScatterPoint> points;
  for (const std::string& instance : all_instances(records)) {
    const double x = best_time(times, instance, x_engines);
    const double y = best_time(times, instance, y_engines);
    points.push_back(
        {instance, std::isfinite(x) ? x : timeout_value,
         std::isfinite(y) ? y : timeout_value});
  }
  return points;
}

SolvedCounts compute_solved_counts(const std::vector<RunRecord>& records) {
  SolvedCounts counts;
  const auto times = solved_times(records);
  const std::vector<std::string> instances = all_instances(records);
  counts.total_instances = instances.size();

  // Index Manthan3's non-solved statuses for the incompleteness split,
  // and the instances any engine proved False.
  std::map<std::string, core::SynthesisStatus> manthan3_status;
  std::set<std::string> unrealizable;
  for (const RunRecord& r : records) {
    if (r.engine == EngineKind::kManthan3) manthan3_status[r.instance] = r.status;
    if (r.status == core::SynthesisStatus::kUnrealizable) {
      unrealizable.insert(r.instance);
    }
  }
  counts.unrealizable_detected = unrealizable.size();

  const std::vector<EngineKind> m3{EngineKind::kManthan3};
  const std::vector<EngineKind> hqs{EngineKind::kHqsLite};
  const std::vector<EngineKind> pedant{EngineKind::kPedantLite};
  const std::vector<EngineKind> baselines{EngineKind::kHqsLite,
                                          EngineKind::kPedantLite};
  for (const std::string& instance : instances) {
    const double tm = best_time(times, instance, m3);
    const double th = best_time(times, instance, hqs);
    const double tp = best_time(times, instance, pedant);
    const double tb = best_time(times, instance, baselines);
    const bool sm = std::isfinite(tm);
    const bool sh = std::isfinite(th);
    const bool sp = std::isfinite(tp);
    const bool sb = std::isfinite(tb);
    if (sm) ++counts.solved_manthan3;
    if (sh) ++counts.solved_hqs;
    if (sp) ++counts.solved_pedant;
    if (sb) ++counts.vbs_without_manthan3;
    if (sm || sb) ++counts.vbs_with_manthan3;
    if (sm && !sb) ++counts.manthan3_unique;
    if (sm && !sh) ++counts.manthan3_not_hqs;
    if (sm && !sp) ++counts.manthan3_not_pedant;
    if (!sm && sb) {
      ++counts.others_not_manthan3;
      const auto it = manthan3_status.find(instance);
      if (it != manthan3_status.end()) {
        if (it->second == core::SynthesisStatus::kIncomplete) {
          ++counts.manthan3_incomplete;
        } else {
          ++counts.manthan3_timeout;
        }
      }
    }
    if (sm && tm < tb) ++counts.manthan3_fastest;
  }
  return counts;
}

}  // namespace manthan::portfolio
