#include "engine/service.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "dqbf/certificate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace manthan::engine {

namespace {

std::size_t default_workers(std::size_t configured) {
  if (configured != 0) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? static_cast<std::size_t>(hw) : 1;
}

/// Registry instruments mirroring ServiceStats. The typed struct stays
/// the API; these are the transport any /metrics-style consumer scrapes.
struct ServiceMetrics {
  obs::Counter& requests;
  obs::Counter& tier1_hits;
  obs::Counter& tier1_misses;
  obs::Counter& coalesced;
  obs::Counter& races;
  obs::Counter& single_runs;
  obs::Counter& completed;
  obs::Counter& cancelled;
  obs::Counter& evictions;
  obs::Counter& internal_errors;
  obs::Counter& budget_memory;
  obs::Counter& budget_time;
  obs::Counter& budget_conflicts;
  obs::Counter& budget_alloc;
  obs::Counter& retried;      // incremented by the daemon (same registry)
  obs::Counter& quarantined;  // incremented by the daemon (same registry)
  obs::Gauge& cache_entries;
  obs::Gauge& persisted_entries;
  obs::Histogram& solve_seconds;

  obs::Counter& budget_trip_counter(util::ResourceBudget::Trip trip) {
    switch (trip) {
      case util::ResourceBudget::Trip::kTime: return budget_time;
      case util::ResourceBudget::Trip::kConflicts: return budget_conflicts;
      case util::ResourceBudget::Trip::kAllocFailure: return budget_alloc;
      default: return budget_memory;
    }
  }
};

ServiceMetrics& service_metrics() {
  auto& r = obs::Registry::global();
  // Leaked for the same static-destruction reason as the registry itself.
  static ServiceMetrics* m = new ServiceMetrics{
      r.counter("service_requests_total"),
      r.counter("service_cache_hits_total"),
      r.counter("service_cache_misses_total"),
      r.counter("service_coalesced_total"),
      r.counter("service_races_total"),
      r.counter("service_single_runs_total"),
      r.counter("service_completed_total"),
      r.counter("service_cancelled_total"),
      r.counter("service_cache_evictions_total"),
      r.counter("service_job_exceptions_total"),
      r.counter("budget_trips_total_memory"),
      r.counter("budget_trips_total_time"),
      r.counter("budget_trips_total_conflicts"),
      r.counter("budget_trips_total_alloc_failure"),
      r.counter("service_requests_retried_total"),
      r.counter("service_requests_quarantined_total"),
      r.gauge("service_result_cache_entries"),
      r.gauge("cache_persisted_entries"),
      r.histogram("service_solve_seconds"),
  };
  return *m;
}

/// Trace id for a request: the canonical spec fingerprint folded to one
/// word. Telemetry only — never fed into seed derivation.
std::uint64_t trace_id_of(const dqbf::Fingerprint& fp) {
  return fp.hi ^ fp.lo;
}

}  // namespace

void register_service_metrics() { service_metrics(); }

dqbf::HenkinVector ResultCone::import_into(aig::Aig& dst) const {
  dqbf::HenkinVector vector;
  vector.functions.reserve(roots_.size());
  std::unordered_map<std::uint32_t, aig::Ref> node_map;
  for (const aig::Ref root : roots_) {
    vector.functions.push_back(aig::import_cone(manager_, dst, root, node_map));
  }
  return vector;
}

struct Service::Job {
  dqbf::DqbfFormula formula;
  dqbf::CanonicalForm canon;
  CacheKey key;
  SolveOptions options;
  bool coalescable = false;
  bool coalesced = false;  // guarded by the service mutex
  std::promise<ServiceResponse> promise;
};

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      pool_(default_workers(options_.workers)) {
  watchdog_.poll_ms = options_.watchdog_poll_ms;
  if (options_.result_cache && !options_.cache_dir.empty()) {
    load_persisted_cache();
  }
}

Service::~Service() {
  shutdown();
  // pool_ is the last member: its destructor drains every submitted job
  // while the caches and maps above it are still alive.
}

void Service::shutdown() { shutdown_.cancel(); }

std::shared_future<ServiceResponse> Service::submit(
    const dqbf::DqbfFormula& formula, const SolveOptions& options) {
  auto job = std::make_shared<Job>();
  job->formula = formula;
  job->canon = dqbf::canonicalize(formula);
  job->key.fp = job->canon.spec;
  job->key.mode =
      options.engine
          ? 1 + static_cast<std::uint32_t>(*options.engine)
          : 0;
  job->options = options;
  job->coalescable = options.cancel == nullptr;
  const std::uint64_t trace_id = trace_id_of(job->canon.spec);
  obs::Span submit_span("service.submit", "service", trace_id);
  ServiceMetrics& metrics = service_metrics();
  metrics.requests.inc();

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;

    if (options_.result_cache) {
      const auto it = cache_.find(job->key);
      if (it != cache_.end()) {
        ++stats_.tier1_hits;
        metrics.tier1_hits.inc();
        obs::trace_instant("cache.hit", "service", trace_id);
        lru_.splice(lru_.begin(), lru_, it->second);
        ServiceResponse response = it->second->response;
        response.cache_hit = true;
        std::promise<ServiceResponse> ready;
        ready.set_value(std::move(response));
        return ready.get_future().share();
      }
      ++stats_.tier1_misses;
      metrics.tier1_misses.inc();
    }

    if (job->coalescable) {
      const auto it = inflight_.find(job->key);
      if (it != inflight_.end()) {
        ++stats_.coalesced;
        metrics.coalesced.inc();
        obs::trace_instant("coalesce", "service", trace_id);
        // Flag the in-flight job so its response records the sharing.
        // (The owning Job is reachable only through the future, so the
        // flag lives on the response instead: set when the job ends.)
        coalesced_keys_.insert(job->key);
        return it->second;
      }
    }

    ++queued_;
    std::shared_future<ServiceResponse> future =
        job->promise.get_future().share();
    if (job->coalescable) inflight_.emplace(job->key, future);
    pool_.submit([this, job]() {
      // A worker never dies on a job: any escape from the engines —
      // injected faults included — becomes a structured internal-error
      // response, so callers (and coalesced waiters) always get a value.
      ServiceResponse response;
      try {
        response = run_job(job);
      } catch (const std::exception& e) {
        response = internal_error_response(job, e.what());
      } catch (...) {
        response = internal_error_response(job, "unknown exception");
      }
      job->promise.set_value(std::move(response));
    });
    return future;
  }
}

ServiceResponse Service::run_job(const std::shared_ptr<Job>& job) {
  const std::uint64_t trace_id = trace_id_of(job->canon.spec);
  obs::Span job_span("service.job", "service", trace_id);
  ServiceMetrics& metrics = service_metrics();
  bool race_mode = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --queued_;
    if (!job->options.engine) {
      switch (options_.admission) {
        case ServiceOptions::Admission::kRace:
          race_mode = true;
          break;
        case ServiceOptions::Admission::kAuto:
          // Latency mode only while idle: a backlog means every worker
          // is worth more as a separate request than as a race lane.
          race_mode = queued_ == 0 && pool_.worker_count() >= 2;
          break;
        case ServiceOptions::Admission::kSingle:
          break;
      }
    }
    if (race_mode) {
      ++stats_.races;
      metrics.races.inc();
    } else {
      ++stats_.single_runs;
      metrics.single_runs.inc();
    }
  }

  util::Timer timer;
  // Per-request budget: explicit override, else the service default. The
  // budget's token joins the cancellation set so an out-of-band trip (the
  // wall-time watchdog) stops the engines at their next deadline poll.
  const util::ResourceBudget::Limits limits =
      job->options.budget ? *job->options.budget : options_.default_budget;
  std::optional<util::ResourceBudget> budget;
  if (limits.any()) budget.emplace(limits);
  util::AnyOfCancelToken token(&shutdown_, job->options.cancel,
                               budget ? &budget->token() : nullptr);
  struct WatchdogGuard {  // unregisters on every exit path (throws too)
    Watchdog& dog;
    std::uint64_t id = 0;
    ~WatchdogGuard() {
      if (id != 0) dog.remove(id);
    }
  } watchdog_guard{watchdog_};
  if (budget && limits.wall_seconds > 0.0) {
    watchdog_guard.id = watchdog_.add(&*budget, limits.wall_seconds);
  }
  // Chaos hook: one poll per executed job (cache hits never reach here).
  switch (util::fault::poll(util::fault::Site::kServiceJob)) {
    case util::fault::Kind::kAlloc:
      throw std::bad_alloc();  // surfaces through the worker's catch-all
    case util::fault::Kind::kIo:
      throw std::runtime_error("injected service.job fault");
    case util::fault::Kind::kCancel:
      token.cancel();
      break;
    default:  // kStall already slept inside poll(); kNone is free
      break;
  }
  const double limit = job->options.time_limit_seconds < 0.0
                           ? options_.default_time_limit_seconds
                           : job->options.time_limit_seconds;
  // Seed from the canonical identity, not submission order: duplicate
  // specs replay identical streams, which is what makes a tier-1 hit
  // indistinguishable from re-solving.
  const std::uint64_t seed = util::derive_seed(
      options_.seed, job->canon.spec.hi ^ job->key.mode, job->canon.spec.lo);

  ServiceResponse response;
  response.fingerprint = job->canon.spec;
  auto cone = std::make_shared<ResultCone>();

  try {
    // Growth sites on this thread charge the request's budget; race lanes
    // re-install the scope per worker through RaceOptions::budget.
    util::BudgetScope budget_scope(budget ? &*budget : nullptr);
    if (race_mode) {
      RaceOptions race_options;
      race_options.time_limit_seconds = limit;
      race_options.seed = seed;
      race_options.trace_id = trace_id;
      race_options.cancel = &token;
      race_options.budget = budget ? &*budget : nullptr;
      const RaceOutcome outcome = race(job->formula, cone->manager_,
                                       race_options);
      response.status = outcome.status;
      response.certified = outcome.certified;
      response.raced = true;
      if (outcome.winner >= 0) {
        const auto& lane =
            outcome.lanes[static_cast<std::size_t>(outcome.winner)];
        response.engine = lane.engine;
        response.stats = lane.stats;
      }
      if (outcome.solved()) {
        cone->roots_ = outcome.vector.functions;
        response.functions = std::move(cone);
      }
    } else {
      const EngineKind kind =
          job->options.engine.value_or(options_.single_engine);
      EngineOptions engine_options;
      engine_options.time_limit_seconds = limit;
      engine_options.seed = seed;
      engine_options.cancel = &token;
      engine_options.trace_id = trace_id;
      core::SynthesisResult result =
          run_engine(job->formula, cone->manager_, kind, engine_options);
      response.status = result.status;
      response.stats = result.stats;
      response.engine = kind;
      if (result.status == core::SynthesisStatus::kRealizable) {
        const dqbf::CertificateResult cert = dqbf::check_certificate(
            job->formula, cone->manager_, result.vector);
        response.certified = cert.status == dqbf::CertificateStatus::kValid;
        if (response.certified) {
          cone->roots_ = result.vector.functions;
          response.functions = std::move(cone);
        }
      }
    }
  } catch (const util::OutOfBudgetError&) {
    // Backstop for throws outside Manthan3's own catch (baseline engines,
    // certificate checking): a truncated-but-valid budget verdict.
    response.status = core::SynthesisStatus::kOutOfBudget;
    response.certified = false;
    response.functions = nullptr;
  }

  response.solve_seconds = timer.seconds();
  metrics.solve_seconds.observe(response.solve_seconds);
  const bool definitive =
      response.solved() ||
      response.status == core::SynthesisStatus::kUnrealizable;
  if (budget && !definitive &&
      budget->tripped() != util::ResourceBudget::Trip::kNone) {
    // A polled trip surfaces as kTimeout through the cancellation chain;
    // rewrite it to the budget verdict it actually is.
    response.status = core::SynthesisStatus::kOutOfBudget;
  }
  if (response.status == core::SynthesisStatus::kOutOfBudget) {
    response.budget_trip =
        budget && budget->tripped() != util::ResourceBudget::Trip::kNone
            ? budget->tripped()
            : util::ResourceBudget::Trip::kAllocFailure;
    metrics.budget_trip_counter(response.budget_trip).inc();
  }
  // A tripped budget is a final answer, not a cancellation: daemons must
  // not retry it and callers should trust its (truncated) stats.
  response.cancelled =
      token.cancelled() && !definitive &&
      response.status != core::SynthesisStatus::kOutOfBudget;

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.completed;
    metrics.completed.inc();
    if (response.cancelled) {
      ++stats_.cancelled;
      metrics.cancelled.inc();
    }
    if (response.status == core::SynthesisStatus::kOutOfBudget) {
      ++stats_.budget_trips;
    }
    if (job->coalescable) {
      inflight_.erase(job->key);
      const auto shared = coalesced_keys_.find(job->key);
      if (shared != coalesced_keys_.end()) {
        response.coalesced = true;
        coalesced_keys_.erase(shared);
      }
    }
    // Cache only trustworthy verdicts: certified vectors and proven
    // unrealizability, never anything a token truncated.
    if (options_.result_cache && definitive && !response.cancelled) {
      obs::trace_instant("cache.store", "service", trace_id);
      cache_store(job->key, response, /*persist=*/true);
      metrics.cache_entries.set(static_cast<double>(cache_.size()));
    }
  }
  return response;
}

ServiceResponse Service::internal_error_response(
    const std::shared_ptr<Job>& job, const char* what) {
  ServiceResponse response;
  response.status = core::SynthesisStatus::kInternalError;
  response.fingerprint = job->canon.spec;
  response.error = what;
  ServiceMetrics& metrics = service_metrics();
  metrics.internal_errors.inc();
  obs::trace_instant("job.exception", "service",
                     trace_id_of(job->canon.spec));
  const std::lock_guard<std::mutex> lock(mutex_);
  // run_job already decremented queued_ and counted the admission mode;
  // the job consumed a worker, so it still counts as completed.
  ++stats_.completed;
  metrics.completed.inc();
  ++stats_.internal_errors;
  if (job->coalescable) {
    inflight_.erase(job->key);
    const auto shared = coalesced_keys_.find(job->key);
    if (shared != coalesced_keys_.end()) {
      response.coalesced = true;
      coalesced_keys_.erase(shared);
    }
  }
  return response;
}

std::uint64_t Service::Watchdog::add(util::ResourceBudget* budget,
                                     double wall_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(wall_seconds));
  const std::lock_guard<std::mutex> lock(mutex);
  if (!thread.joinable()) {
    thread = std::thread([this] { run(); });
  }
  const std::uint64_t id = next_id++;
  active.emplace(id, Entry{budget, deadline});
  cv.notify_all();
  return id;
}

void Service::Watchdog::remove(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex);
  active.erase(id);
}

void Service::Watchdog::run() {
  std::unique_lock<std::mutex> lock(mutex);
  while (!stop) {
    if (active.empty()) {
      cv.wait(lock, [this] { return stop || !active.empty(); });
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& item : active) {
      if (now >= item.second.deadline) {
        // Idempotent: trip() keeps the first cause and re-cancelling the
        // token is harmless, so no need to deregister here.
        item.second.budget->trip(util::ResourceBudget::Trip::kTime);
      }
    }
    cv.wait_for(lock, std::chrono::milliseconds(poll_ms));
  }
}

Service::Watchdog::~Watchdog() {
  {
    const std::lock_guard<std::mutex> lock(mutex);
    stop = true;
  }
  cv.notify_all();
  if (thread.joinable()) thread.join();
}

void Service::cache_store(const CacheKey& key, const ServiceResponse& response,
                          bool persist) {
  // Callers hold mutex_.
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    // A coalescing race lost (two non-coalescable duplicates solved
    // concurrently): keep the incumbent, results are identical anyway.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  CacheEntry entry;
  entry.key = key;
  entry.response = response;
  entry.response.cache_hit = false;
  entry.response.coalesced = false;
  lru_.push_front(std::move(entry));
  cache_.emplace(key, lru_.begin());
  if (persist && !options_.cache_dir.empty()) {
    persist_store(key, lru_.front().response);
  }
  if (options_.result_cache_capacity != 0 &&
      lru_.size() > options_.result_cache_capacity) {
    if (!options_.cache_dir.empty()) persist_remove(lru_.back().key);
    cache_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.cache_evictions;
    service_metrics().evictions.inc();
  }
}

ServiceResult Service::solve(const dqbf::DqbfFormula& formula,
                             aig::Aig& manager, const SolveOptions& options) {
  ServiceResult result;
  result.response = submit(formula, options).get();
  if (result.response.functions != nullptr) {
    result.vector = result.response.functions->import_into(manager);
  }
  return result;
}

ServiceStats Service::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats snapshot = stats_;
  snapshot.cache_entries = cache_.size();
  snapshot.persisted_entries = persisted_entries_;
  snapshot.persisted_corrupt = persisted_corrupt_;
  return snapshot;
}

}  // namespace manthan::engine
