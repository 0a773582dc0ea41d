// The synthesis service: a session-based, embeddable front door to the
// engines.
//
// One Service owns a scheduler pool, an admission policy, and a result
// cache; clients hold a Service for the lifetime of a session
// (a daemon process, a suite run, an embedding application) and submit
// any number of requests against it. Per-request work is keyed by the
// canonical spec fingerprint (dqbf/fingerprint.hpp), which buys two
// things no one-shot API can offer:
//
//   * Tier-1 result reuse. A certified SynthesisResult — status plus the
//     Skolem/Henkin AIG cones, serialized into a private immutable
//     manager — is stored under (fingerprint, engine-mode) in an LRU
//     cache. A duplicate request (same spec up to clause order, literal
//     order, and role-preserving variable renaming) is answered without
//     touching a worker; callers import the cached cones into their own
//     manager via aig::import_cone, exactly like a race winner's vector.
//
//   * In-flight coalescing. Concurrent duplicate submissions (no
//     per-request cancel token) share one underlying job and one future.
//
// Admission: when the service is idle (no queued requests) and has spare
// workers, a request fans into engine::race across all three engines —
// latency mode. The lanes run on the service's persistent lane threads
// (RaceLanes, started by the first race, joined by the destructor); the
// job answers at the first certified or proven-False lane, and the losers
// stop in the background. Once a backlog forms, each request runs a
// single engine — throughput mode, one worker per request. kSingle /
// kRace force either behavior.
//
// Determinism: the per-request seed is derived from the service seed and
// the spec fingerprint, never from submission order or wall clock, so a
// warm hit is field-for-field identical to what the cold solve at the
// same seed produced (the determinism guard in tests/test_service.cpp
// pins this).
//
// Cancellation: each job observes a util::AnyOfCancelToken composed of
// the service-wide shutdown token and the caller's optional per-request
// token. shutdown() flips the service token and returns; the destructor
// drains the pool, with every queued-but-unstarted job observing the
// token at its first deadline poll and returning kTimeout quickly, and
// then joins the race lanes. Cancelled results are never cached. A race
// lane reads the caller's token only until its race answers, so the
// token, like the request's budget, may be destroyed as soon as the
// response is taken.
//
// Threading: submit() is safe from any thread. solve() blocks on the
// returned future — calling it from inside a service worker can deadlock
// a fully-busy pool (the scheduler's documented dependent-stage caveat);
// embedders that need request chaining should use submit() and compose
// futures outside the pool.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "aig/aig.hpp"
#include "core/manthan3.hpp"
#include "dqbf/dqbf.hpp"
#include "dqbf/fingerprint.hpp"
#include "engine/engine.hpp"
#include "engine/race.hpp"
#include "util/budget.hpp"
#include "util/cancel.hpp"
#include "util/scheduler.hpp"

namespace manthan::engine {

struct ServiceOptions {
  /// Scheduler worker threads; 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Default per-request wall-clock budget in seconds (0 = unlimited);
  /// counted from job start, not from submission (queue wait is free).
  double default_time_limit_seconds = 0.0;
  /// Base seed: per-request seeds are derive_seed(seed, fp, mode). The
  /// engines run at their default options otherwise.
  std::uint64_t seed = 42;

  enum class Admission {
    kAuto,    // race when idle, single-engine when backlogged
    kSingle,  // always one engine per request
    kRace,    // always race (unless the request forces an engine)
  };
  Admission admission = Admission::kAuto;
  /// Engine used for single-engine runs (backlog mode / kSingle). Race
  /// mode runs RaceOptions' default contenders, all three engines.
  EngineKind single_engine = EngineKind::kManthan3;

  /// Enable the tier-1 certified-result cache for every request.
  bool result_cache = true;
  /// Tier-1 LRU capacity (entries); 0 = unbounded.
  std::size_t result_cache_capacity = 1024;

  /// Default per-request resource budget (growth-site heap bytes, wall
  /// seconds enforced by the service watchdog, SAT conflicts). All-zero =
  /// unlimited; SolveOptions::budget overrides per request. A tripped
  /// budget yields kOutOfBudget with truncated-but-valid stats — it is a
  /// final answer, never marked cancelled and never retried by daemons.
  util::ResourceBudget::Limits default_budget;
  /// Poll interval of the wall-clock budget watchdog thread.
  std::uint32_t watchdog_poll_ms = 10;
  /// Directory for the crash-durable tier-1 cache: one text file per
  /// definitive entry (header + AIGER payload, see README). Entries are
  /// reloaded at construction — corrupt or truncated files are skipped,
  /// never fatal — and deleted on LRU eviction. Empty = in-memory only.
  std::string cache_dir;
};

/// Per-request knobs for submit()/solve().
struct SolveOptions {
  /// Wall-clock budget in seconds; negative = service default.
  double time_limit_seconds = -1.0;
  /// Optional per-request stop flag, composed with the service shutdown
  /// token. Must outlive the request, that is, until its response is
  /// ready (race lanes still stopping no longer read it). Requests
  /// carrying a token are never coalesced with other submissions (a token
  /// must never cancel a stranger's request); all others share one
  /// in-flight job with their concurrent duplicates.
  const util::CancelToken* cancel = nullptr;
  /// Force this engine instead of the admission policy (cached under a
  /// separate engine-mode tag).
  std::optional<EngineKind> engine;
  /// Per-request resource budget; unset = the service default.
  std::optional<util::ResourceBudget::Limits> budget;
};

/// Certified Henkin functions serialized as a private immutable AIG —
/// the tier-1 cache value. Immutable after construction; any number of
/// threads may import_into() concurrently.
class ResultCone {
 public:
  /// Rebuild the functions in `dst` (shared strashing: importing into a
  /// manager that already solved the same spec yields identical Refs).
  dqbf::HenkinVector import_into(aig::Aig& dst) const;

  const aig::Aig& manager() const { return manager_; }
  const std::vector<aig::Ref>& roots() const { return roots_; }

 private:
  friend class Service;
  aig::Aig manager_;
  std::vector<aig::Ref> roots_;
};

/// Outcome of one service request.
struct ServiceResponse {
  core::SynthesisStatus status = core::SynthesisStatus::kTimeout;
  /// Result independently validated by dqbf::check_certificate (set for
  /// kRealizable only; kUnrealizable verdicts are engine-proven).
  bool certified = false;
  /// Answered from the tier-1 cache without running an engine.
  bool cache_hit = false;
  /// At least one duplicate submission attached to this job while it was
  /// in flight (every holder of the shared future sees the same value).
  bool coalesced = false;
  /// Produced by a multi-engine race.
  bool raced = false;
  /// Stopped by shutdown or the per-request token before a verdict.
  bool cancelled = false;
  /// Engine that produced the result (race winner; meaningless when no
  /// lane won).
  EngineKind engine = EngineKind::kManthan3;
  /// Engine execution seconds (0 for cache hits; queue wait excluded).
  double solve_seconds = 0.0;
  /// Canonical spec fingerprint of the request.
  dqbf::Fingerprint fingerprint;
  /// Stats of the run that produced the result (the winning lane's for
  /// races; preserved verbatim on cache hits).
  core::SynthesisStats stats;
  /// Which budget limit tripped (set for kOutOfBudget, kNone otherwise).
  util::ResourceBudget::Trip budget_trip = util::ResourceBudget::Trip::kNone;
  /// Worker-caught exception text (set for kInternalError only).
  std::string error;
  /// Non-null iff solved(): the certified functions, importable into any
  /// manager. Shared with the cache — do not mutate through it.
  std::shared_ptr<const ResultCone> functions;

  bool solved() const {
    return status == core::SynthesisStatus::kRealizable && certified;
  }
};

/// solve() convenience: the response plus the functions imported into
/// the caller's manager.
struct ServiceResult {
  ServiceResponse response;
  /// Valid when response.solved(): functions in the caller's manager,
  /// indexed like formula.existentials().
  dqbf::HenkinVector vector;

  bool solved() const { return response.solved(); }
};

/// Aggregate service counters (monotonic since construction).
struct ServiceStats {
  std::size_t requests = 0;        // submit() calls
  std::size_t completed = 0;       // jobs executed on workers
  std::size_t tier1_hits = 0;      // answered from the result cache
  std::size_t tier1_misses = 0;    // cache consulted, no entry
  std::size_t coalesced = 0;       // submissions attached to in-flight jobs
  std::size_t races = 0;           // jobs run in race mode
  std::size_t single_runs = 0;     // jobs run single-engine
  std::size_t cancelled = 0;       // jobs stopped by a token
  std::size_t cache_entries = 0;   // current tier-1 size
  std::size_t cache_evictions = 0;
  std::size_t internal_errors = 0;  // worker-caught exceptions
  std::size_t budget_trips = 0;     // jobs ended kOutOfBudget
  std::size_t persisted_entries = 0;  // tier-1 entries with a cache file
  std::size_t persisted_corrupt = 0;  // cache files skipped at load
};

/// Register the service_* series in the global obs registry (at zero if no
/// request ran yet). Any Service activity registers them implicitly; call
/// this from binaries that export metrics snapshots without necessarily
/// constructing a Service, so scrapers see a stable series set.
void register_service_metrics();

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  /// shutdown() + drain: blocks until every submitted job has returned.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Submit one request; never blocks on solving (cache hits resolve the
  /// future before returning). The formula is copied into the job, so
  /// the caller's copy may be destroyed immediately.
  std::shared_future<ServiceResponse> submit(const dqbf::DqbfFormula& formula,
                                             const SolveOptions& options = {});

  /// Submit + wait + import the functions into `manager`. Blocking; do
  /// not call from inside a service worker (pool deadlock).
  ServiceResult solve(const dqbf::DqbfFormula& formula, aig::Aig& manager,
                      const SolveOptions& options = {});

  /// Flip the service-wide shutdown token: in-flight jobs stop at their
  /// next deadline poll, queued jobs return kTimeout at their first.
  /// Idempotent; does not block (the destructor drains).
  void shutdown();
  bool shutting_down() const { return shutdown_.cancelled(); }

  ServiceStats stats() const;
  std::size_t worker_count() const { return pool_.worker_count(); }

 private:
  struct CacheKey {
    dqbf::Fingerprint fp;
    std::uint32_t mode = 0;  // 0 = policy-admitted, 1 + engine = forced
    bool operator==(const CacheKey& o) const {
      return fp == o.fp && mode == o.mode;
    }
  };
  struct CacheKeyHasher {
    std::size_t operator()(const CacheKey& k) const {
      return dqbf::FingerprintHasher{}(k.fp) ^
             (static_cast<std::size_t>(k.mode) * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct Job;

  ServiceResponse run_job(const std::shared_ptr<Job>& job);
  /// Structured response for a worker-caught exception: the job consumed
  /// a worker but the engines never returned (injected fault, unexpected
  /// throw). Completes coalesced waiters like any other outcome.
  ServiceResponse internal_error_response(const std::shared_ptr<Job>& job,
                                          const char* what);
  void cache_store(const CacheKey& key, const ServiceResponse& response,
                   bool persist);

  // --- crash-durable tier-1 cache (service_persist.cpp) -----------------
  struct PersistedEntry {
    CacheKey key;
    ServiceResponse response;
  };
  static std::string persist_filename(const CacheKey& key);
  static std::string encode_persisted(const CacheKey& key,
                                      const ServiceResponse& response);
  /// Parse one cache file; nullopt on any corruption (bad magic, missing
  /// field, malformed AIGER, root-count mismatch).
  static std::optional<PersistedEntry> decode_persisted(
      const std::string& text);
  /// Constructor-time reload, ordered by filename for determinism.
  void load_persisted_cache();
  // Both called with mutex_ held; file I/O under the lock is accepted —
  // entries are small and stores are rare (one per definitive cold solve).
  void persist_store(const CacheKey& key, const ServiceResponse& response);
  void persist_remove(const CacheKey& key);

  // --- wall-clock budget watchdog ---------------------------------------
  /// One lazily-started thread trips ResourceBudget::Trip::kTime on every
  /// registered budget whose deadline passed. Declared before pool_ so
  /// the workers (which add/remove entries) drain first; the thread is
  /// joined afterwards by ~Watchdog.
  struct Watchdog {
    std::uint32_t poll_ms = 10;
    std::mutex mutex;
    std::condition_variable cv;
    bool stop = false;
    std::uint64_t next_id = 1;
    struct Entry {
      util::ResourceBudget* budget;
      std::chrono::steady_clock::time_point deadline;
    };
    std::unordered_map<std::uint64_t, Entry> active;
    std::thread thread;

    std::uint64_t add(util::ResourceBudget* budget, double wall_seconds);
    void remove(std::uint64_t id);
    void run();
    ~Watchdog();
  };

  ServiceOptions options_;
  util::CancelToken shutdown_;

  mutable std::mutex mutex_;  // guards cache + coalescing maps + stats
  // Tier-1 LRU: most-recent at the front of lru_; map values point into
  // the list.
  struct CacheEntry {
    CacheKey key;
    ServiceResponse response;  // cache_hit/coalesced false; rewritten per hit
  };
  std::list<CacheEntry> lru_;
  std::unordered_map<CacheKey, std::list<CacheEntry>::iterator, CacheKeyHasher>
      cache_;
  std::unordered_map<CacheKey, std::shared_future<ServiceResponse>,
                     CacheKeyHasher>
      inflight_;
  /// Keys whose in-flight job picked up a duplicate submission; consumed
  /// when the job finishes to set ServiceResponse::coalesced.
  std::unordered_set<CacheKey, CacheKeyHasher> coalesced_keys_;
  ServiceStats stats_;
  std::size_t queued_ = 0;  // submitted, not yet started on a worker
  std::size_t persisted_entries_ = 0;  // guarded by mutex_
  std::size_t persisted_corrupt_ = 0;  // guarded by mutex_

  Watchdog watchdog_;  // before pool_: outlives every job
  /// Lane threads of every raced job; the first race starts them. Before
  /// pool_: the jobs race on them, and losing lanes may still be stopping
  /// when pool_ has drained.
  RaceLanes lanes_;
  util::Scheduler pool_;  // last member: drains before the maps die
};

}  // namespace manthan::engine
