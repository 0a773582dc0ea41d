// Directory-queue front end for the synthesis service.
//
// The deployment shape behind examples/manthan3d.cpp: producers drop
// `*.dqdimacs` files into a queue directory; drain_queue() walks the
// directory in lexicographic order, routes each request through an
// engine::Service, and writes `<name>.result.json` next to the request —
// status, engine, cache/race provenance, timing, the canonical spec
// fingerprint, engine counters, and (for solved requests) the certified
// Henkin functions embedded as a BLIF netlist. A request whose result
// file already exists is skipped, so repeated drains (and daemon
// restarts) are idempotent.
//
// Shutdown without leaked work: the stop token is checked between
// requests and composed into each request's cancellation, so a SIGINT
// mid-solve stops the engine at its next deadline poll; the cancelled
// request writes no result file and is re-run by the next drain. Result
// files are written to a temporary name and renamed into place, so a
// crash mid-write never leaves a half-result that a later drain would
// mistake for a finished one.
//
// Malformed requests (unparsable DQDIMACS) are counted as failed and get
// an error-result file — a poisoned request must not wedge the queue by
// being retried forever.
//
// Crash/fault hardening: before a request is executed, a write-ahead
// intent record `journal/<name>.journal` is written with the attempt
// count. A transient failure (worker internal error, result-write
// failure, injected daemon I/O fault) leaves the journal in place with an
// exponential-backoff-with-jitter retry time, so later drains re-run the
// request after the backoff; once max_attempts executions have started
// without producing a result — including crash-loops, where the journal
// survives the process — the request file is moved to `failed/<name>`
// with an `<name>.error.json` beside it and never retried again
// (quarantine). Graceful cancellation restores the previous attempt
// count: an interrupt is not a failure. Successful results remove the
// journal, so a daemon killed between journal write and result write
// re-runs the interrupted request exactly once.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/manthan3.hpp"
#include "engine/service.hpp"
#include "util/cancel.hpp"

namespace manthan::engine {

/// Drain settings. Whether requests consult the tier-1 cache is the
/// service's ServiceOptions::result_cache.
struct DaemonOptions {
  /// Directory holding `*.dqdimacs` request files.
  std::string queue_dir;
  /// Per-request budget in seconds; negative = the service default.
  double time_limit_seconds = -1.0;
  /// Stop after this many processed requests (0 = drain everything).
  std::size_t max_requests = 0;
  /// Checked between requests and composed into each request's
  /// cancellation; null = only service shutdown can interrupt.
  const util::CancelToken* stop = nullptr;

  /// Maximum executions per request before it is quarantined to
  /// `failed/` (counted across daemon restarts via the journal).
  std::size_t max_attempts = 3;
  /// Exponential retry backoff: attempt k waits about
  /// retry_base_ms * 2^(k-1), capped at 60 s, scaled by a
  /// deterministic per-(request, attempt) jitter in [0.5, 1.0].
  double retry_base_ms = 200.0;
};

/// Per-request drain outcome.
struct RequestRecord {
  std::string path;         // request file
  std::string result_path;  // result JSON (empty if none was written)
  core::SynthesisStatus status = core::SynthesisStatus::kTimeout;
  bool certified = false;
  bool cache_hit = false;
  /// Request file could not be parsed.
  bool malformed = false;
  /// Stopped by the stop token / service shutdown before a verdict.
  bool cancelled = false;
  /// Transient failure this drain; journaled for a backed-off re-run.
  bool retried = false;
  /// Moved to failed/ after exhausting max_attempts.
  bool quarantined = false;
  /// Journaled retry time still in the future; skipped this drain.
  bool deferred = false;
  /// The service reported kInternalError for this execution.
  bool internal_error = false;
  /// Executions started (journal count including this drain's, if any).
  std::size_t attempts = 0;
  double seconds = 0.0;
};

struct DrainReport {
  std::size_t processed = 0;  // requests routed through the service
  std::size_t solved = 0;     // certified realizable
  std::size_t cache_hits = 0;
  std::size_t failed = 0;   // malformed requests
  std::size_t skipped = 0;  // result file already present
  std::size_t retried = 0;      // transient failures journaled for re-run
  std::size_t quarantined = 0;  // requests moved to failed/
  std::size_t deferred = 0;     // backoff not yet elapsed
  /// The drain ended early (stop token, shutdown, or max_requests).
  bool stopped = false;
  std::vector<RequestRecord> records;
};

/// Drain pending requests from options.queue_dir through `service`.
/// Sequential (one request at a time — the service's admission policy
/// turns idle cores into engine races); safe to call repeatedly.
DrainReport drain_queue(Service& service, const DaemonOptions& options);

}  // namespace manthan::engine
