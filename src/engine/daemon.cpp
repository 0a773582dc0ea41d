#include "engine/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "aig/aig_io.hpp"
#include "dqbf/dqdimacs.hpp"
#include "dqbf/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace manthan::engine {

namespace {

namespace fs = std::filesystem;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string result_path_for(const fs::path& request) {
  fs::path p = request;
  p.replace_extension(".result.json");
  return p.string();
}

// Result files are written with obs::write_file_atomic (temp file +
// rename) so a drain interrupted mid-write leaves no half-result behind.
using obs::write_file_atomic;

std::string blif_certificate(const dqbf::DqbfFormula& formula,
                             const ServiceResponse& response) {
  aig::Aig manager;
  const dqbf::HenkinVector vector = response.functions->import_into(manager);
  std::vector<aig::NamedFunction> named;
  named.reserve(vector.functions.size());
  for (std::size_t i = 0; i < vector.functions.size(); ++i) {
    named.push_back(
        {"y" + std::to_string(formula.existentials()[i].var + 1),
         vector.functions[i]});
  }
  std::ostringstream out;
  aig::write_blif(out, manager, "henkin_functions", named);
  return out.str();
}

std::string result_json(const std::string& request_name,
                        const dqbf::DqbfFormula& formula,
                        const ServiceResponse& response) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"request\": \"" << json_escape(request_name) << "\",\n";
  out << "  \"status\": \"" << status_name(response.status) << "\",\n";
  out << "  \"engine\": \"" << engine_name(response.engine) << "\",\n";
  out << "  \"certified\": " << (response.certified ? "true" : "false")
      << ",\n";
  out << "  \"cache_hit\": " << (response.cache_hit ? "true" : "false")
      << ",\n";
  out << "  \"raced\": " << (response.raced ? "true" : "false") << ",\n";
  out << "  \"seconds\": " << response.solve_seconds << ",\n";
  out << "  \"fingerprint\": \"" << dqbf::to_string(response.fingerprint)
      << "\",\n";
  out << "  \"stats\": {\n";
  for (const core::StatField& f : core::kStatFields) {
    if (&f != &core::kStatFields[0]) out << ",\n";
    out << "    \"" << f.name << "\": " << core::stat_text(response.stats, f);
  }
  out << "\n  }";
  if (response.solved() && response.functions != nullptr) {
    out << ",\n  \"functions_blif\": \""
        << json_escape(blif_certificate(formula, response)) << "\"";
  }
  out << "\n}\n";
  return out.str();
}

std::string error_json(const std::string& request_name,
                       const std::string& message) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"request\": \"" << json_escape(request_name) << "\",\n";
  out << "  \"status\": \"error\",\n";
  out << "  \"error\": \"" << json_escape(message) << "\"\n";
  out << "}\n";
  return out.str();
}

bool stop_requested(const Service& service, const DaemonOptions& options) {
  return service.shutting_down() ||
         (options.stop != nullptr && options.stop->cancelled());
}

/// Write-ahead intent record for one request. Plain key-value text; a
/// missing or corrupt journal reads as "no attempts yet" — bookkeeping
/// corruption must never wedge the queue.
struct Journal {
  std::uint64_t attempts = 0;       // executions started
  std::uint64_t next_retry_ms = 0;  // unix ms; 0 = eligible now
  std::string error;                // last transient failure, if any
};

std::uint64_t now_unix_ms() {
  // system_clock, not steady_clock: retry times must survive restarts.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

fs::path journal_path_for(const DaemonOptions& options,
                          const std::string& name) {
  return fs::path(options.queue_dir) / "journal" / (name + ".journal");
}

Journal read_journal(const fs::path& path) {
  Journal journal;
  std::ifstream in(path);
  if (!in) return journal;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    try {
      if (key == "attempts") {
        journal.attempts = std::stoull(value);
      } else if (key == "next_retry_ms") {
        journal.next_retry_ms = std::stoull(value);
      } else if (key == "error") {
        journal.error = value;
      }
    } catch (const std::exception&) {
      return Journal{};  // corrupt: start the request's count over
    }
  }
  return journal;
}

bool write_journal(const fs::path& path, const Journal& journal) {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) return false;
  std::ostringstream out;
  out << "attempts " << journal.attempts << '\n';
  out << "next_retry_ms " << journal.next_retry_ms << '\n';
  if (!journal.error.empty()) out << "error " << journal.error << '\n';
  return write_file_atomic(path.string(), out.str());
}

void remove_journal(const fs::path& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

/// Deterministic per-(request, attempt) jitter in [0.5, 1.0): retries
/// de-synchronize across requests without wall-clock randomness, and a
/// replayed drain computes identical retry times.
double retry_jitter(const std::string& name, std::uint64_t attempt) {
  const std::uint64_t h = util::derive_seed(
      0x6a6f75726e616cULL, std::hash<std::string>{}(name), attempt);
  return 0.5 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
}

/// Cap of the exponential retry backoff, before jitter.
constexpr double kRetryMaxMs = 60000.0;

double backoff_ms(const DaemonOptions& options, const std::string& name,
                  std::uint64_t attempt) {
  double base = options.retry_base_ms;
  for (std::uint64_t i = 1; i < attempt && base < kRetryMaxMs; ++i) {
    base *= 2.0;
  }
  return std::min(base, kRetryMaxMs) * retry_jitter(name, attempt);
}

/// Move the request to failed/ with an error record; the request is
/// never executed again.
void quarantine_request(const DaemonOptions& options, const fs::path& request,
                        const std::string& name, std::uint64_t attempts,
                        const std::string& message) {
  std::error_code ec;
  const fs::path failed_dir = fs::path(options.queue_dir) / "failed";
  fs::create_directories(failed_dir, ec);
  if (!ec) {
    fs::rename(request, failed_dir / name, ec);
    std::ostringstream out;
    out << "{\n";
    out << "  \"request\": \"" << json_escape(name) << "\",\n";
    out << "  \"status\": \"quarantined\",\n";
    out << "  \"attempts\": " << attempts << ",\n";
    out << "  \"error\": \"" << json_escape(message) << "\"\n";
    out << "}\n";
    write_file_atomic((failed_dir / (name + ".error.json")).string(),
                      out.str());
  }
  remove_journal(journal_path_for(options, name));
}

}  // namespace

DrainReport drain_queue(Service& service, const DaemonOptions& options) {
  obs::Span drain_span("daemon.drain", "service");
  DrainReport report;

  std::vector<fs::path> pending;
  {
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(options.queue_dir, ec)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != ".dqdimacs") continue;
      pending.push_back(entry.path());
    }
    if (ec) return report;  // unreadable queue: nothing to do
  }
  std::sort(pending.begin(), pending.end());

  for (const fs::path& request : pending) {
    if (stop_requested(service, options)) {
      report.stopped = true;
      break;
    }
    if (options.max_requests != 0 &&
        report.processed + report.failed >= options.max_requests) {
      report.stopped = true;
      break;
    }
    const std::string result_path = result_path_for(request);
    const std::string name = request.filename().string();
    const fs::path journal_path = journal_path_for(options, name);
    if (fs::exists(result_path)) {
      // Finished in a previous life; a leftover journal (crash between
      // result write and journal removal) is stale bookkeeping.
      remove_journal(journal_path);
      ++report.skipped;
      continue;
    }

    RequestRecord record;
    record.path = request.string();

    const Journal journal = read_journal(journal_path);
    if (journal.next_retry_ms != 0 && now_unix_ms() < journal.next_retry_ms) {
      // Backoff not elapsed: leave for a later drain, keep draining — one
      // throttled request must not delay the rest of the queue.
      record.deferred = true;
      record.attempts = static_cast<std::size_t>(journal.attempts);
      ++report.deferred;
      report.records.push_back(std::move(record));
      continue;
    }
    if (journal.attempts >= options.max_attempts) {
      // Covers crash-loops: the journal counts *started* executions, so a
      // request that keeps killing the daemon exhausts its attempts
      // without ever reporting a failure.
      quarantine_request(options, request, name, journal.attempts,
                         journal.error.empty() ? "attempts exhausted"
                                               : journal.error);
      record.quarantined = true;
      record.attempts = static_cast<std::size_t>(journal.attempts);
      ++report.quarantined;
      obs::Registry::global()
          .counter("service_requests_quarantined_total")
          .inc();
      report.records.push_back(std::move(record));
      continue;
    }
    const std::uint64_t attempts_prev = journal.attempts;
    const std::uint64_t attempt = attempts_prev + 1;
    record.attempts = static_cast<std::size_t>(attempt);
    // Write-ahead intent: if we die mid-request, the next drain sees this
    // execution in the count and re-runs (or quarantines) it.
    Journal intent;
    intent.attempts = attempt;
    intent.error = journal.error;
    write_journal(journal_path, intent);

    // A transient failure: journal a backed-off retry, or quarantine once
    // the attempt budget is spent.
    const auto transient_failure = [&](const std::string& message) {
      record.internal_error = true;
      if (attempt >= options.max_attempts) {
        quarantine_request(options, request, name, attempt, message);
        record.quarantined = true;
        ++report.quarantined;
        obs::Registry::global()
            .counter("service_requests_quarantined_total")
            .inc();
        return;
      }
      Journal next;
      next.attempts = attempt;
      next.next_retry_ms = now_unix_ms() + static_cast<std::uint64_t>(
                                               backoff_ms(options, name,
                                                          attempt));
      next.error = message;
      write_journal(journal_path, next);
      record.retried = true;
      ++report.retried;
      obs::Registry::global().counter("service_requests_retried_total").inc();
    };

    // Injected read fault: the request file is unreadable *this drain*
    // (EIO, stale NFS handle, ...) — transient, not malformed.
    if (util::fault::io_should_fail(util::fault::Site::kDaemonRead)) {
      transient_failure("injected daemon.read fault");
      report.records.push_back(std::move(record));
      continue;
    }

    dqbf::DqbfFormula formula;
    bool parsed = false;
    try {
      std::ifstream in(request);
      if (in) {
        formula = dqbf::parse_dqdimacs(in);
        parsed = true;
      }
    } catch (const std::exception&) {
      parsed = false;
    }
    if (!parsed) {
      record.malformed = true;
      ++report.failed;
      if (write_file_atomic(result_path,
                            error_json(name, "unparsable DQDIMACS"))) {
        record.result_path = result_path;
      }
      remove_journal(journal_path);
      report.records.push_back(std::move(record));
      continue;
    }

    util::Timer timer;
    SolveOptions solve_options;
    solve_options.time_limit_seconds = options.time_limit_seconds;
    solve_options.cancel = options.stop;
    const ServiceResponse response =
        service.submit(formula, solve_options).get();
    record.seconds = timer.seconds();
    record.status = response.status;
    record.certified = response.certified;
    record.cache_hit = response.cache_hit;
    record.cancelled = response.cancelled;

    if (response.cancelled) {
      // Interrupted, not answered: leave no result file so the next
      // drain re-runs the request, and stop draining. The interrupted
      // execution does not count against the attempt budget.
      if (attempts_prev == 0) {
        remove_journal(journal_path);
      } else {
        Journal restore = journal;
        restore.next_retry_ms = 0;
        write_journal(journal_path, restore);
      }
      report.records.push_back(std::move(record));
      report.stopped = true;
      break;
    }

    if (response.status == core::SynthesisStatus::kInternalError) {
      // The worker caught an exception for this request only; the
      // service (and the rest of the drain) is intact.
      transient_failure(response.error.empty() ? "internal error"
                                               : response.error);
      report.records.push_back(std::move(record));
      continue;
    }

    ++report.processed;
    if (response.solved()) ++report.solved;
    if (response.cache_hit) ++report.cache_hits;
    // Any other status — including kOutOfBudget — is a final answer and
    // gets a result file; budget trips are never retried.
    const bool write_failed =
        util::fault::io_should_fail(util::fault::Site::kDaemonWrite) ||
        !write_file_atomic(result_path,
                           result_json(name, formula, response));
    if (write_failed) {
      // The verdict exists but is not durable: without a result file the
      // next drain would re-run the request, so treat it as transient.
      --report.processed;
      if (response.solved()) --report.solved;
      if (response.cache_hit) --report.cache_hits;
      transient_failure("result write failed");
      report.records.push_back(std::move(record));
      continue;
    }
    record.result_path = result_path;
    remove_journal(journal_path);
    report.records.push_back(std::move(record));
  }
  return report;
}

}  // namespace manthan::engine
