// Deterministic fault injection for robustness testing.
//
// A process-global registry of *fault rules* attached to named sites that
// the production code polls at its natural hazard points: allocation
// growth in the SAT clause arena / SampleMatrix / AIG node table, service
// job execution, and daemon file I/O. A rule fires an injected fault —
// allocation failure (std::bad_alloc), I/O error, a bounded stall, or a
// forced cancellation — at poll indices chosen by a seed-driven schedule,
// so a chaos run is exactly reproducible from its spec string: the poll
// counters are per-site and advance identically on every run of the same
// workload, which makes outcomes schedule-deterministic.
//
// The injector is compiled in always, with the PR-8 span discipline for
// the idle path: when no schedule is installed, poll() is one relaxed
// atomic load and a predictable branch. Enable programmatically with
// install() (which resets the poll counters, so installing right before a
// run replays its schedule), or for a whole process via the MANTHAN_FAULTS
// environment variable (read once, on the first poll).
//
// Spec grammar (semicolon-separated entries):
//   spec  := entry (';' entry)*
//   entry := "seed=" N | rule
//   rule  := site ':' kind (':' key '=' value)*
//   site  := sat.arena.grow | sample_matrix.grow | aig.node.alloc |
//            service.job | daemon.read | daemon.write
//   kind  := alloc | io | stall | cancel
//   keys  := after (first eligible 1-based poll index, default 1)
//            every (also fire each Nth poll after `after`; 0 = once)
//            limit (max fires, 0 = unlimited, default 1)
//            p     (probability per eligible poll, seeded coin, default 1)
//            ms    (stall duration in milliseconds, default 10)
//
// Example: "seed=7;sat.arena.grow:alloc:after=3;daemon.write:io:limit=2"
#pragma once

#include <atomic>
#include <cstdint>
#include <new>
#include <optional>
#include <string>
#include <vector>

namespace manthan::util::fault {

enum class Site : std::uint8_t {
  kSatArenaGrow,      // sat::Solver clause-arena capacity growth
  kSampleMatrixGrow,  // cnf::SampleMatrix column growth
  kAigNodeAlloc,      // aig::Aig node-table / strash growth
  kServiceJob,        // engine::Service worker at job start
  kDaemonRead,        // daemon request-file read
  kDaemonWrite,       // daemon result-file write
  kCount
};

enum class Kind : std::uint8_t {
  kNone,    // no fault fired at this poll
  kAlloc,   // injected allocation failure (helpers throw std::bad_alloc)
  kIo,      // injected I/O failure (callers fail the read/write)
  kStall,   // bounded sleep, applied inside poll() itself
  kCancel,  // forced cooperative cancellation (callers stop early)
};

const char* site_name(Site site);
const char* kind_name(Kind kind);
std::optional<Site> site_from_name(const std::string& name);

struct Rule {
  Site site = Site::kCount;
  Kind kind = Kind::kNone;
  std::uint64_t after = 1;    // first eligible poll index (1-based)
  std::uint64_t every = 0;    // 0 = fire only at `after`
  std::uint64_t limit = 1;    // max fires; 0 = unlimited
  double probability = 1.0;   // seeded coin at each eligible poll
  std::uint32_t stall_ms = 10;
};

struct Schedule {
  std::uint64_t seed = 1;
  std::vector<Rule> rules;
};

/// Parse a spec string (grammar above). Throws std::invalid_argument on
/// unknown sites/kinds/keys or malformed numbers.
Schedule parse_schedule(const std::string& spec);

/// Install a schedule process-wide, resetting all poll and fire counters.
/// An empty rule list (or empty spec) is equivalent to clear().
void install(const Schedule& schedule);
void install(const std::string& spec);

/// Remove any installed schedule; poll() returns to the idle fast path.
void clear();

/// True when a non-empty schedule is installed.
bool active();

/// The spec string most recently passed to install(), or "" — used by
/// callers that want install-if-changed semantics.
std::string active_spec();

struct SiteStats {
  std::uint64_t polls = 0;
  std::uint64_t fires = 0;
};
SiteStats stats(Site site);

/// Total injected faults since the last install().
std::uint64_t total_fires();

namespace detail {
// -1 = env not consulted yet, 0 = idle, 1 = schedule installed.
extern std::atomic<int> g_state;
Kind poll_slow(Site site);
}  // namespace detail

/// Poll a fault site. Idle cost: one relaxed atomic load + branch. When a
/// schedule is installed, advances the site's poll counter and fires the
/// first matching eligible rule. A kStall fire sleeps inside this call
/// and then reports kStall; other kinds are returned for the caller to
/// act on.
inline Kind poll(Site site) {
  if (detail::g_state.load(std::memory_order_relaxed) == 0) {
    return Kind::kNone;
  }
  return detail::poll_slow(site);
}

/// Allocation-site helper: poll `site` and throw std::bad_alloc when an
/// alloc fault fires (stalls are absorbed; io/cancel are meaningless at
/// allocation sites and ignored).
inline void on_alloc_site(Site site) {
  if (poll(site) == Kind::kAlloc) {
    throw std::bad_alloc();
  }
}

/// I/O-site helper: true when the caller should fail this read/write.
inline bool io_should_fail(Site site) { return poll(site) == Kind::kIo; }

}  // namespace manthan::util::fault
