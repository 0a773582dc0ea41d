#include "util/fault.hpp"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace manthan::util::fault {

namespace {

constexpr std::size_t kNumSites = static_cast<std::size_t>(Site::kCount);

constexpr const char* kSiteNames[kNumSites] = {
    "sat.arena.grow", "sample_matrix.grow", "aig.node.alloc",
    "service.job",    "daemon.read",        "daemon.write",
};

constexpr const char* kKindNames[] = {"none", "alloc", "io", "stall",
                                      "cancel"};

// All mutable registry state behind one mutex. poll_slow() only runs when
// a schedule is installed (or on the very first poll, to consult the
// environment), so the lock is never on the idle path. The stall sleep
// happens outside the lock.
struct Registry {
  std::mutex mutex;
  Schedule schedule;
  std::string spec;
  std::uint64_t polls[kNumSites] = {};
  std::uint64_t fires[kNumSites] = {};
  std::vector<std::uint64_t> rule_fires;  // parallel to schedule.rules
  std::uint64_t total_fires = 0;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during shutdown
  return *r;
}

std::uint64_t parse_u64(const std::string& text, const std::string& where) {
  std::size_t pos = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != text.size() || text.empty()) {
    throw std::invalid_argument("fault spec: bad number '" + text + "' in " +
                                where);
  }
  return value;
}

double parse_prob(const std::string& text) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != text.size() || text.empty() || value < 0.0 || value > 1.0) {
    throw std::invalid_argument("fault spec: bad probability '" + text + "'");
  }
  return value;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

// Deterministic per-(seed, site, poll-index) coin for probabilistic rules.
bool coin(std::uint64_t seed, Site site, std::uint64_t index, double p) {
  if (p >= 1.0) return true;
  if (p <= 0.0) return false;
  std::uint64_t h = splitmix64(seed ^ (static_cast<std::uint64_t>(site) << 32)
                               ^ index);
  return (h >> 11) * 0x1.0p-53 < p;
}

}  // namespace

const char* site_name(Site site) {
  auto index = static_cast<std::size_t>(site);
  return index < kNumSites ? kSiteNames[index] : "invalid";
}

const char* kind_name(Kind kind) {
  auto index = static_cast<std::size_t>(kind);
  return index < sizeof(kKindNames) / sizeof(kKindNames[0])
             ? kKindNames[index]
             : "invalid";
}

std::optional<Site> site_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kNumSites; ++i) {
    if (name == kSiteNames[i]) return static_cast<Site>(i);
  }
  return std::nullopt;
}

Schedule parse_schedule(const std::string& spec) {
  Schedule schedule;
  for (const std::string& entry : split(spec, ';')) {
    if (entry.empty()) continue;
    if (entry.rfind("seed=", 0) == 0) {
      schedule.seed = parse_u64(entry.substr(5), "seed");
      continue;
    }
    std::vector<std::string> fields = split(entry, ':');
    if (fields.size() < 2) {
      throw std::invalid_argument("fault spec: entry '" + entry +
                                  "' needs site:kind");
    }
    Rule rule;
    std::optional<Site> site = site_from_name(fields[0]);
    if (!site) {
      throw std::invalid_argument("fault spec: unknown site '" + fields[0] +
                                  "'");
    }
    rule.site = *site;
    if (fields[1] == "alloc") {
      rule.kind = Kind::kAlloc;
    } else if (fields[1] == "io") {
      rule.kind = Kind::kIo;
    } else if (fields[1] == "stall") {
      rule.kind = Kind::kStall;
    } else if (fields[1] == "cancel") {
      rule.kind = Kind::kCancel;
    } else {
      throw std::invalid_argument("fault spec: unknown kind '" + fields[1] +
                                  "'");
    }
    for (std::size_t i = 2; i < fields.size(); ++i) {
      std::size_t eq = fields[i].find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("fault spec: expected key=value, got '" +
                                    fields[i] + "'");
      }
      std::string key = fields[i].substr(0, eq);
      std::string value = fields[i].substr(eq + 1);
      if (key == "after") {
        rule.after = parse_u64(value, entry);
        if (rule.after == 0) {
          throw std::invalid_argument("fault spec: after is 1-based");
        }
      } else if (key == "every") {
        rule.every = parse_u64(value, entry);
      } else if (key == "limit") {
        rule.limit = parse_u64(value, entry);
      } else if (key == "p") {
        rule.probability = parse_prob(value);
      } else if (key == "ms") {
        rule.stall_ms = static_cast<std::uint32_t>(parse_u64(value, entry));
      } else {
        throw std::invalid_argument("fault spec: unknown key '" + key + "'");
      }
    }
    schedule.rules.push_back(rule);
  }
  return schedule;
}

namespace detail {

std::atomic<int> g_state{-1};

namespace {

// First touch of the registry: consult MANTHAN_FAULTS once. A parse error
// here must not take the process down — the variable is ignored. Caller
// holds r.mutex.
int resolve_env_locked(Registry& r) {
  int state = g_state.load(std::memory_order_relaxed);
  if (state != -1) return state;
  const char* env = std::getenv("MANTHAN_FAULTS");
  if (env != nullptr && *env != '\0') {
    try {
      r.schedule = parse_schedule(env);
      r.spec = env;
    } catch (const std::invalid_argument&) {
      r.schedule = Schedule{};
      r.spec.clear();
    }
  }
  r.rule_fires.assign(r.schedule.rules.size(), 0);
  state = r.schedule.rules.empty() ? 0 : 1;
  g_state.store(state, std::memory_order_relaxed);
  return state;
}

}  // namespace

Kind poll_slow(Site site) {
  Registry& r = registry();
  std::uint32_t stall_ms = 0;
  Kind fired = Kind::kNone;
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    if (resolve_env_locked(r) == 0) return Kind::kNone;

    std::size_t site_index = static_cast<std::size_t>(site);
    std::uint64_t index = ++r.polls[site_index];  // 1-based
    for (std::size_t i = 0; i < r.schedule.rules.size(); ++i) {
      const Rule& rule = r.schedule.rules[i];
      if (rule.site != site) continue;
      if (index < rule.after) continue;
      if (rule.every == 0 ? index != rule.after
                          : (index - rule.after) % rule.every != 0) {
        continue;
      }
      if (rule.limit != 0 && r.rule_fires[i] >= rule.limit) continue;
      if (!coin(r.schedule.seed, site, index, rule.probability)) continue;
      ++r.rule_fires[i];
      ++r.fires[site_index];
      ++r.total_fires;
      fired = rule.kind;
      if (fired == Kind::kStall) stall_ms = rule.stall_ms;
      break;  // first matching rule wins at each poll
    }
  }
  if (fired == Kind::kStall && stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
  }
  return fired;
}

}  // namespace detail

void install(const Schedule& schedule) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.schedule = schedule;
  r.spec.clear();
  r.rule_fires.assign(schedule.rules.size(), 0);
  for (std::size_t i = 0; i < kNumSites; ++i) {
    r.polls[i] = 0;
    r.fires[i] = 0;
  }
  r.total_fires = 0;
  detail::g_state.store(schedule.rules.empty() ? 0 : 1,
                        std::memory_order_relaxed);
}

void install(const std::string& spec) {
  Schedule schedule = parse_schedule(spec);  // throws before mutating state
  install(schedule);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.spec = spec;
}

void clear() { install(Schedule{}); }

bool active() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return detail::resolve_env_locked(r) == 1;
}

std::string active_spec() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.spec;
}

SiteStats stats(Site site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::size_t index = static_cast<std::size_t>(site);
  SiteStats out;
  if (index < kNumSites) {
    out.polls = r.polls[index];
    out.fires = r.fires[index];
  }
  return out;
}

std::uint64_t total_fires() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  return r.total_fires;
}

}  // namespace manthan::util::fault
