// daemon_stream: one client in a closed loop in front of
// engine::drain_queue, the way manthan3d is deployed. The client writes
// one request into the queue directory, calls drain_queue (timed), reads
// the request's result JSON, removes both files and sends the next one.
//
// The stream holds each of the 50 suite specs once as generated plus two
// isomorphic renamings of it (seeded variable permutation with clause and
// literal shuffle), each placed at a seeded later position. Renamings of
// a decided spec are tier-1 cache hits; everything else runs the
// service's admission policy (a race of the three engines when idle).
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dqbf/dqdimacs.hpp"
#include "dqbf/fingerprint.hpp"
#include "engine/daemon.hpp"
#include "engine/service.hpp"
#include "report.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace cnf = manthan::cnf;
namespace dqbf = manthan::dqbf;
namespace engine = manthan::engine;
namespace util = manthan::util;
namespace workloads = manthan::workloads;
using manthan::core::SynthesisStatus;

constexpr double kBudgetSeconds = 3.0;
constexpr std::size_t kRenamingsPerSpec = 2;
// Salt separating the stream's renaming RNG from other uses of the seed.
constexpr std::uint64_t kStreamSalt = 0x73747265616d;

struct Request {
  std::size_t spec = 0;
  bool original = true;
  std::string text;  // DQDIMACS
};

struct Inputs {
  std::vector<workloads::Instance> suite;
  std::vector<Request> stream;
};

template <typename T>
void shuffle(std::vector<T>& xs, util::Rng& rng) {
  for (std::size_t i = xs.size(); i > 1; --i) {
    std::swap(xs[i - 1], xs[rng.next_below(i)]);
  }
}

/// An isomorphic copy of `f`: variables permuted (each keeps its role and
/// carries its dependency set along), clauses and literals shuffled.
dqbf::DqbfFormula rename(const dqbf::DqbfFormula& f, util::Rng& rng) {
  const cnf::Var n = f.matrix().num_vars();
  std::vector<cnf::Var> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  shuffle(perm, rng);
  const auto map = [&](cnf::Var v) { return perm[static_cast<std::size_t>(v)]; };

  dqbf::DqbfFormula r;
  r.matrix().ensure_vars(n);
  std::vector<cnf::Var> universals = f.universals();
  shuffle(universals, rng);
  for (const cnf::Var x : universals) r.add_universal(map(x));
  std::vector<dqbf::Existential> existentials = f.existentials();
  shuffle(existentials, rng);
  for (const dqbf::Existential& e : existentials) {
    std::vector<cnf::Var> deps;
    for (const cnf::Var x : e.deps) deps.push_back(map(x));
    r.add_existential(map(e.var), std::move(deps));
  }
  std::vector<cnf::Clause> clauses = f.matrix().clauses();
  shuffle(clauses, rng);
  for (cnf::Clause& clause : clauses) {
    for (cnf::Lit& lit : clause) lit = cnf::Lit(map(lit.var()), lit.negated());
    shuffle(clause, rng);
    r.matrix().add_clause(std::move(clause));
  }
  return r;
}

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.suite = workloads::standard_suite(workloads::SuiteParams{});
  util::Rng rng(util::derive_seed(seed, kStreamSalt));
  for (std::size_t i = 0; i < in.suite.size(); ++i) {
    in.stream.push_back(
        {i, true, dqbf::to_dqdimacs_string(in.suite[i].formula)});
  }
  for (std::size_t i = 0; i < in.suite.size(); ++i) {
    for (std::size_t c = 0; c < kRenamingsPerSpec; ++c) {
      std::size_t at = 0;
      while (!(in.stream[at].spec == i && in.stream[at].original)) ++at;
      const std::size_t later = at + 1 + rng.next_below(in.stream.size() - at);
      const dqbf::DqbfFormula copy = rename(in.suite[i].formula, rng);
      in.stream.insert(in.stream.begin() + static_cast<std::ptrdiff_t>(later),
                       Request{i, false, dqbf::to_dqdimacs_string(copy)});
    }
  }
  return in;
}

engine::ServiceOptions service_options(const fs::path& dir) {
  engine::ServiceOptions options;
  options.cache_dir = (dir / "cache").string();
  return options;
}

/// Raw value of `"key": <value>` in the daemon's result JSON, with the
/// quotes of a string value removed; empty if the key is absent.
std::string json_field(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  std::size_t end = text.find_first_of(",\n}", begin);
  if (text[begin] == '"') {
    ++begin;
    end = text.find('"', begin);
  }
  return text.substr(begin, end - begin);
}

struct Row {
  const Request* request = nullptr;
  std::string status;
  std::string engine;
  bool certified = false;
  bool cache_hit = false;
  bool error = false;  // malformed, retried, quarantined, internal, missing
  bool wrong = false;
  double latency_s = 0.0;  // span around drain_queue
  double solve_s = 0.0;    // result-JSON "seconds" (the cold run's on hits)
  double parse_us = 0.0;          // traced runs only
  double canonicalize_us = 0.0;   // traced runs only

  bool verdict() const {
    return !wrong && ((status == "realizable" && certified) ||
                      status == "unrealizable");
  }
};

struct Pass {
  std::vector<Row> rows;
  double wall_s = 0.0;
  RegistryState before, after;
  engine::ServiceStats service;
};

Row serve(engine::Service& service, const engine::DaemonOptions& daemon,
          const Request& request, std::size_t index, bool trace) {
  Row row;
  row.request = &request;
  std::ostringstream name;
  name << "r" << std::setw(5) << std::setfill('0') << index << ".dqdimacs";
  const fs::path path = fs::path(daemon.queue_dir) / name.str();
  std::ofstream(path) << request.text;
  if (trace) {
    // The front-end layers, timed from outside on this request's text.
    const double t0 = now_seconds();
    const dqbf::DqbfFormula formula = dqbf::parse_dqdimacs_string(request.text);
    const double t1 = now_seconds();
    const dqbf::CanonicalForm canonical = dqbf::canonicalize(formula);
    row.parse_us = (t1 - t0) * 1e6;
    row.canonicalize_us = (now_seconds() - t1) * 1e6;
    (void)canonical;
  }

  const double t0 = now_seconds();
  const engine::DrainReport report = engine::drain_queue(service, daemon);
  row.latency_s = now_seconds() - t0;

  fs::path result_path = path;
  result_path.replace_extension(".result.json");
  std::ifstream in(result_path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  row.status = json_field(text, "status");
  row.engine = json_field(text, "engine");
  row.certified = json_field(text, "certified") == "true";
  row.cache_hit = json_field(text, "cache_hit") == "true";
  row.solve_s = std::atof(json_field(text, "seconds").c_str());
  if (report.records.size() != 1 || text.empty()) {
    row.error = true;
  } else {
    const engine::RequestRecord& r = report.records.front();
    row.error = r.malformed || r.retried || r.quarantined || r.deferred ||
                r.cancelled || r.internal_error ||
                row.status != engine::status_name(r.status);
  }
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(result_path, ec);
  return row;
}

Pass run_pass(const Inputs& in, const Options& options, std::size_t index,
              bool trace) {
  const fs::path dir =
      fs::path(options.workdir) / ("pass" + std::to_string(index));
  fs::create_directories(dir / "queue");
  Pass pass;
  {
    engine::Service service(service_options(dir));
    engine::DaemonOptions daemon;
    daemon.queue_dir = (dir / "queue").string();
    daemon.time_limit_seconds = kBudgetSeconds;
    pass.before = RegistryState::capture();
    const double start = now_seconds();
    for (std::size_t i = 0; i < in.stream.size(); ++i) {
      pass.rows.push_back(serve(service, daemon, in.stream[i], i, trace));
    }
    pass.wall_s = now_seconds() - start;
    pass.after = RegistryState::capture();
    pass.service = service.stats();
  }
  fs::remove_all(dir);

  // Correctness gate: certified realizables, no False verdict on a True
  // family, and every cache hit agreeing with the cold run of its spec that
  // filled the cache (the original, or a later copy if the original ended
  // undecided; only verdicts are cached).
  std::vector<std::string> cold(in.suite.size());
  for (std::size_t i = 0; i < pass.rows.size(); ++i) {
    Row& row = pass.rows[i];
    const std::size_t spec = row.request->spec;
    const bool false_verdict =
        row.status == "unrealizable" &&
        true_by_construction(in.suite[spec].family);
    if (!row.cache_hit && cold[spec].empty() &&
        (row.status == "realizable" || row.status == "unrealizable")) {
      cold[spec] = row.status;
    }
    row.wrong = (row.status == "realizable" && !row.certified) ||
                false_verdict || (row.cache_hit && row.status != cold[spec]);
    if (row.wrong || row.error) {
      std::cerr << "perfbench: daemon_stream request " << i << " ("
                << in.suite[spec].name << ", "
                << (row.request->original ? "original" : "renaming")
                << ") status " << row.status << ", cache hit " << row.cache_hit
                << ", cold " << cold[spec] << (row.error ? ", error" : "")
                << '\n';
    }
  }
  return pass;
}

/// passes[0] with every request's times replaced by their median across
/// the passes (each pass replays the stream on a fresh service); wall_s
/// becomes the sum of the median latencies.
Pass merge(const std::vector<Pass>& passes) {
  Pass merged = passes.front();
  merged.wall_s = 0.0;
  for (std::size_t j = 0; j < merged.rows.size(); ++j) {
    Row& row = merged.rows[j];
    const auto med = [&](auto field) {
      std::vector<double> xs;
      for (const Pass& pass : passes) xs.push_back(field(pass.rows[j]));
      return median(xs);
    };
    row.latency_s = med([](const Row& r) { return r.latency_s; });
    row.solve_s = med([](const Row& r) { return r.solve_s; });
    row.parse_us = med([](const Row& r) { return r.parse_us; });
    row.canonicalize_us = med([](const Row& r) { return r.canonicalize_us; });
    merged.wall_s += row.latency_s;
  }
  return merged;
}

bool clock_bound(const Row& row) {
  return !row.cache_hit &&
         (row.status == "timeout" || row.solve_s >= kBudgetSeconds);
}

std::size_t seed_flips(const Inputs& in, const Pass& pass) {
  std::vector<std::set<bool>> classes(in.suite.size());
  for (const Row& row : pass.rows) {
    classes[row.request->spec].insert(row.verdict());
  }
  std::size_t flips = 0;
  for (const auto& c : classes) flips += c.size() > 1 ? 1 : 0;
  return flips;
}

std::vector<Sample> samples_of(const Pass& pass) {
  std::vector<Sample> out;
  for (const Row& row : pass.rows) {
    out.push_back({row.latency_s, row.verdict(), !row.cache_hit});
  }
  return out;
}

Metrics end_to_end(const Inputs& in, const Pass& pass) {
  Metrics m = outcome_metrics(samples_of(pass), kBudgetSeconds);
  m["consistent_specs"] = {
      static_cast<double>(in.suite.size() - seed_flips(in, pass)), "count"};
  return m;
}

Metrics per_layer(const Inputs& in, const Pass& pass) {
  std::vector<double> overhead_ms, hit_ms, solve_ms, parse_us, canon_us;
  double busy = 0.0, overrun_max = 0.0;
  std::size_t bound = 0, wrong = 0, errors = 0;
  std::size_t wins_manthan3 = 0, wins_hqs = 0, wins_pedant = 0;
  for (const Row& row : pass.rows) {
    busy += row.latency_s;
    overhead_ms.push_back(
        (row.latency_s - (row.cache_hit ? 0.0 : row.solve_s)) * 1e3);
    parse_us.push_back(row.parse_us);
    canon_us.push_back(row.canonicalize_us);
    if (row.cache_hit) {
      hit_ms.push_back(row.latency_s * 1e3);
    } else {
      solve_ms.push_back(row.solve_s * 1e3);
      if (row.verdict()) {
        wins_manthan3 += row.engine == "Manthan3" ? 1 : 0;
        wins_hqs += row.engine == "HqsLite" ? 1 : 0;
        wins_pedant += row.engine == "PedantLite" ? 1 : 0;
      }
    }
    if (clock_bound(row)) {
      ++bound;
      overrun_max =
          std::max(overrun_max, (row.solve_s - kBudgetSeconds) * 1e3);
    }
    wrong += row.wrong ? 1 : 0;
    errors += row.error ? 1 : 0;
  }
  const auto delta = [&](const char* name) {
    return static_cast<double>(pass.after.counter_delta(pass.before, name));
  };
  const auto synth =
      pass.after.histogram_delta(pass.before, "core_synthesize_seconds");
  const engine::ServiceStats& st = pass.service;
  const double n = static_cast<double>(pass.rows.size());
  Metrics m = timing_metrics(samples_of(pass));
  m["core.synthesize.calls"] = {static_cast<double>(synth.first), "count"};
  m["core.synthesize.busy_s"] = {synth.second, "s"};
  m["core.counterexamples"] = {delta("core_counterexamples_total"), "count"};
  m["core.repairs"] = {delta("core_repairs_total"), "count"};
  m["core.maxsat_calls"] = {delta("core_maxsat_calls_total"), "count"};
  m["core.refit_rounds"] = {delta("core_refit_rounds_total"), "count"};
  m["core.samples"] = {delta("core_samples_total"), "count"};
  m["core.seed_flips"] = {static_cast<double>(seed_flips(in, pass)), "count"};
  m["sat.decisions"] = {delta("sat_decisions_total"), "count"};
  m["sat.propagations"] = {delta("sat_propagations_total"), "count"};
  m["sat.conflicts"] = {delta("sat_conflicts_total"), "count"};
  m["sat.solvers"] = {delta("sat_solvers_total"), "count"};
  m["dqbf.dqdimacs.parse_us.p50"] = {median(parse_us), "us"};
  m["dqbf.fingerprint.canonicalize_us.p50"] = {median(canon_us), "us"};
  m["engine.daemon.calls"] = {n, "count"};
  m["engine.daemon.busy_s"] = {busy, "s"};
  m["engine.daemon.overhead_ms.p50"] = {median(overhead_ms), "ms"};
  m["engine.daemon.hit_ms.p50"] = {quantile(hit_ms, 0.5), "ms"};
  m["engine.daemon.hit_ms.p80"] = {quantile(hit_ms, 0.8), "ms"};
  m["engine.service.tier1_hits"] = {static_cast<double>(st.tier1_hits),
                                    "count"};
  m["engine.service.tier1_misses"] = {static_cast<double>(st.tier1_misses),
                                      "count"};
  m["engine.service.races"] = {static_cast<double>(st.races), "count"};
  m["engine.service.single_runs"] = {static_cast<double>(st.single_runs),
                                     "count"};
  m["engine.service.persisted_entries"] = {
      static_cast<double>(st.persisted_entries), "count"};
  m["engine.service.solve_ms.p50"] = {quantile(solve_ms, 0.5), "ms"};
  m["engine.service.solve_ms.p80"] = {quantile(solve_ms, 0.8), "ms"};
  m["engine.race.wins.manthan3"] = {static_cast<double>(wins_manthan3),
                                    "count"};
  m["engine.race.wins.hqs"] = {static_cast<double>(wins_hqs), "count"};
  m["engine.race.wins.pedant"] = {static_cast<double>(wins_pedant), "count"};
  m["clock.bound"] = {static_cast<double>(bound), "count"};
  m["clock.overrun_ms.max"] = {overrun_max, "ms"};
  m["check.wrong_verdicts"] = {static_cast<double>(wrong), "count"};
  m["check.error_share"] = {static_cast<double>(errors) / n, "share"};
  return m;
}

void print_rows(const Pass& pass) {
  for (std::size_t i = 0; i < pass.rows.size(); ++i) {
    const Row& row = pass.rows[i];
    std::ostringstream os;
    os.precision(9);
    os << "{\"row\": \"daemon_stream\", \"index\": " << i
       << ", \"spec\": " << row.request->spec << ", \"copy\": \""
       << (row.request->original ? "original" : "renaming")
       << "\", \"status\": \"" << json_escape(row.status)
       << "\", \"engine\": \"" << json_escape(row.engine)
       << "\", \"cache_hit\": " << (row.cache_hit ? "true" : "false")
       << ", \"latency_s\": " << row.latency_s
       << ", \"solve_s\": " << row.solve_s << "}";
    std::cout << os.str() << '\n';
  }
}

}  // namespace

Outcome run_daemon_stream(const Options& options) {
  const Inputs inputs = make_inputs(options.seed);
  double untraced_wall = 0.0;
  std::size_t index = 0;
  const std::vector<Pass> passes = run_passes<Pass>(
      options,
      [&](bool trace) { return run_pass(inputs, options, index++, trace); },
      untraced_wall);
  Outcome outcome;
  std::vector<double> walls;
  for (const Pass& pass : passes) {
    walls.push_back(pass.wall_s);
    for (const Row& row : pass.rows) {
      ++outcome.attempted;
      if (row.wrong || row.error) ++outcome.failed;
    }
  }
  const Pass merged = merge(passes);
  print_rows(merged);
  outcome.correct = outcome.failed == 0;
  outcome.metrics = options.trace ? per_layer(inputs, merged)
                                  : end_to_end(inputs, merged);
  // Set-up: generating the stream, then bringing up a service over a
  // fresh persisted cache.
  const fs::path dir = fs::path(options.workdir) / "setup";
  const double generate_s =
      setup_seconds([&] { make_inputs(options.seed); });
  const double setup_s = setup_seconds([&] {
    make_inputs(options.seed);
    { engine::Service service(service_options(dir)); }
    fs::remove_all(dir);
  });
  finish(options, setup_s, generate_s, walls, untraced_wall, outcome);
  return outcome;
}

}  // namespace perfbench
