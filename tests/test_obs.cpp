// Observability subsystem: metrics registry semantics, concurrent
// registry/tracing use (the TSan job runs this binary), Chrome-trace JSON
// well-formedness and span nesting, and the contract that telemetry never
// perturbs the engine's deterministic seed streams.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "aig/aig.hpp"
#include "core/manthan3.hpp"
#include "obs/memory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"
#include "workloads/workloads.hpp"

namespace manthan::obs {
namespace {

// ---- minimal JSON reader -------------------------------------------------
// Just enough to parse what write_trace_json and Registry::to_json emit:
// objects, arrays, strings (with the escapes json_escape produces),
// numbers, and literals. Failing to parse is a test failure by itself.
struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json& at(const std::string& key) const {
    static const Json missing;
    const auto it = fields.find(key);
    return it != fields.end() ? it->second : missing;
  }
  bool has(const std::string& key) const { return fields.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool parse(Json& out) { return value(out) && (skip_ws(), pos_ == text_.size()); }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool string_value(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return false;
            c = static_cast<char>(
                std::stoi(text_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          default: c = esc;
        }
      }
      out.push_back(c);
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool value(Json& out) {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = Json::kObject;
      skip_ws();
      if (consume('}')) return true;
      do {
        std::string key;
        if (!string_value(key) || !consume(':')) return false;
        Json child;
        if (!value(child)) return false;
        out.fields.emplace(std::move(key), std::move(child));
      } while (consume(','));
      return consume('}');
    }
    if (c == '[') {
      ++pos_;
      out.kind = Json::kArray;
      skip_ws();
      if (consume(']')) return true;
      do {
        Json child;
        if (!value(child)) return false;
        out.items.push_back(std::move(child));
      } while (consume(','));
      return consume(']');
    }
    if (c == '"') {
      out.kind = Json::kString;
      return string_value(out.text);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out.kind = Json::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.kind = Json::kBool;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    if (end == pos_) return false;
    out.kind = Json::kNumber;
    out.number = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---- registry ------------------------------------------------------------

TEST(Metrics, CountersGaugesHistogramsRoundTrip) {
  Registry r;
  Counter& c = r.counter("test_requests_total");
  c.inc();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Find-or-create: the same name returns the same instrument.
  r.counter("test_requests_total").inc();
  EXPECT_EQ(c.value(), 6u);

  Gauge& g = r.gauge("test_bytes");
  g.set(128.0);
  g.add(64.0);
  EXPECT_DOUBLE_EQ(g.value(), 192.0);
  g.update_max(100.0);  // below current: no change
  EXPECT_DOUBLE_EQ(g.value(), 192.0);
  g.update_max(1000.0);
  EXPECT_DOUBLE_EQ(g.value(), 1000.0);

  Histogram& h = r.histogram("test_seconds");
  h.observe(0.5);
  h.observe(0.5);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 4.0);

  // A name registered as one kind cannot be re-registered as another.
  EXPECT_THROW(r.gauge("test_requests_total"), std::logic_error);
  EXPECT_THROW(r.counter("test_seconds"), std::logic_error);
}

TEST(Metrics, HistogramBucketsArePowersOfTwo) {
  Registry r;
  Histogram& h = r.histogram("test_hist");
  // 0.75 lands in the bucket with upper bound 1.0 = 2^0.
  h.observe(0.75);
  std::uint64_t total = 0;
  bool seen_in_unit_bucket = false;
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    total += h.bucket(i);
    if (h.bucket(i) != 0) {
      seen_in_unit_bucket = Histogram::bucket_bound(i) == 1.0;
    }
  }
  EXPECT_EQ(total, 1u);
  EXPECT_TRUE(seen_in_unit_bucket);
}

TEST(Metrics, SnapshotAndExposition) {
  Registry r;
  r.counter("exp_total").add(7);
  r.gauge("exp_gauge").set(2.5);
  r.histogram("exp_seconds").observe(0.1);
  r.register_callback_gauge("exp_callback", [] { return 42.0; });

  const MetricsSnapshot snap = r.snapshot();
  EXPECT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "exp_total");
  EXPECT_EQ(snap.counters[0].second, 7u);
  ASSERT_EQ(snap.gauges.size(), 2u);  // gauge + callback, sorted by name

  const std::string prom = r.to_prometheus();
  EXPECT_NE(prom.find("# TYPE exp_total counter"), std::string::npos);
  EXPECT_NE(prom.find("exp_total 7"), std::string::npos);
  EXPECT_NE(prom.find("exp_gauge 2.5"), std::string::npos);
  EXPECT_NE(prom.find("exp_callback 42"), std::string::npos);
  EXPECT_NE(prom.find("exp_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("exp_seconds_count 1"), std::string::npos);

  // The JSON snapshot parses and carries the same counter.
  Json parsed;
  ASSERT_TRUE(JsonParser(r.to_json()).parse(parsed));
  ASSERT_EQ(parsed.kind, Json::kObject);
  EXPECT_DOUBLE_EQ(parsed.at("counters").at("exp_total").number, 7.0);
}

TEST(Metrics, ProcessMetricsAreRegisteredGlobally) {
  const std::string prom = Registry::global().to_prometheus();
  EXPECT_NE(prom.find("process_peak_rss_bytes"), std::string::npos);
  EXPECT_GT(peak_rss_bytes(), 0u);
  EXPECT_GT(current_rss_bytes(), 0u);
}

// The TSan job runs this: writers on every instrument kind race against
// snapshot/export readers; any missing synchronization is a data race.
TEST(Metrics, ConcurrentRegistryIsRaceFree) {
  Registry r;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&r, &go, t] {
      while (!go.load()) {
      }
      Counter& c = r.counter("conc_total");
      Gauge& g = r.gauge("conc_gauge");
      Histogram& h = r.histogram("conc_seconds");
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        g.update_max(static_cast<double>(t * kIters + i));
        h.observe(0.001 * static_cast<double>(i + 1));
        if (i % 256 == 0) {
          // Readers race the writers: snapshot must see a consistent map.
          const MetricsSnapshot snap = r.snapshot();
          EXPECT_LE(snap.counters.size(), 4u);
        }
      }
    });
  }
  go.store(true);
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(r.counter("conc_total").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(r.histogram("conc_seconds").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(r.gauge("conc_gauge").value(),
                   static_cast<double>(kThreads * kIters - 1));
}

TEST(Trace, ConcurrentSpansAndLiveWritesAreRaceFree) {
  start_tracing();
  constexpr int kThreads = 4;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&go] {
      while (!go.load()) {
      }
      for (int i = 0; i < 500; ++i) {
        Span span("test.work", "test", 0xabcdef);
        trace_instant("test.tick", "test");
      }
    });
  }
  go.store(true);
  // Live snapshot while workers record: the daemon does exactly this on
  // every drain cycle.
  for (int i = 0; i < 20; ++i) {
    std::ostringstream out;
    write_trace_json(out);
  }
  for (std::thread& w : workers) w.join();
  stop_tracing();
  EXPECT_GE(trace_event_count(), static_cast<std::size_t>(kThreads) * 1000);
  clear_trace();
}

// ---- trace output over a real synthesis run ------------------------------

core::SynthesisResult traced_run(std::uint64_t seed, std::uint64_t trace_id) {
  // Multi-round planted family (micro_core's shape). A 64-sample draw
  // keeps the first candidates rough, so verification produces
  // counterexamples and the trace shows verify/repair/maxsat rounds, not
  // just a round-0 certificate (the default 500 samples certify seed 42
  // in round 0).
  workloads::PlantedParams params;
  params.num_universals = 12;
  params.num_existentials = 6;
  params.dep_size = 4;
  params.function_gates = 6;
  params.num_clauses = 80;
  params.seed = 7;
  params.nested_deps = true;
  params.dep_size_max = 10;
  const dqbf::DqbfFormula formula = workloads::gen_planted(params);
  aig::Aig manager;
  core::Manthan3Options options;
  options.time_limit_seconds = 120.0;
  options.max_counterexamples = 300;
  options.sampler.num_samples = 64;
  options.seed = seed;
  options.trace_id = trace_id;
  return core::Manthan3(options).synthesize(formula, manager);
}

TEST(Trace, ChromeTraceIsWellFormedAndNested) {
  // A default suite run that goes through dozens of repair rounds before
  // it certifies.
  const std::string name = "plantedhard_18x4_s1";
  const dqbf::DqbfFormula formula = testutil::suite_instance(name);
  core::Manthan3Options options;
  options.seed =
      testutil::suite_run_seed(name, testutil::kFormerRestartingStreams[0]);
  options.trace_id = 0x5eedf00d;
  aig::Aig manager;
  start_tracing();
  const core::SynthesisResult result =
      core::Manthan3(options).synthesize(formula, manager);
  stop_tracing();
  ASSERT_GT(result.stats.counterexamples, 0u);

  std::ostringstream out;
  write_trace_json(out);
  clear_trace();

  Json trace;
  ASSERT_TRUE(JsonParser(out.str()).parse(trace)) << out.str().substr(0, 400);
  ASSERT_EQ(trace.kind, Json::kObject);
  const Json& events = trace.at("traceEvents");
  ASSERT_EQ(events.kind, Json::kArray);
  ASSERT_FALSE(events.items.empty());

  std::set<std::string> names;
  const Json* synthesize = nullptr;
  std::size_t synthesize_spans = 0;
  for (const Json& e : events.items) {
    ASSERT_EQ(e.kind, Json::kObject);
    ASSERT_TRUE(e.has("name"));
    ASSERT_TRUE(e.has("ph"));
    ASSERT_TRUE(e.has("ts"));
    ASSERT_TRUE(e.has("pid"));
    ASSERT_TRUE(e.has("tid"));
    if (e.at("ph").text == "X") {
      ASSERT_TRUE(e.has("dur"));
    }
    names.insert(e.at("name").text);
    if (e.at("name").text == "synthesize") {
      synthesize = &e;
      ++synthesize_spans;
    }
  }
  // One synthesize span per call.
  EXPECT_EQ(synthesize_spans, 1u);
  // The acceptance bar: at least 6 distinct pipeline phases in one run.
  const std::set<std::string> phases = {
      "synthesize",   "sample", "sample.probe", "sample.main",
      "learn",        "verify.round", "extend", "maxsat.round",
      "repair",       "refit",  "substitute"};
  std::size_t distinct = 0;
  for (const std::string& n : names) distinct += phases.count(n);
  EXPECT_GE(distinct, 6u) << "phases seen: " << names.size();

  // Span nesting: every phase span on the synthesize thread lies inside
  // the synthesize span's [ts, ts+dur] interval.
  ASSERT_NE(synthesize, nullptr);
  const double run_begin = synthesize->at("ts").number;
  const double run_end = run_begin + synthesize->at("dur").number;
  const double run_tid = synthesize->at("tid").number;
  std::size_t nested = 0;
  for (const Json& e : events.items) {
    const std::string& n = e.at("name").text;
    if (n == "synthesize" || e.at("ph").text != "X") continue;
    if (e.at("tid").number != run_tid) continue;
    if (phases.count(n) == 0) continue;
    const double begin = e.at("ts").number;
    const double end = begin + e.at("dur").number;
    EXPECT_GE(begin, run_begin) << n;
    EXPECT_LE(end, run_end + 1e-3) << n;
    ++nested;
  }
  EXPECT_GT(nested, 0u);

  // Spans carry the caller's trace id (hex in args).
  bool tagged = false;
  for (const Json& e : events.items) {
    if (e.has("args") && e.at("args").has("trace_id")) {
      EXPECT_EQ(e.at("args").at("trace_id").text, "000000005eedf00d");
      tagged = true;
    }
  }
  EXPECT_TRUE(tagged);
}

// ---- determinism: telemetry is an observer, not a participant ------------

TEST(Trace, TracingDoesNotPerturbSynthesis) {
  // Cold (tracing off) vs warm (tracing on): identical derive_seed
  // streams, so every per-round counter must match field for field.
  const core::SynthesisResult off = traced_run(42, 0);
  start_tracing();
  const core::SynthesisResult on = traced_run(42, 0x1234);
  stop_tracing();
  clear_trace();
  // A multi-round run, so the comparison covers verify/repair counters.
  EXPECT_GT(off.stats.counterexamples, 0u);
  EXPECT_EQ(off.status, on.status);
  testutil::expect_same_counts(off.stats, on.stats);
  EXPECT_EQ(off.stats.aig_nodes, on.stats.aig_nodes);
}

TEST(Trace, ParallelLearningMatchesSerialUnderTracing) {
  // Several synthesize calls learn and record spans on their own threads
  // at once (the TSan job runs this suite); each must match its serial
  // run field for field.
  const std::vector<std::uint64_t> seeds = {42, 7, 11};
  start_tracing();
  std::vector<core::SynthesisResult> serial;
  for (const std::uint64_t seed : seeds) {
    serial.push_back(traced_run(seed, 0x77));
  }
  std::vector<core::SynthesisResult> concurrent(seeds.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    threads.emplace_back(
        [&, i] { concurrent[i] = traced_run(seeds[i], 0x77 + i); });
  }
  for (std::thread& t : threads) t.join();
  stop_tracing();
  clear_trace();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE("seed " + std::to_string(seeds[i]));
    EXPECT_EQ(serial[i].status, concurrent[i].status);
    testutil::expect_same_counts(serial[i].stats, concurrent[i].stats);
    EXPECT_EQ(serial[i].stats.aig_nodes, concurrent[i].stats.aig_nodes);
  }
}

TEST(Files, WriteFileAtomicReplacesContent) {
  const std::string path = "test_obs_atomic.txt";
  ASSERT_TRUE(write_file_atomic(path, "first\n"));
  ASSERT_TRUE(write_file_atomic(path, "second\n"));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "second");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace manthan::obs
