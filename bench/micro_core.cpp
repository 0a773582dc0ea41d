// Core synthesis-pipeline micro-benchmark: whole-run verify/repair cost of
// Manthan3 on multi-round instances; per-round verify latency of the
// persistent IncrementalRefutation against re-encoding build_refutation_cnf
// into a fresh solver; the incremental MaxSAT round against a fresh
// Fu-Malik solver per counterexample; and the sampling + learning front
// end.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "core/manthan3.hpp"
#include "dqbf/certificate.hpp"
#include "dqbf/incremental_refutation.hpp"
#include "maxsat/maxsat.hpp"
#include "sampler/sampler.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace {

using manthan::core::Manthan3;
using manthan::core::Manthan3Options;
using manthan::core::SynthesisResult;

/// Nested-dependency planted instance that drives a long verify/repair
/// loop (hundreds of counterexamples at the capped budget).
manthan::dqbf::DqbfFormula multi_round_planted() {
  manthan::workloads::PlantedParams params;
  params.num_universals = 12;
  params.num_existentials = 6;
  params.dep_size = 4;
  params.function_gates = 6;
  params.num_clauses = 80;
  params.seed = 7;
  params.nested_deps = true;
  params.dep_size_max = 10;
  return manthan::workloads::gen_planted(params);
}

/// Partial-equivalence-checking instance: repair-dominated (dozens of
/// G_k queries and MaxSAT rounds per counterexample).
manthan::dqbf::DqbfFormula repair_heavy_pec() {
  return manthan::workloads::gen_pec({10, 4, 3, 4, 40, 3});
}

void run_pipeline(benchmark::State& state,
                  const manthan::dqbf::DqbfFormula& formula) {
  SynthesisResult last;
  for (auto _ : state) {
    manthan::aig::Aig manager;
    Manthan3Options options;
    options.time_limit_seconds = 120.0;
    options.max_counterexamples = 300;
    // A 64-sample draw keeps these runs multi-round: they time the
    // verify/repair machinery, and at the default 500 samples the planted
    // instance certifies in round 0 (the counterexamples counter guards
    // this).
    options.sampler.num_samples = 64;
    options.seed = 42;
    last = Manthan3(options).synthesize(formula, manager);
    benchmark::DoNotOptimize(last.status);
  }
  state.counters["counterexamples"] =
      static_cast<double>(last.stats.counterexamples);
  state.counters["repairs"] = static_cast<double>(last.stats.repairs);
  state.counters["cones_reused"] =
      static_cast<double>(last.stats.cones_reused);
  state.counters["activations_retired"] =
      static_cast<double>(last.stats.activations_retired);
  state.counters["verify_arena_bytes"] =
      static_cast<double>(last.stats.verify_arena_bytes);
  state.counters["sample_matrix_bytes"] =
      static_cast<double>(last.stats.sample_matrix_bytes);
  manthan::bench::report_memory_counters(state);
}

// Explains perfbench `paper_suite` `core.verify_s`: a verify-dominated
// whole run (planted families are where most counterexamples come from).
void BM_PipelinePlanted(benchmark::State& state) {
  run_pipeline(state, multi_round_planted());
}
BENCHMARK(BM_PipelinePlanted)->Unit(benchmark::kMillisecond);

// Explains perfbench `paper_suite` `core.repair_s`: a repair-dominated
// whole run (G_k queries and MaxSAT rounds per counterexample).
void BM_PipelinePec(benchmark::State& state) {
  run_pipeline(state, repair_heavy_pec());
}
BENCHMARK(BM_PipelinePec)->Unit(benchmark::kMillisecond);

// --- isolated verify-round latency -----------------------------------------
// A fixed repair-like mutation sweep over candidate vectors, verified
// either through the persistent IncrementalRefutation or by re-encoding
// build_refutation_cnf into a fresh solver every round.

struct MutationSweep {
  manthan::dqbf::DqbfFormula formula;
  manthan::aig::Aig manager;
  std::vector<manthan::dqbf::HenkinVector> rounds;
};

MutationSweep make_sweep(std::size_t num_rounds) {
  MutationSweep sweep;
  sweep.formula = multi_round_planted();
  manthan::util::Rng rng(13);
  const std::size_t m = sweep.formula.num_existentials();
  manthan::dqbf::HenkinVector candidate;
  candidate.functions.assign(m, manthan::aig::kFalseRef);
  for (std::size_t r = 0; r < num_rounds; ++r) {
    sweep.rounds.push_back(candidate);
    const std::size_t k = rng.next_below(m);
    const auto& deps = sweep.formula.existentials()[k].deps;
    manthan::aig::Ref cube = manthan::aig::kTrueRef;
    for (const manthan::cnf::Var x : deps) {
      if (rng.flip()) continue;
      manthan::aig::Ref in = sweep.manager.input(x);
      if (rng.flip()) in = manthan::aig::ref_not(in);
      cube = sweep.manager.and_gate(cube, in);
    }
    candidate.functions[k] =
        rng.flip()
            ? sweep.manager.and_gate(candidate.functions[k],
                                     manthan::aig::ref_not(cube))
            : sweep.manager.or_gate(candidate.functions[k], cube);
  }
  return sweep;
}

void BM_VerifyRoundsIncremental(benchmark::State& state) {
  const MutationSweep sweep = make_sweep(64);
  for (auto _ : state) {
    manthan::dqbf::IncrementalRefutation verifier(sweep.formula,
                                                  sweep.manager);
    for (const auto& candidate : sweep.rounds) {
      benchmark::DoNotOptimize(verifier.check(candidate));
    }
  }
  state.counters["rounds"] = static_cast<double>(sweep.rounds.size());
}
BENCHMARK(BM_VerifyRoundsIncremental)->Unit(benchmark::kMillisecond);

void BM_VerifyRoundsRebuild(benchmark::State& state) {
  const MutationSweep sweep = make_sweep(64);
  for (auto _ : state) {
    for (const auto& candidate : sweep.rounds) {
      const manthan::cnf::CnfFormula refutation =
          manthan::dqbf::build_refutation_cnf(sweep.formula, sweep.manager,
                                              candidate);
      manthan::sat::Solver solver;
      if (solver.add_formula(refutation)) {
        benchmark::DoNotOptimize(solver.solve());
      }
    }
  }
  state.counters["rounds"] = static_cast<double>(sweep.rounds.size());
}
BENCHMARK(BM_VerifyRoundsRebuild)->Unit(benchmark::kMillisecond);

// --- MaxSAT round latency ---------------------------------------------------
// The repair loop's FindCandi query: φ ∧ X-units hard, Y-units soft,
// driven R rounds with varying polarities — incremental activation-scoped
// rounds on one warm solver vs. a fresh Fu-Malik solver per round.

void BM_MaxSatRoundsIncremental(benchmark::State& state) {
  const auto formula = multi_round_planted();
  const auto& matrix = formula.matrix();
  for (auto _ : state) {
    manthan::sat::Solver shared;
    shared.add_formula(matrix);
    manthan::maxsat::IncrementalMaxSat inc(shared);
    manthan::util::Rng rng(5);
    for (int round = 0; round < 32; ++round) {
      std::vector<manthan::cnf::Lit> hard;
      for (const manthan::cnf::Var x : formula.universals()) {
        hard.push_back(manthan::cnf::Lit(x, rng.flip()));
      }
      std::vector<manthan::cnf::Lit> soft;
      for (const auto& e : formula.existentials()) {
        soft.push_back(manthan::cnf::Lit(e.var, rng.flip()));
      }
      benchmark::DoNotOptimize(inc.solve_round(hard, soft));
    }
  }
}
BENCHMARK(BM_MaxSatRoundsIncremental)->Unit(benchmark::kMillisecond);

void BM_MaxSatRoundsRebuild(benchmark::State& state) {
  const auto formula = multi_round_planted();
  const auto& matrix = formula.matrix();
  for (auto _ : state) {
    manthan::util::Rng rng(5);
    for (int round = 0; round < 32; ++round) {
      manthan::maxsat::MaxSatSolver fresh;
      fresh.add_hard_formula(matrix);
      for (const manthan::cnf::Var x : formula.universals()) {
        fresh.add_hard({manthan::cnf::Lit(x, rng.flip())});
      }
      for (const auto& e : formula.existentials()) {
        fresh.add_soft({manthan::cnf::Lit(e.var, rng.flip())});
      }
      benchmark::DoNotOptimize(fresh.solve());
    }
  }
}
BENCHMARK(BM_MaxSatRoundsRebuild)->Unit(benchmark::kMillisecond);

// --- bit-packed sampling + learning front end --------------------------------
// The data path: enumerating solver session -> packed SampleMatrix ->
// popcount decision trees. BM_SamplingEnumerate isolates the model harvest
// (samples/sec); BM_SampleLearnPhasePacked times the whole front half of
// Algorithm 1 (GetSamples + CandidateSkF) on a learning-dominated
// instance.

manthan::dqbf::DqbfFormula learning_heavy() {
  manthan::workloads::PlantedParams params;
  params.num_universals = 20;
  params.num_existentials = 16;
  params.dep_size = 10;
  params.function_gates = 6;
  params.num_clauses = 120;
  params.seed = 9;
  params.xor_functions = false;
  return manthan::workloads::gen_planted(params);
}

constexpr std::size_t kSampleBudget = 4096;

std::vector<manthan::cnf::Var> existential_vars(
    const manthan::dqbf::DqbfFormula& formula) {
  std::vector<manthan::cnf::Var> y_vars;
  for (const auto& e : formula.existentials()) y_vars.push_back(e.var);
  return y_vars;
}

void BM_SamplingEnumerate(benchmark::State& state) {
  const auto formula = learning_heavy();
  const auto y_vars = existential_vars(formula);
  std::size_t samples = 0;
  for (auto _ : state) {
    manthan::sampler::SamplerOptions options;
    options.num_samples = kSampleBudget;
    options.seed = 42;
    manthan::sampler::Sampler sampler(options);
    samples = sampler.sample_packed(formula.matrix(), y_vars).num_samples();
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(samples));
  state.counters["samples"] = static_cast<double>(samples);
}
BENCHMARK(BM_SamplingEnumerate)->Unit(benchmark::kMillisecond);

// GetSamples on a paper-suite spec, exactly as a default Manthan3 run
// draws it at the first paper seed (derive_seed(42, hash64(name), 0)):
// 500 samples, Y biased. pec_7x2_s0 (304 models) and controller_4x3_s0
// (288) have fewer models than requested, so the draw ends by exhausting
// the space; plantedhard_18x6_s0 has far more and ends on the count.
void BM_SamplerSuiteSpec(benchmark::State& state, const char* name) {
  manthan::dqbf::DqbfFormula formula;
  for (auto& instance : manthan::workloads::standard_suite({})) {
    if (instance.name == name) formula = std::move(instance.formula);
  }
  const auto y_vars = existential_vars(formula);
  manthan::sampler::SamplerOptions options;
  options.seed = manthan::util::derive_seed(42, manthan::util::hash64(name), 0);
  manthan::sampler::SamplerStats stats;
  std::size_t samples = 0;
  for (auto _ : state) {
    manthan::sampler::Sampler sampler(options);
    samples = sampler.sample_packed(formula.matrix(), y_vars).num_samples();
    stats = sampler.stats();
    benchmark::DoNotOptimize(samples);
  }
  state.counters["samples"] = static_cast<double>(samples);
  state.counters["duplicates"] = static_cast<double>(stats.duplicates);
}
BENCHMARK_CAPTURE(BM_SamplerSuiteSpec, pec_7x2_s0, "pec_7x2_s0")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SamplerSuiteSpec, controller_4x3_s0,
                  "controller_4x3_s0")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SamplerSuiteSpec, plantedhard_18x6_s0,
                  "plantedhard_18x6_s0")
    ->Unit(benchmark::kMillisecond);

// Whole front half of Algorithm 1 (GetSamples + CandidateSkF), isolated:
// per-existential features are the Henkin dependencies plus every earlier
// existential, as in Manthan3's pre-committed feature sets.

void BM_SampleLearnPhasePacked(benchmark::State& state) {
  const auto formula = learning_heavy();
  const auto y_vars = existential_vars(formula);
  for (auto _ : state) {
    manthan::sampler::SamplerOptions options;
    options.num_samples = kSampleBudget;
    options.seed = 42;
    manthan::sampler::Sampler sampler(options);
    const manthan::cnf::SampleMatrix samples =
        sampler.sample_packed(formula.matrix(), y_vars);
    for (std::size_t i = 0; i < formula.num_existentials(); ++i) {
      const auto& e = formula.existentials()[i];
      std::vector<manthan::cnf::Var> features(e.deps.begin(), e.deps.end());
      for (std::size_t j = 0; j < i; ++j) features.push_back(y_vars[j]);
      manthan::dtree::DtreeOptions dt;
      dt.seed = manthan::util::derive_seed(42, 0x4c4541524eULL, i);
      benchmark::DoNotOptimize(manthan::dtree::DecisionTree::fit(
          samples, features, e.var, dt));
    }
  }
}
BENCHMARK(BM_SampleLearnPhasePacked)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
