// Component micro-benchmark: decision-tree fitting and AIG extraction at
// Manthan3-realistic data shapes (hundreds to thousands of samples, tens
// of features).
//
// The headline series is BM_DtreeFitPacked vs BM_DtreeFitRowwise: the
// same data fit through the popcount path over a bit-packed
// cnf::SampleMatrix and through the row-wise std::vector<bool> oracle.
// The trees are bit-identical (asserted at startup of each run); only the
// split-counting machinery differs, so the ratio is the pure win of
// counting 64 samples per popcount instead of one per bit read.
#include <benchmark/benchmark.h>

#include "aig/aig.hpp"
#include "cnf/sample_matrix.hpp"
#include "dtree/decision_tree.hpp"
#include "util/rng.hpp"

namespace {

using manthan::cnf::SampleMatrix;
using manthan::dtree::DecisionTree;
using manthan::dtree::DtreeOptions;

struct Data {
  std::vector<std::vector<bool>> rows;
  std::vector<bool> labels;
  SampleMatrix matrix{0};
  std::vector<manthan::cnf::Var> feature_vars;
  manthan::cnf::Var label_var = 0;
};

Data make_data(std::size_t samples, std::size_t features,
               std::uint64_t seed) {
  manthan::util::Rng rng(seed);
  Data d;
  // Matrix layout: features at variables [0, features), label at the end.
  d.matrix = SampleMatrix(static_cast<manthan::cnf::Var>(features + 1));
  d.label_var = static_cast<manthan::cnf::Var>(features);
  for (std::size_t f = 0; f < features; ++f) {
    d.feature_vars.push_back(static_cast<manthan::cnf::Var>(f));
  }
  for (std::size_t s = 0; s < samples; ++s) {
    std::vector<bool> row;
    for (std::size_t f = 0; f < features; ++f) row.push_back(rng.flip());
    // Label: noisy majority of three features — learnable structure.
    const int votes = static_cast<int>(row[0]) + static_cast<int>(row[1]) +
                      static_cast<int>(row[2]);
    d.labels.push_back(votes >= 2 ? !rng.flip(0.05) : rng.flip(0.05));
    manthan::cnf::Assignment a(features + 1);
    for (std::size_t f = 0; f < features; ++f) {
      a.set(static_cast<manthan::cnf::Var>(f), row[f]);
    }
    a.set(d.label_var, d.labels.back());
    d.matrix.append(a);
    d.rows.push_back(std::move(row));
  }
  return d;
}

void BM_DtreeFitRowwise(benchmark::State& state) {
  const Data d = make_data(static_cast<std::size_t>(state.range(0)),
                           static_cast<std::size_t>(state.range(1)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecisionTree::fit(d.rows, d.labels));
  }
  state.counters["samples"] = static_cast<double>(state.range(0));
  state.counters["features"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_DtreeFitRowwise)
    ->Args({200, 8})->Args({500, 16})->Args({1000, 32})->Args({4096, 64});

void BM_DtreeFitPacked(benchmark::State& state) {
  const Data d = make_data(static_cast<std::size_t>(state.range(0)),
                           static_cast<std::size_t>(state.range(1)), 11);
  // Differential guard: the packed tree must equal the row-wise tree.
  if (DecisionTree::fit(d.matrix, d.feature_vars, d.label_var).nodes() !=
      DecisionTree::fit(d.rows, d.labels).nodes()) {
    state.SkipWithError("packed tree diverged from row-wise oracle");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DecisionTree::fit(d.matrix, d.feature_vars, d.label_var));
  }
  state.counters["samples"] = static_cast<double>(state.range(0));
  state.counters["features"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_DtreeFitPacked)
    ->Args({200, 8})->Args({500, 16})->Args({1000, 32})->Args({4096, 64});

void BM_SampleMatrixAppend(benchmark::State& state) {
  manthan::util::Rng rng(19);
  const std::size_t vars = 64;
  std::vector<manthan::cnf::Assignment> models;
  for (int i = 0; i < 1024; ++i) {
    manthan::cnf::Assignment a(vars);
    for (std::size_t v = 0; v < vars; ++v) {
      a.set(static_cast<manthan::cnf::Var>(v), rng.flip());
    }
    models.push_back(std::move(a));
  }
  for (auto _ : state) {
    SampleMatrix m(static_cast<manthan::cnf::Var>(vars));
    for (const auto& a : models) m.append(a);
    benchmark::DoNotOptimize(m.num_words());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_SampleMatrixAppend);

void BM_DtreeToAig(benchmark::State& state) {
  const Data d = make_data(500, 16, 13);
  const DecisionTree tree = DecisionTree::fit(d.rows, d.labels);
  for (auto _ : state) {
    manthan::aig::Aig manager;
    std::vector<manthan::aig::Ref> features;
    for (int f = 0; f < 16; ++f) features.push_back(manager.input(f));
    benchmark::DoNotOptimize(tree.to_aig(manager, features));
  }
}
BENCHMARK(BM_DtreeToAig);

void BM_DtreePredict(benchmark::State& state) {
  const Data d = make_data(1000, 16, 17);
  const DecisionTree tree = DecisionTree::fit(d.rows, d.labels);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.predict(d.rows[i++ % d.rows.size()]));
  }
}
BENCHMARK(BM_DtreePredict);

}  // namespace

BENCHMARK_MAIN();
