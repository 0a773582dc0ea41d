// Component micro-benchmark: AIG construction, composition, CNF encoding
// and the word-parallel exhaustive checks.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "aig/aig.hpp"
#include "aig/aig_cnf.hpp"
#include "aig/aig_sim.hpp"
#include "util/rng.hpp"
#include "workloads/gen_util.hpp"

namespace {

using manthan::aig::Aig;
using manthan::aig::Ref;

Ref random_cone(Aig& m, int inputs, int gates, std::uint64_t seed) {
  manthan::util::Rng rng(seed);
  std::vector<Ref> pool;
  for (int i = 0; i < inputs; ++i) pool.push_back(m.input(i));
  for (int g = 0; g < gates; ++g) {
    const Ref a = pool[rng.next_below(pool.size())] ^
                  static_cast<Ref>(rng.flip());
    const Ref b = pool[rng.next_below(pool.size())] ^
                  static_cast<Ref>(rng.flip());
    pool.push_back(m.and_gate(a, b));
  }
  return pool.back();
}

void BM_AigBuild(benchmark::State& state) {
  for (auto _ : state) {
    Aig m;
    benchmark::DoNotOptimize(
        random_cone(m, 16, static_cast<int>(state.range(0)), 3));
  }
}
BENCHMARK(BM_AigBuild)->Arg(100)->Arg(1000)->Arg(5000)->Arg(50000);

void BM_AigStrashHit(benchmark::State& state) {
  // Pure lookup load on the structural-hash table: the cone is built
  // once, then every and_gate call re-resolves an existing node. This is
  // the repair loop's profile — candidates are rebuilt from mostly-shared
  // subcones every round.
  Aig m;
  manthan::util::Rng rng(3);
  std::vector<Ref> pool;
  for (int i = 0; i < 16; ++i) pool.push_back(m.input(i));
  std::vector<std::pair<Ref, Ref>> pairs;
  for (int g = 0; g < static_cast<int>(state.range(0)); ++g) {
    const Ref a = pool[rng.next_below(pool.size())] ^
                  static_cast<Ref>(rng.flip());
    const Ref b = pool[rng.next_below(pool.size())] ^
                  static_cast<Ref>(rng.flip());
    pairs.emplace_back(a, b);
    pool.push_back(m.and_gate(a, b));
  }
  for (auto _ : state) {
    Ref acc = 0;
    for (const auto& [a, b] : pairs) acc ^= m.and_gate(a, b);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_AigStrashHit)->Arg(1000)->Arg(50000);

void BM_AigCompose(benchmark::State& state) {
  Aig m;
  const Ref f = random_cone(m, 16, 500, 5);
  const Ref g = random_cone(m, 16, 50, 7);
  std::unordered_map<std::int32_t, Ref> sub{{0, g}, {3, manthan::aig::ref_not(g)}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.compose(f, sub));
  }
}
BENCHMARK(BM_AigCompose);

void BM_AigEncodeCnf(benchmark::State& state) {
  Aig m;
  const Ref f = random_cone(m, 16, static_cast<int>(state.range(0)), 9);
  for (auto _ : state) {
    manthan::cnf::CnfFormula out(16);
    benchmark::DoNotOptimize(manthan::aig::encode_cone(m, f, out));
  }
}
BENCHMARK(BM_AigEncodeCnf)->Arg(200)->Arg(2000);

/// Number of inputs in the union support of `literals`.
std::size_t support_size(const Aig& m, const std::vector<Ref>& literals) {
  std::vector<std::int32_t> ids;
  for (const Ref l : literals) {
    for (const std::int32_t id : m.support(l)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return static_cast<std::size_t>(std::unique(ids.begin(), ids.end()) -
                                   ids.begin());
}

/// Literals of a planted_hard-shaped candidate clause, drawn as
/// workloads::gen_planted draws them at nx = 22, ny = 6: planted
/// functions of 5 AND/OR gates over nested dependency sets of 5 to 16
/// universals, 2-4 literals, each a universal with probability 0.55.
/// Each planted function is the widest of 8 draws, and the clause is the
/// widest of 60000 draws that the exhaustive check accepts (`valid`: all
/// 2^support patterns evaluated) or rejects (early exit): the tail of
/// the generator's checks, where the exhaustive enumeration costs most.
std::vector<Ref> planted_clause(Aig& m, bool valid) {
  constexpr int kUniversals = 22;
  manthan::util::Rng rng(17);
  std::vector<manthan::cnf::Var> order(kUniversals);
  for (int i = 0; i < kUniversals; ++i) order[i] = i;
  for (int i = kUniversals - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next_below(i + 1)]);
  }
  std::vector<Ref> planted;
  for (int i = 0; i < 6; ++i) {
    const std::vector<manthan::cnf::Var> deps(
        order.begin(), order.begin() + 5 + (i * 11) / 5);
    Ref widest = manthan::aig::kFalseRef;
    for (int draw = 0; draw < 8; ++draw) {
      const Ref f = manthan::workloads::detail::random_function(m, deps, 5,
                                                                rng, false);
      if (m.support(f).size() > m.support(widest).size()) widest = f;
    }
    planted.push_back(widest);
  }
  std::vector<Ref> best;
  std::size_t best_support = 0;
  std::vector<Ref> literals;
  for (int draw = 0; draw < 60000; ++draw) {
    literals.clear();
    const std::size_t width = 2 + rng.next_below(3);
    for (std::size_t k = 0; k < width; ++k) {
      const Ref negate = rng.flip() ? 1 : 0;
      literals.push_back((rng.flip(0.55)
                              ? m.input(static_cast<std::int32_t>(
                                    rng.next_below(kUniversals)))
                              : planted[rng.next_below(6)]) ^
                         negate);
    }
    const std::size_t support = support_size(m, literals);
    if (support > best_support &&
        manthan::aig::clause_is_tautology(m, literals) == valid) {
      best = literals;
      best_support = support;
    }
  }
  return best;
}

void BM_AigIsTautology(benchmark::State& state) {
  // Explains workloads.generate_s: gen_planted runs this check on every
  // candidate clause, up to 200 per emitted one.
  Aig m;
  const std::vector<Ref> literals = planted_clause(m, state.range(0) != 0);
  state.counters["support"] =
      static_cast<double>(support_size(m, literals));
  for (auto _ : state) {
    benchmark::DoNotOptimize(manthan::aig::clause_is_tautology(m, literals));
  }
}
BENCHMARK(BM_AigIsTautology)->ArgName("valid")->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
