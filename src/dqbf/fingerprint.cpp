#include "dqbf/fingerprint.hpp"

#include <algorithm>

#include "cnf/canonical.hpp"
#include "util/rng.hpp"

namespace manthan::dqbf {

namespace {

using cnf::Var;

// Role tags and domain-separation salts. The two hash planes (hi/lo) use
// different seeds over the same stabilized coloring.
constexpr std::uint64_t kUniversalTag = 0x5851f42d4c957f2dULL;
constexpr std::uint64_t kExistentialTag = 0x14057b7ef767814fULL;
constexpr std::uint64_t kDepDown = 0xb5026f5aa96619e9ULL;  // exist -> dep
constexpr std::uint64_t kDepUp = 0xd6e8feb86659fd93ULL;    // universal -> observer
constexpr std::uint64_t kSeedLo = 0x2545f4914f6cdd1dULL;
constexpr std::uint64_t kSeedHi = 0x9e3779b97f4a7c15ULL;

std::uint64_t mix2(std::uint64_t a, std::uint64_t b) {
  return util::splitmix64(util::splitmix64(a) ^ b);
}

/// Refine `colors` over the clause graph until the partition stabilizes
/// (bounded rounds). `extra_fn` recomputes the per-variable
/// dependency-edge accumulator from the current colors each round.
template <typename ExtraFn>
void refine_until_stable(const cnf::CnfFormula& matrix,
                         std::vector<std::uint64_t>& colors,
                         ExtraFn&& extra_fn) {
  constexpr int kMaxRounds = 8;
  std::size_t classes = cnf::count_colors(colors);
  for (int round = 0; round < kMaxRounds; ++round) {
    cnf::refine_colors(matrix, colors, extra_fn());
    const std::size_t next = cnf::count_colors(colors);
    // A stable class count means the partition stopped splitting (WL
    // partitions only ever refine); one extra round past stability buys
    // nothing.
    if (next == classes && round >= 1) break;
    classes = next;
  }
}

/// Commutative hash of the dependency structure under `colors`: one term
/// per existential binding its color to the multiset of its dependencies'
/// colors.
std::uint64_t dependency_hash(const DqbfFormula& formula,
                              const std::vector<std::uint64_t>& colors,
                              std::uint64_t seed) {
  std::uint64_t sum = 0;
  std::uint64_t sym = 0;
  for (const Existential& e : formula.existentials()) {
    std::uint64_t deps_acc = 0;
    for (const Var u : e.deps) {
      deps_acc +=
          util::splitmix64(colors[static_cast<std::size_t>(u)] ^ kDepDown);
    }
    const std::uint64_t h = mix2(
        seed ^ colors[static_cast<std::size_t>(e.var)], deps_acc ^ e.deps.size());
    sum += h;
    sym ^= util::splitmix64(h);
  }
  return util::splitmix64(seed ^ sum) ^ sym;
}

/// One hash plane of the full spec fingerprint.
std::uint64_t spec_plane(const DqbfFormula& formula,
                         const std::vector<std::uint64_t>& colors,
                         std::uint64_t seed) {
  std::uint64_t h = seed;
  h = mix2(h, formula.num_universals());
  h = mix2(h, formula.num_existentials());
  h = mix2(h, formula.matrix().num_clauses());
  h = mix2(h, static_cast<std::uint64_t>(formula.matrix().num_vars()));
  h = mix2(h, cnf::clause_set_hash(formula.matrix(), colors, seed));
  h = mix2(h, dependency_hash(formula, colors, seed));
  return h;
}

}  // namespace

std::string to_string(const Fingerprint& fp) {
  static const char* digits = "0123456789abcdef";
  std::string s(32, '0');
  for (int i = 0; i < 16; ++i) {
    s[15 - i] = digits[(fp.hi >> (4 * i)) & 0xf];
    s[31 - i] = digits[(fp.lo >> (4 * i)) & 0xf];
  }
  return s;
}

CanonicalForm canonicalize(const DqbfFormula& formula) {
  const cnf::CnfFormula& matrix = formula.matrix();
  std::size_t n = static_cast<std::size_t>(matrix.num_vars());
  for (const Var v : formula.universals()) {
    n = std::max(n, static_cast<std::size_t>(v) + 1);
  }
  for (const Existential& e : formula.existentials()) {
    n = std::max(n, static_cast<std::size_t>(e.var) + 1);
  }

  const cnf::OccurrenceCounts occ = cnf::count_occurrences(matrix);
  const auto occ_mix = [&](std::size_t v) -> std::uint64_t {
    const std::uint64_t p = v < occ.positive.size() ? occ.positive[v] : 0;
    const std::uint64_t ng = v < occ.negative.size() ? occ.negative[v] : 0;
    return mix2(p, ng);
  };

  // --- full-spec coloring: roles + dependency sets + clause structure ---
  std::vector<std::uint64_t> colors(n, 0);
  for (std::size_t v = 0; v < n; ++v) colors[v] = util::splitmix64(occ_mix(v));
  for (const Var u : formula.universals()) {
    const std::size_t v = static_cast<std::size_t>(u);
    colors[v] = util::splitmix64(colors[v] ^ kUniversalTag);
  }
  // Existentials additionally carry their dependency-set size from round
  // zero; the set *contents* flow in through the per-round extra channel.
  for (const Existential& e : formula.existentials()) {
    const std::size_t v = static_cast<std::size_t>(e.var);
    colors[v] = util::splitmix64(mix2(colors[v] ^ kExistentialTag,
                                      e.deps.size()));
  }

  // Reverse dependency adjacency: universal -> existentials observing it.
  std::vector<std::vector<std::size_t>> observers(n);
  for (std::size_t i = 0; i < formula.num_existentials(); ++i) {
    for (const Var u : formula.existentials()[i].deps) {
      observers[static_cast<std::size_t>(u)].push_back(i);
    }
  }

  const auto dep_extra = [&]() {
    std::vector<std::uint64_t> extra(n, 0);
    for (const Existential& e : formula.existentials()) {
      std::uint64_t acc = 0;
      for (const Var u : e.deps) {
        acc += util::splitmix64(colors[static_cast<std::size_t>(u)] ^ kDepDown);
      }
      extra[static_cast<std::size_t>(e.var)] = acc;
    }
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t acc = 0;
      for (const std::size_t i : observers[v]) {
        const std::size_t y =
            static_cast<std::size_t>(formula.existentials()[i].var);
        acc += util::splitmix64(colors[y] ^ kDepUp);
      }
      if (acc != 0) extra[v] ^= util::splitmix64(acc);
    }
    return extra;
  };
  refine_until_stable(matrix, colors, dep_extra);

  CanonicalForm form;
  form.spec.lo = spec_plane(formula, colors, kSeedLo);
  form.spec.hi = spec_plane(formula, colors, kSeedHi);
  return form;
}

Fingerprint fingerprint(const DqbfFormula& formula) {
  return canonicalize(formula).spec;
}

}  // namespace manthan::dqbf
