// Arbiter expansion and decision lists: entry order, packed cubes, and the
// premise generalisation Manthan3 patches its candidates with — full cube
// when nothing agrees, never covering a disagreeing arbiter, identical to
// an unpacked reference of the same rule beyond 64 dependencies.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/arbiter.hpp"
#include "util/rng.hpp"

namespace manthan::core {
namespace {

using cnf::Lit;
using cnf::neg;
using cnf::pos;
using cnf::Var;

/// ∀x_0..x_{n-1} ∃{all}y ∃{x_0,x_1}z. (y ↔ x_a ⊕ x_b) ∧ (z ↔ x_1) for
/// distinct a, b: every arbiter's value is forced by its own cube.
dqbf::DqbfFormula xor_spec(Var n, Var a, Var b) {
  dqbf::DqbfFormula f;
  std::vector<Var> all;
  for (Var x = 0; x < n; ++x) {
    f.add_universal(x);
    all.push_back(x);
  }
  const Var y = n;
  const Var z = n + 1;
  f.add_existential(y, all);
  f.add_existential(z, {0, 1});
  f.matrix() = cnf::CnfFormula(n + 2);
  f.matrix().add_clause({neg(y), pos(a), pos(b)});
  f.matrix().add_clause({neg(y), neg(a), neg(b)});
  f.matrix().add_clause({pos(y), neg(a), pos(b)});
  f.matrix().add_clause({pos(y), pos(a), neg(b)});
  f.matrix().add_clause({neg(z), pos(1)});
  f.matrix().add_clause({pos(z), neg(1)});
  return f;
}

/// ∀x_0..x_{n-1} ∃{all}y. (y ↔ x_0).
dqbf::DqbfFormula y_equals_x0(Var n) {
  dqbf::DqbfFormula f;
  std::vector<Var> all;
  for (Var x = 0; x < n; ++x) {
    f.add_universal(x);
    all.push_back(x);
  }
  f.add_existential(n, all);
  f.matrix() = cnf::CnfFormula(n + 1);
  f.matrix().add_clause({neg(n), pos(0)});
  f.matrix().add_clause({pos(n), neg(0)});
  return f;
}

/// The point setting x_i to bit i of `bits` (x_i = 0 for i ≥ 64).
cnf::Assignment point_of(const dqbf::DqbfFormula& f, std::uint64_t bits) {
  cnf::Assignment point(static_cast<std::size_t>(f.matrix().num_vars()));
  for (const Var x : f.universals()) {
    point.set(x, x < 64 && ((bits >> x) & 1));
  }
  return point;
}

cnf::Assignment random_point(const dqbf::DqbfFormula& f, util::Rng& rng) {
  cnf::Assignment point(static_cast<std::size_t>(f.matrix().num_vars()));
  for (const Var x : f.universals()) point.set(x, rng.flip());
  return point;
}

/// The cube of arbiter `id`, unpacked.
std::vector<bool> unpacked(const ArbiterExpansion& e,
                           const dqbf::DqbfFormula& f, std::size_t id) {
  const ArbiterExpansion::Arbiter& a = e.arbiter(id);
  std::vector<bool> bits(f.existentials()[a.existential].deps.size());
  for (std::size_t b = 0; b < bits.size(); ++b) {
    bits[b] = (a.cube[b / 64] >> (b % 64)) & 1;
  }
  return bits;
}

bool premise_covers(const std::vector<Lit>& premise,
                    const std::vector<Var>& deps,
                    const std::vector<bool>& cube) {
  std::unordered_map<Var, bool> value;
  for (std::size_t b = 0; b < deps.size(); ++b) value[deps[b]] = cube[b];
  return std::all_of(premise.begin(), premise.end(), [&](Lit l) {
    return value.at(l.var()) != l.negated();
  });
}

/// The generalisation rule over unpacked cubes: the reference the packed
/// implementation must reproduce literal for literal.
std::vector<Lit> reference_generalize(const ArbiterExpansion& e,
                                      const dqbf::DqbfFormula& f,
                                      std::size_t id) {
  const std::size_t k = e.arbiter(id).existential;
  const std::vector<Var>& deps = f.existentials()[k].deps;
  const std::vector<bool> cube = unpacked(e, f, id);
  std::vector<std::pair<std::size_t, std::size_t>> agree;
  std::vector<std::vector<bool>> disagree;
  for (std::size_t other = 0; other < e.num_arbiters(); ++other) {
    if (other == id || e.arbiter(other).existential != k) continue;
    const std::vector<bool> bits = unpacked(e, f, other);
    if (e.value(other) != e.value(id)) {
      disagree.push_back(bits);
      continue;
    }
    std::size_t distance = 0;
    for (std::size_t b = 0; b < bits.size(); ++b) {
      distance += bits[b] != cube[b];
    }
    agree.emplace_back(distance, other);
  }
  std::sort(agree.begin(), agree.end());
  std::vector<bool> keep(deps.size(), true);
  for (const auto& [distance, other] : agree) {
    const std::vector<bool> bits = unpacked(e, f, other);
    std::vector<bool> widened = keep;
    for (std::size_t b = 0; b < bits.size(); ++b) {
      if (bits[b] != cube[b]) widened[b] = false;
    }
    const bool covers = std::any_of(
        disagree.begin(), disagree.end(), [&](const std::vector<bool>& d) {
          for (std::size_t b = 0; b < d.size(); ++b) {
            if (widened[b] && d[b] != cube[b]) return false;
          }
          return true;
        });
    if (!covers) keep = widened;
  }
  std::vector<Lit> premise;
  for (std::size_t b = 0; b < deps.size(); ++b) {
    if (keep[b]) premise.push_back(cube[b] ? pos(deps[b]) : neg(deps[b]));
  }
  return premise;
}

/// Every premise covers its own cube and no arbiter of the same
/// existential with the other value.
void expect_sound_premises(const ArbiterExpansion& e,
                           const dqbf::DqbfFormula& f) {
  for (std::size_t id = 0; id < e.num_arbiters(); ++id) {
    const std::size_t k = e.arbiter(id).existential;
    const std::vector<Var>& deps = f.existentials()[k].deps;
    const std::vector<Lit> premise = e.generalize(id);
    EXPECT_TRUE(premise_covers(premise, deps, unpacked(e, f, id)));
    for (std::size_t other = 0; other < e.num_arbiters(); ++other) {
      if (e.arbiter(other).existential != k) continue;
      if (e.value(other) == e.value(id)) continue;
      EXPECT_FALSE(premise_covers(premise, deps, unpacked(e, f, other)))
          << "arbiter " << id << " covers disagreeing arbiter " << other;
    }
  }
}

TEST(DecisionList, NewestOverlappingEntryWins) {
  aig::Aig manager;
  // Oldest: x0 → true. Newest: x0 ∧ x1 → false, on top.
  const std::vector<DecisionEntry> entries{{{pos(0)}, true},
                                           {{pos(0), pos(1)}, false}};
  const aig::Ref f = decision_list(manager, entries, aig::kFalseRef);
  const auto at = [&](bool x0, bool x1) {
    return manager.evaluate(f, {{0, x0}, {1, x1}});
  };
  EXPECT_FALSE(at(false, false));  // fallback
  EXPECT_TRUE(at(true, false));    // the older entry
  EXPECT_FALSE(at(true, true));    // the newer entry shadows it
}

TEST(ArbiterExpansion, CubesPackSixtyFourBitsPerWord) {
  const dqbf::DqbfFormula f = xor_spec(70, 3, 66);
  ArbiterExpansion e(f);
  const std::uint64_t bits = 0x8000000000000005ULL;  // x0, x2, x63
  cnf::Assignment point = point_of(f, bits);
  point.set(64, true);
  point.set(69, true);
  ASSERT_EQ(e.add_point(point, util::Deadline()), sat::Result::kSat);
  const ArbiterExpansion::Arbiter& y = e.arbiter(e.point_arbiters()[0]);
  EXPECT_EQ(y.cube, (PackedCube{bits, 0x21}));
  const ArbiterExpansion::Arbiter& z = e.arbiter(e.point_arbiters()[1]);
  EXPECT_EQ(z.cube, PackedCube{0x1});  // (x0, x1) = (1, 0)
}

TEST(ArbiterExpansion, GeneralizeWithoutAgreeingArbiterIsFullCube) {
  const dqbf::DqbfFormula f = y_equals_x0(6);
  ArbiterExpansion e(f);
  ASSERT_EQ(e.add_point(point_of(f, 0b101101), util::Deadline()),
            sat::Result::kSat);
  const std::size_t first = e.point_arbiters()[0];
  const std::vector<Var>& deps = f.existentials()[0].deps;
  EXPECT_EQ(e.generalize(first),
            cube_premise(deps, {true, false, true, true, false, true}));

  // A second arbiter with the other value widens nothing.
  ASSERT_EQ(e.add_point(point_of(f, 0b101100), util::Deadline()),
            sat::Result::kSat);
  const std::size_t second = e.point_arbiters()[0];
  ASSERT_NE(e.value(first), e.value(second));
  EXPECT_EQ(e.generalize(first),
            cube_premise(deps, {true, false, true, true, false, true}));
  EXPECT_EQ(e.generalize(second),
            cube_premise(deps, {false, false, true, true, false, true}));
}

TEST(ArbiterExpansion, GeneralizeLearnsTheDecidingLiteral) {
  // Every cube of y ↔ x0 over four universals: the least general premise
  // covering all cubes with x0 = v and none with x0 ≠ v is the one
  // literal on x0.
  const dqbf::DqbfFormula f = y_equals_x0(4);
  ArbiterExpansion e(f);
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    ASSERT_EQ(e.add_point(point_of(f, bits), util::Deadline()),
              sat::Result::kSat);
  }
  ASSERT_EQ(e.num_arbiters(), 16u);
  for (std::size_t id = 0; id < e.num_arbiters(); ++id) {
    const Lit expected = e.value(id) ? pos(0) : neg(0);
    EXPECT_EQ(e.generalize(id), std::vector<Lit>{expected}) << "arbiter " << id;
  }
}

TEST(ArbiterExpansion, GeneralizeNeverCoversDisagreeingArbiter) {
  const dqbf::DqbfFormula f = xor_spec(8, 2, 5);
  ArbiterExpansion e(f);
  util::Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(e.add_point(random_point(f, rng), util::Deadline()),
              sat::Result::kSat);
  }
  expect_sound_premises(e, f);
}

TEST(ArbiterExpansion, GeneralizeIsDeterministicBeyondSixtyFourDeps) {
  const dqbf::DqbfFormula f = xor_spec(70, 3, 66);
  ArbiterExpansion e(f);
  ArbiterExpansion twin(f);
  util::Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const cnf::Assignment point = random_point(f, rng);
    ASSERT_EQ(e.add_point(point, util::Deadline()), sat::Result::kSat);
    ASSERT_EQ(twin.add_point(point, util::Deadline()), sat::Result::kSat);
  }
  ASSERT_EQ(f.existentials()[0].deps.size(), 70u);
  for (std::size_t id = 0; id < e.num_arbiters(); ++id) {
    const std::vector<Lit> premise = e.generalize(id);
    EXPECT_EQ(e.generalize(id), premise) << "arbiter " << id;
    EXPECT_EQ(twin.generalize(id), premise) << "arbiter " << id;
    EXPECT_EQ(reference_generalize(e, f, id), premise) << "arbiter " << id;
  }
  expect_sound_premises(e, f);
}

}  // namespace
}  // namespace manthan::core
