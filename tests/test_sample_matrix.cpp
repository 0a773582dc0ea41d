// Bit-packed SampleMatrix: layout, growth, fingerprints, the 64-way AIG
// batch simulator against the scalar evaluator, and the word popcount the
// packed kernels count with.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "aig/aig.hpp"
#include "aig/aig_sim.hpp"
#include "cnf/sample_matrix.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace manthan::cnf {
namespace {

Assignment random_assignment(std::size_t num_vars, util::Rng& rng) {
  Assignment a(num_vars);
  for (std::size_t v = 0; v < num_vars; ++v) {
    a.set(static_cast<Var>(v), rng.flip());
  }
  return a;
}

TEST(SampleMatrix, RoundTripsRowsAcrossWordBoundaries) {
  // 600 samples x 13 vars: crosses nine 64-sample word boundaries and one
  // capacity doubling (8 -> 16 words per column), which must keep every
  // earlier row.
  util::Rng rng(3);
  SampleMatrix m(13);
  std::vector<Assignment> rows;
  for (int s = 0; s < 600; ++s) {
    rows.push_back(random_assignment(13, rng));
    m.append(rows.back());
  }
  ASSERT_EQ(m.num_samples(), 600u);
  EXPECT_EQ(m.num_words(), 10u);
  for (std::size_t s = 0; s < rows.size(); ++s) {
    EXPECT_EQ(m.row(s), rows[s]) << "sample " << s;
    for (Var v = 0; v < 13; ++v) {
      EXPECT_EQ(m.value(s, v), rows[s].value(v));
    }
  }
}

TEST(SampleMatrix, ColumnBitsMatchValues) {
  util::Rng rng(7);
  SampleMatrix m(5);
  for (int s = 0; s < 70; ++s) m.append(random_assignment(5, rng));
  for (Var v = 0; v < 5; ++v) {
    const std::uint64_t* col = m.column(v);
    for (std::size_t s = 0; s < m.num_samples(); ++s) {
      EXPECT_EQ(((col[s >> 6] >> (s & 63)) & 1) != 0, m.value(s, v));
    }
  }
}

TEST(SampleMatrix, TailBitsStayZero) {
  // Tail bits beyond num_samples() must be zero so popcounts over
  // un-complemented terms need no masking (decision_tree relies on it).
  util::Rng rng(11);
  SampleMatrix m(4);
  Assignment all_true(4, true);
  for (int s = 0; s < 67; ++s) m.append(all_true);
  ASSERT_EQ(m.num_words(), 2u);
  EXPECT_EQ(m.tail_mask(), (1ULL << 3) - 1);
  for (Var v = 0; v < 4; ++v) {
    EXPECT_EQ(m.column(v)[1] & ~m.tail_mask(), 0u);
  }
}

TEST(SampleMatrix, TailMaskFullWhenAligned) {
  SampleMatrix m(2);
  for (int s = 0; s < 64; ++s) m.append(Assignment(2, true));
  EXPECT_EQ(m.num_words(), 1u);
  EXPECT_EQ(m.tail_mask(), ~0ULL);
}

TEST(SampleMatrix, AppendRejectsUndersizedAssignments) {
  // An assignment narrower than the matrix block would silently read
  // out of range; append must reject it instead of asserting.
  SampleMatrix m(5);
  EXPECT_THROW(m.append(Assignment(4, true)), std::invalid_argument);
  m.append(Assignment(5, true));
  EXPECT_EQ(m.num_samples(), 1u);
}

TEST(SampleMatrix, AppendIgnoresVariablesAboveTheMatrixBlock) {
  // Solver models carry selector/Tseitin variables above the matrix
  // block; append must read only the first num_vars values.
  SampleMatrix m(3);
  Assignment a(10, true);
  m.append(a);
  EXPECT_EQ(m.row(0), Assignment(3, true));
}

TEST(Fingerprint, DistinctAssignmentsDistinctFingerprints) {
  // 1000 random 100-var assignments: no collisions expected at 64 bits.
  util::Rng rng(5);
  std::set<std::uint64_t> fps;
  std::set<std::vector<std::uint64_t>> distinct;
  for (int i = 0; i < 1000; ++i) {
    const Assignment a = random_assignment(100, rng);
    if (distinct.insert(a.words()).second) {
      EXPECT_TRUE(fps.insert(fingerprint(a)).second);
    }
  }
}

TEST(Fingerprint, EqualOnTruncatedPrefix) {
  // fingerprint(a, n) must agree between a full solver model and the
  // matrix row it produces (the cross-round reuse dedup contract).
  util::Rng rng(9);
  const Assignment full = random_assignment(150, rng);
  SampleMatrix m(90);
  m.append(full);
  EXPECT_EQ(fingerprint(full, 90), fingerprint(m.row(0)));
  EXPECT_NE(fingerprint(full, 90), fingerprint(full, 91));
}

TEST(SampleMatrix, AppendDistinctRejectsRowsAddedByAppend) {
  // append() records the fingerprint of every row it adds (the synthesis
  // loop's empty-sample fallback goes through it), so append_distinct
  // must refuse each held row again, also when it arrives as a wider
  // solver model whose extra variables differ.
  util::Rng rng(21);
  SampleMatrix m(130);
  for (int s = 0; s < 70; ++s) m.append(random_assignment(130, rng));
  for (std::size_t s = 0; s < 70; ++s) {
    Assignment wide = m.row(s);
    wide.resize(200, s % 2 == 0);
    EXPECT_FALSE(m.append_distinct(m.row(s))) << "sample " << s;
    EXPECT_FALSE(m.append_distinct(wide)) << "sample " << s;
  }
  EXPECT_EQ(m.num_samples(), 70u);
  Assignment fresh = m.row(0);
  fresh.set(129, !fresh.value(129));
  EXPECT_TRUE(m.append_distinct(fresh));
  EXPECT_FALSE(m.append_distinct(fresh));
  EXPECT_EQ(m.num_samples(), 71u);
  EXPECT_EQ(m.row(70), fresh);
}

TEST(SampleMatrix, AppendDistinctRejectsUndersizedAssignments) {
  SampleMatrix m(5);
  EXPECT_THROW(m.append_distinct(Assignment(4, true)), std::invalid_argument);
  EXPECT_TRUE(m.empty());
}

/// `size` values, true at every multiple of `stride` and at the last
/// variable.
Assignment pattern(std::size_t size, std::size_t stride) {
  Assignment a(size);
  for (std::size_t v = 0; v < size; ++v) {
    a.set(static_cast<Var>(v), v % stride == 0 || v + 1 == size);
  }
  return a;
}

TEST(Fingerprint, MatchesGoldenValues) {
  // Fingerprints decide which models the sampler keeps, so a change to
  // the hash changes every draw. These values were taken from the
  // bit-at-a-time implementation the word-packed one replaced; they cover
  // partial, full and multi-word widths, and prefixes of wider
  // assignments whose bits above the prefix are set.
  EXPECT_EQ(fingerprint(Assignment(0)), 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(fingerprint(pattern(1, 1)), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(fingerprint(pattern(63, 3)), 0x4bf12d85f281ff9aULL);
  EXPECT_EQ(fingerprint(Assignment(64, true)), 0x537b42cac870b559ULL);
  EXPECT_EQ(fingerprint(pattern(65, 5)), 0x2ee73ab6a7dfb69fULL);
  EXPECT_EQ(fingerprint(pattern(130, 7)), 0xa614cefc1ebafdcaULL);
  EXPECT_EQ(fingerprint(Assignment(200, true), 65), 0xff3f78f30fb2b552ULL);
  EXPECT_EQ(fingerprint(pattern(130, 7), 64), 0xfd3c91092cb90630ULL);
  EXPECT_EQ(fingerprint(pattern(130, 7), 1), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(fingerprint(pattern(65, 5), 63), 0x58e4f5fe069b4cf3ULL);
}

TEST(Assignment, ResizeKeepsBitsAboveSizeClear) {
  // Equality and fingerprints read whole words, so no bit at or above
  // size() may survive a shrink or a grow.
  Assignment a(130, true);
  a.resize(70);
  EXPECT_EQ(a, Assignment(70, true));
  a.resize(100);
  for (Var v = 0; v < 100; ++v) EXPECT_EQ(a.value(v), v < 70) << v;
  a.resize(10);
  a.resize(140, true);
  for (Var v = 0; v < 140; ++v) EXPECT_TRUE(a.value(v)) << v;
  a.resize(3, true);
  EXPECT_EQ(a.words(), std::vector<std::uint64_t>{0b111});
}

TEST(Fingerprint, SensitiveToEveryBit) {
  util::Rng rng(13);
  const Assignment base = random_assignment(130, rng);
  const std::uint64_t h = fingerprint(base);
  for (Var v = 0; v < 130; ++v) {
    Assignment flipped = base;
    flipped.set(v, !flipped.value(v));
    EXPECT_NE(fingerprint(flipped), h) << "bit " << v;
  }
}

// --- 64-way batch simulation over the matrix -------------------------------

aig::Ref random_cone(aig::Aig& m, int inputs, int gates, util::Rng& rng) {
  std::vector<aig::Ref> pool;
  for (int i = 0; i < inputs; ++i) pool.push_back(m.input(i));
  for (int g = 0; g < gates; ++g) {
    const aig::Ref a = pool[rng.next_below(pool.size())] ^
                       static_cast<aig::Ref>(rng.flip());
    const aig::Ref b = pool[rng.next_below(pool.size())] ^
                       static_cast<aig::Ref>(rng.flip());
    pool.push_back(m.and_gate(a, b));
  }
  return pool.back() ^ static_cast<aig::Ref>(rng.flip());
}

TEST(SimulateMatrix, MatchesScalarEvaluation) {
  util::Rng rng(17);
  for (int round = 0; round < 10; ++round) {
    aig::Aig manager;
    const aig::Ref root = random_cone(manager, 10, 40, rng);
    SampleMatrix m(10);
    for (int s = 0; s < 150; ++s) m.append(random_assignment(10, rng));
    const std::vector<std::uint64_t> sim =
        aig::simulate_matrix(manager, root, m);
    ASSERT_EQ(sim.size(), m.num_words());
    for (std::size_t s = 0; s < m.num_samples(); ++s) {
      std::unordered_map<std::int32_t, bool> inputs;
      for (Var v = 0; v < 10; ++v) {
        inputs[static_cast<std::int32_t>(v)] = m.value(s, v);
      }
      EXPECT_EQ(((sim[s >> 6] >> (s & 63)) & 1) != 0,
                manager.evaluate(root, inputs))
          << "round " << round << " sample " << s;
    }
  }
}

TEST(SimulateMatrix, TailBitsAreZeroInTheReturnedWords) {
  // Contract: simulate_matrix masks the final word before returning, so
  // callers may popcount the result directly.
  util::Rng rng(29);
  aig::Aig manager;
  const aig::Ref root = random_cone(manager, 6, 20, rng);
  SampleMatrix m(6);
  for (int s = 0; s < 67; ++s) m.append(random_assignment(6, rng));
  ASSERT_NE(m.tail_mask(), ~0ULL);
  const std::vector<std::uint64_t> sim =
      aig::simulate_matrix(manager, root, m);
  EXPECT_EQ(sim.back() & ~m.tail_mask(), 0u);
  // Same for a constant-true cone, whose unmasked word would be all-ones.
  const std::vector<std::uint64_t> t =
      aig::simulate_matrix(manager, aig::kTrueRef, m);
  EXPECT_EQ(t.back(), m.tail_mask());
}

TEST(SimulateMatrix, ConstantsAndForeignInputsAreFalse) {
  aig::Aig manager;
  SampleMatrix m(2);
  for (int s = 0; s < 5; ++s) m.append(Assignment(2, true));
  // Constant true cone.
  const std::vector<std::uint64_t> t =
      aig::simulate_matrix(manager, aig::kTrueRef, m);
  EXPECT_EQ(t[0] & m.tail_mask(), m.tail_mask());
  // Input outside the matrix block evaluates false.
  const aig::Ref foreign = manager.input(99);
  const std::vector<std::uint64_t> f =
      aig::simulate_matrix(manager, foreign, m);
  EXPECT_EQ(f[0] & m.tail_mask(), 0u);
}

TEST(Popcount, MatchesTheBuiltin) {
  // The builtin is the reference here (this binary may call libgcc for
  // it); test_dtree links the kernels that must not.
  const auto check = [](std::uint64_t x) {
    EXPECT_EQ(util::popcount64(x),
              static_cast<std::size_t>(__builtin_popcountll(x)))
        << std::hex << x;
  };
  check(0);
  check(~0ULL);
  EXPECT_EQ(util::popcount64(~0ULL), 64u);
  for (int b = 0; b < 64; ++b) {
    check(1ULL << b);
    check(~(1ULL << b));
  }
  util::Rng rng(47);
  for (int i = 0; i < 10000; ++i) check(rng.next());
}

}  // namespace
}  // namespace manthan::cnf
