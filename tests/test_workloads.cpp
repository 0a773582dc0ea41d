// Workload generators: well-formedness, True-by-construction guarantees,
// determinism, suite assembly, and the golden hashes of the standard suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "aig/aig_sim.hpp"
#include "dqbf/dqdimacs.hpp"
#include "sat/solver.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/workloads.hpp"

namespace manthan::workloads {
namespace {

using cnf::Var;
using testutil::brute_force_true;

TEST(Workloads, PlantedIsWellFormed) {
  const dqbf::DqbfFormula f = gen_planted({8, 4, 3, 5, 30, 42});
  EXPECT_TRUE(f.validate().empty());
  EXPECT_EQ(f.num_universals(), 8u);
  EXPECT_EQ(f.num_existentials(), 4u);
  EXPECT_GT(f.matrix().num_clauses(), 0u);
}

TEST(Workloads, PlantedMatrixIsSatisfiable) {
  const dqbf::DqbfFormula f = gen_planted({8, 4, 3, 5, 30, 43});
  sat::Solver s;
  ASSERT_TRUE(s.add_formula(f.matrix()));
  EXPECT_EQ(s.solve(), sat::Result::kSat);
}

TEST(Workloads, PlantedIsTrueByConstruction) {
  // Small instance checked against exhaustive ground truth.
  const dqbf::DqbfFormula f = gen_planted({4, 2, 2, 3, 12, 7});
  EXPECT_TRUE(brute_force_true(f));
}

TEST(Workloads, PlantedDeterministicPerSeed) {
  const dqbf::DqbfFormula a = gen_planted({6, 3, 2, 4, 20, 5});
  const dqbf::DqbfFormula b = gen_planted({6, 3, 2, 4, 20, 5});
  ASSERT_EQ(a.matrix().num_clauses(), b.matrix().num_clauses());
  for (std::size_t i = 0; i < a.matrix().num_clauses(); ++i) {
    EXPECT_EQ(a.matrix().clause(i), b.matrix().clause(i));
  }
  const dqbf::DqbfFormula c = gen_planted({6, 3, 2, 4, 20, 6});
  bool differs = a.matrix().num_clauses() != c.matrix().num_clauses();
  for (std::size_t i = 0;
       !differs && i < a.matrix().num_clauses(); ++i) {
    differs = !(a.matrix().clause(i) == c.matrix().clause(i));
  }
  EXPECT_TRUE(differs);
}

TEST(Workloads, PecIsWellFormedAndSat) {
  const dqbf::DqbfFormula f = gen_pec({7, 2, 2, 3, 12, 17});
  EXPECT_TRUE(f.validate().empty());
  sat::Solver s;
  ASSERT_TRUE(s.add_formula(f.matrix()));
  EXPECT_EQ(s.solve(), sat::Result::kSat);
}

TEST(Workloads, PecBlackboxDepsAreSubsetsOfInputs) {
  const dqbf::DqbfFormula f = gen_pec({7, 2, 3, 3, 12, 19});
  // First 3 existentials are the blackboxes with small dependency sets;
  // the Tseitin auxiliaries depend on everything.
  ASSERT_GE(f.num_existentials(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LE(f.existentials()[i].deps.size(), 3u);
  }
}

TEST(Workloads, ControllerObservableVariantShape) {
  const dqbf::DqbfFormula f = gen_controller({4, 2, 2, true, 6, 23});
  EXPECT_TRUE(f.validate().empty());
  EXPECT_EQ(f.num_universals(), 6u);  // 4 state + 2 disturbance
  sat::Solver s;
  ASSERT_TRUE(s.add_formula(f.matrix()));
  EXPECT_EQ(s.solve(), sat::Result::kSat);
}

TEST(Workloads, SuccinctSatHasEmptyDeps) {
  const dqbf::DqbfFormula f = gen_succinct_sat({12, 3.0, 29});
  EXPECT_TRUE(f.validate().empty());
  EXPECT_EQ(f.num_universals(), 0u);
  for (const auto& e : f.existentials()) EXPECT_TRUE(e.deps.empty());
  // Planted satisfiable: the matrix must be SAT.
  sat::Solver s;
  ASSERT_TRUE(s.add_formula(f.matrix()));
  EXPECT_EQ(s.solve(), sat::Result::kSat);
}

TEST(Workloads, XorChainEqualityVariantIsTrue) {
  const dqbf::DqbfFormula f = gen_xor_chain({1, false, 1});
  EXPECT_TRUE(f.validate().empty());
  EXPECT_TRUE(brute_force_true(f));
}

TEST(Workloads, XorChainSharedVariantIsTrue) {
  const dqbf::DqbfFormula f = gen_xor_chain({1, true, 1});
  EXPECT_TRUE(brute_force_true(f));
}

TEST(Workloads, XorChainHasIncomparableWindows) {
  const dqbf::DqbfFormula f = gen_xor_chain({2, false, 1});
  ASSERT_EQ(f.num_existentials(), 4u);
  EXPECT_FALSE(f.deps_subset(0, 1));
  EXPECT_FALSE(f.deps_subset(1, 0));
}

TEST(Workloads, UnrealizableIsFalse) {
  const dqbf::DqbfFormula f = gen_unrealizable({1, false, 1});
  EXPECT_TRUE(f.validate().empty());
  EXPECT_FALSE(brute_force_true(f));
}

TEST(Workloads, StandardSuiteComposition) {
  const std::vector<Instance> suite = standard_suite({1, 2023});
  EXPECT_GT(suite.size(), 30u);
  std::set<std::string> names;
  std::set<std::string> families;
  for (const Instance& inst : suite) {
    EXPECT_TRUE(inst.formula.validate().empty()) << inst.name;
    names.insert(inst.name);
    families.insert(inst.family);
  }
  EXPECT_EQ(names.size(), suite.size()) << "instance names must be unique";
  // All seven families represented.
  EXPECT_EQ(families.size(), 7u);
}

TEST(Workloads, StandardSuiteScalesUp) {
  const std::size_t small = standard_suite({1, 2023}).size();
  const std::size_t large = standard_suite({2, 2023}).size();
  EXPECT_GT(large, small);
}

TEST(Workloads, StandardSuiteDeterministic) {
  const auto a = standard_suite({1, 99});
  const auto b = standard_suite({1, 99});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].formula.matrix().num_clauses(),
              b[i].formula.matrix().num_clauses());
  }
}

/// util::hash64 of dqbf::to_dqdimacs_string for every instance of
/// standard_suite({scale, 2023}), in suite order. The benchmark and the
/// paper tables run these inputs: a change to a generator, the AIG
/// package or the hash that alters any byte must fail here, and the
/// values are only ever replaced on purpose, together with the benchmark
/// snapshot they invalidate.
struct GoldenEntry {
  const char* name;
  std::uint64_t hash;
};

constexpr GoldenEntry kGoldenScale1[] = {
    {"planted_6x3_s0", 0x1b21adb669677c23ULL},
    {"planted_6x3_s1", 0xdc580a874c51f62aULL},
    {"planted_6x5_s0", 0xda29cbbb3d861410ULL},
    {"planted_6x5_s1", 0x9c94de4b5b442e34ULL},
    {"planted_8x3_s0", 0x582b685d9010d421ULL},
    {"planted_8x3_s1", 0x63582356c386ca2bULL},
    {"planted_8x5_s0", 0x8fa5b1a4340ad868ULL},
    {"planted_8x5_s1", 0x7730c137b45f93f1ULL},
    {"planted_10x3_s0", 0xfa2c0fe705d198c5ULL},
    {"planted_10x3_s1", 0xb7a1319db2a9b844ULL},
    {"planted_10x5_s0", 0x837a499baf0f9adeULL},
    {"planted_10x5_s1", 0x8a000ca079d90383ULL},
    {"plantedhard_16x4_s0", 0xc94cbbed6ef20b9cULL},
    {"plantedhard_16x4_s1", 0x3b103ffa255f322bULL},
    {"plantedhard_16x6_s0", 0xe22ce027630af4a8ULL},
    {"plantedhard_16x6_s1", 0xe886b14b8617cf3dULL},
    {"plantedhard_18x4_s0", 0xb7ff02847c313292ULL},
    {"plantedhard_18x4_s1", 0x663b169e3fc4b8ccULL},
    {"plantedhard_18x6_s0", 0x66a1273620696b08ULL},
    {"plantedhard_18x6_s1", 0xf3b7b8042ae6cd4aULL},
    {"pec_5x2_s0", 0x0607874724a50f70ULL},
    {"pec_5x2_s1", 0xa9c92d8bdf16f186ULL},
    {"pec_5x3_s0", 0x40e91f77ed10ae3dULL},
    {"pec_5x3_s1", 0xf95e52ed1da933e1ULL},
    {"pec_7x2_s0", 0x39dc88fe4d3250a8ULL},
    {"pec_7x2_s1", 0xbc8a7633d159f0e5ULL},
    {"pec_7x3_s0", 0xdb6da0d6512d8605ULL},
    {"pec_7x3_s1", 0xb24637d45ac2b2a4ULL},
    {"controller_3x2_s0", 0x0b671b81afb9195dULL},
    {"controller_3x2_s1", 0xfa02765a4884a2c4ULL},
    {"controller_3x3_s0", 0x19fec827d8e3af6dULL},
    {"controller_3x3_s1", 0x93d1f22fcf7ccec1ULL},
    {"controller_4x2_s0", 0xeae8fb2e884a09cdULL},
    {"controller_4x2_s1", 0xe4f7be2d28e253bfULL},
    {"controller_4x3_s0", 0xc3bd2fa7b5760404ULL},
    {"controller_4x3_s1", 0x9af14a86f1813571ULL},
    {"succinct_10x3_s0", 0xa686b209582663a0ULL},
    {"succinct_10x3_s1", 0x1e36a0d699748b14ULL},
    {"succinct_16x3_s0", 0x30719af761a6fc88ULL},
    {"succinct_16x3_s1", 0x5b62ce57cf10dc28ULL},
    {"xoreq_1x2_s0", 0x87882b8e190df89fULL},
    {"xorshared_1x2_s0", 0xb0e90d484e006af7ULL},
    {"xoreq_2x2_s0", 0xffb640d0e59c0382ULL},
    {"xorshared_2x2_s0", 0xe76403ef91b09ee2ULL},
    {"xoreq_3x2_s0", 0xae9e9c17a89518f9ULL},
    {"xorshared_3x2_s0", 0xc8927e2b8bd12804ULL},
    {"unreal_1x1_s0", 0xb5d05a2119993ecdULL},
    {"unrealext_1x1_s0", 0x7530493977d3ddddULL},
    {"unreal_2x1_s0", 0xcbb3cc342efc5decULL},
    {"unrealext_2x1_s0", 0x57e8e06a36c46ec0ULL},
};

constexpr GoldenEntry kGoldenScale2[] = {
    {"planted_6x3_s0", 0x1b21adb669677c23ULL},
    {"planted_6x3_s1", 0xdc580a874c51f62aULL},
    {"planted_6x3_s2", 0x747668ef1cc22ff9ULL},
    {"planted_6x5_s0", 0x37979205bf08c16dULL},
    {"planted_6x5_s1", 0x97145a1ee1e1c4faULL},
    {"planted_6x5_s2", 0xefd4d0f644d62659ULL},
    {"planted_8x3_s0", 0x9a97f8f2cf54685eULL},
    {"planted_8x3_s1", 0x86c114d80dc32018ULL},
    {"planted_8x3_s2", 0xc02f0635da78f137ULL},
    {"planted_8x5_s0", 0x5bfcc6afdb4dd076ULL},
    {"planted_8x5_s1", 0xf01aaa6a2c4cd745ULL},
    {"planted_8x5_s2", 0xf0790f200873b649ULL},
    {"planted_10x3_s0", 0xb171ca2ed4a97a83ULL},
    {"planted_10x3_s1", 0x408d42b72b0ac7efULL},
    {"planted_10x3_s2", 0xc2bb3c1eee0da504ULL},
    {"planted_10x5_s0", 0xc7871549abe1042fULL},
    {"planted_10x5_s1", 0xfb93033e9f16c9e6ULL},
    {"planted_10x5_s2", 0x39057c2aa30f9298ULL},
    {"planted_12x3_s0", 0xcf04b4c81821a932ULL},
    {"planted_12x3_s1", 0x34e7421a0d221f96ULL},
    {"planted_12x3_s2", 0x9a513922f657fb0bULL},
    {"planted_12x5_s0", 0x28e923a4ce4ec5f5ULL},
    {"planted_12x5_s1", 0x8149a59a6fcc0267ULL},
    {"planted_12x5_s2", 0x7501269252e5d548ULL},
    {"planted_14x3_s0", 0x841efa76396e77c8ULL},
    {"planted_14x3_s1", 0x03cbcb6952664daeULL},
    {"planted_14x3_s2", 0xeb76ffdd43468884ULL},
    {"planted_14x5_s0", 0xfd5a8bf64bd0702fULL},
    {"planted_14x5_s1", 0xa20c8d58d32b13bbULL},
    {"planted_14x5_s2", 0x0f8af18eb9cf9ef7ULL},
    {"plantedhard_16x4_s0", 0x1df6616995d2d829ULL},
    {"plantedhard_16x4_s1", 0x1d9d8dbcae7f5e5cULL},
    {"plantedhard_16x4_s2", 0xe7260a895f5b0d09ULL},
    {"plantedhard_16x6_s0", 0xb2a413950bae0d54ULL},
    {"plantedhard_16x6_s1", 0x69058e718f06cbf8ULL},
    {"plantedhard_16x6_s2", 0x8cbc89a7df2300a5ULL},
    {"plantedhard_18x4_s0", 0x43a1930a269e2cedULL},
    {"plantedhard_18x4_s1", 0xcd819950018a48e0ULL},
    {"plantedhard_18x4_s2", 0xade94a2544086b3eULL},
    {"plantedhard_18x6_s0", 0x15a9fcdcea3a3154ULL},
    {"plantedhard_18x6_s1", 0xd63c27169fe4116bULL},
    {"plantedhard_18x6_s2", 0x5d5c1311ce5216b9ULL},
    {"plantedhard_20x4_s0", 0xa8dda21d41fd4d6aULL},
    {"plantedhard_20x4_s1", 0x14b1d0792d7d96b9ULL},
    {"plantedhard_20x4_s2", 0x9ee8bf9d9d7c63ceULL},
    {"plantedhard_20x6_s0", 0x7066eb4fbbd3403aULL},
    {"plantedhard_20x6_s1", 0xe0568b30bd4c0b77ULL},
    {"plantedhard_20x6_s2", 0xbd8c3d133c56328aULL},
    {"plantedhard_22x4_s0", 0xe1545ee83f911c2eULL},
    {"plantedhard_22x4_s1", 0xf9fdaf84a1679613ULL},
    {"plantedhard_22x4_s2", 0xd85003334d11ed9aULL},
    {"plantedhard_22x6_s0", 0x8bf4b13908069b91ULL},
    {"plantedhard_22x6_s1", 0x17dec764e8e2bf86ULL},
    {"plantedhard_22x6_s2", 0xd372413e56e10dc4ULL},
    {"pec_5x2_s0", 0x43ad3723f542d4d8ULL},
    {"pec_5x2_s1", 0x6ba052ee214b004fULL},
    {"pec_5x2_s2", 0x5d8cec040474e4fbULL},
    {"pec_5x3_s0", 0xb40c866ffdf8066eULL},
    {"pec_5x3_s1", 0x5ddd1f1056b9857aULL},
    {"pec_5x3_s2", 0x523c5e60b5bb79f8ULL},
    {"pec_7x2_s0", 0xd15933d5fb4e16fcULL},
    {"pec_7x2_s1", 0x5d7fe8b7ba24aeecULL},
    {"pec_7x2_s2", 0x50d64ced2c4234d2ULL},
    {"pec_7x3_s0", 0xd61592381e76f41dULL},
    {"pec_7x3_s1", 0xb2dba3e19c9d1b82ULL},
    {"pec_7x3_s2", 0xaf8989c0ddab8aa3ULL},
    {"pec_9x2_s0", 0x3d92eec0d87e8fe4ULL},
    {"pec_9x2_s1", 0xa4212089f42bf037ULL},
    {"pec_9x2_s2", 0x294d5b48003f5349ULL},
    {"pec_9x3_s0", 0x7fed213c5edcba49ULL},
    {"pec_9x3_s1", 0x4041d69982a5d5beULL},
    {"pec_9x3_s2", 0xa677020cd00e1f89ULL},
    {"controller_3x2_s0", 0x10f1824c98957cd0ULL},
    {"controller_3x2_s1", 0x64a73ce820d357fbULL},
    {"controller_3x2_s2", 0xdcad45be23cb330fULL},
    {"controller_3x3_s0", 0xa1c4049fa4c6abb7ULL},
    {"controller_3x3_s1", 0xd2e3d35622315392ULL},
    {"controller_3x3_s2", 0x6ad6184f2a2b7c34ULL},
    {"controller_4x2_s0", 0xb6bc4dde1335aad5ULL},
    {"controller_4x2_s1", 0xf2ce7ccc4b5395ddULL},
    {"controller_4x2_s2", 0xf7cff49507075a16ULL},
    {"controller_4x3_s0", 0xc3d0dbc8a3ba1b60ULL},
    {"controller_4x3_s1", 0x60eee1e12822f563ULL},
    {"controller_4x3_s2", 0x29b2ad7bf27d8610ULL},
    {"controller_5x2_s0", 0xaad4c93413187450ULL},
    {"controller_5x2_s1", 0x65bc191f8cb00d6cULL},
    {"controller_5x2_s2", 0x1ccd789ae987898eULL},
    {"controller_5x3_s0", 0xd0259a417954c6bfULL},
    {"controller_5x3_s1", 0x655002b24f9f38adULL},
    {"controller_5x3_s2", 0xa0d64f8743c1b691ULL},
    {"succinct_10x3_s0", 0x544ea8feed54f12fULL},
    {"succinct_10x3_s1", 0x3afc7db3a497a722ULL},
    {"succinct_10x3_s2", 0x62205fdd0eb4bfffULL},
    {"succinct_16x3_s0", 0x136c9a8d4347c45fULL},
    {"succinct_16x3_s1", 0x2e4424e88f55c7deULL},
    {"succinct_16x3_s2", 0xb271aea75fe3f981ULL},
    {"succinct_24x3_s0", 0xa10f908838316728ULL},
    {"succinct_24x3_s1", 0x3a97586f5f069d2dULL},
    {"succinct_24x3_s2", 0xdf2edf640f2e6a91ULL},
    {"succinct_32x3_s0", 0x31e99f8a016911d6ULL},
    {"succinct_32x3_s1", 0x07b74496dea2d473ULL},
    {"succinct_32x3_s2", 0x7f7bc38ddc27a417ULL},
    {"xoreq_1x2_s0", 0x87882b8e190df89fULL},
    {"xorshared_1x2_s0", 0xb0e90d484e006af7ULL},
    {"xoreq_2x2_s0", 0xffb640d0e59c0382ULL},
    {"xorshared_2x2_s0", 0xe76403ef91b09ee2ULL},
    {"xoreq_3x2_s0", 0xae9e9c17a89518f9ULL},
    {"xorshared_3x2_s0", 0xc8927e2b8bd12804ULL},
    {"xoreq_4x2_s0", 0x027974f4026bfd9fULL},
    {"xorshared_4x2_s0", 0x846f7e9eff24dde6ULL},
    {"unreal_1x1_s0", 0xb5d05a2119993ecdULL},
    {"unrealext_1x1_s0", 0x7530493977d3ddddULL},
    {"unreal_2x1_s0", 0xcbb3cc342efc5decULL},
    {"unrealext_2x1_s0", 0x57e8e06a36c46ec0ULL},
};

template <std::size_t N>
void expect_suite_matches(std::size_t scale, const GoldenEntry (&golden)[N]) {
  const std::vector<Instance> suite = standard_suite({scale, 2023});
  ASSERT_EQ(suite.size(), N) << "scale " << scale;
  for (std::size_t i = 0; i < N; ++i) {
    EXPECT_EQ(suite[i].name, golden[i].name) << "scale " << scale;
    EXPECT_EQ(util::hash64(dqbf::to_dqdimacs_string(suite[i].formula)),
              golden[i].hash)
        << "scale " << scale << ", " << suite[i].name;
  }
}

TEST(Workloads, StandardSuiteMatchesGolden) {
  expect_suite_matches(1, kGoldenScale1);
  expect_suite_matches(2, kGoldenScale2);
}

TEST(Workloads, StandardSuiteSameOnFourThreads) {
  // Generators share the AIG package's per-thread scratch (cone walk
  // marks, the flattened simulation cone). Four threads generating at
  // once must each reproduce the serial suite byte for byte.
  std::vector<std::string> expected;
  for (const Instance& inst : standard_suite({1, 2023})) {
    expected.push_back(dqbf::to_dqdimacs_string(inst.formula));
  }
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        const std::vector<Instance> suite = standard_suite({1, 2023});
        if (suite.size() != expected.size()) {
          ++mismatches[t];
          continue;
        }
        for (std::size_t i = 0; i < suite.size(); ++i) {
          if (dqbf::to_dqdimacs_string(suite[i].formula) != expected[i]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace manthan::workloads
