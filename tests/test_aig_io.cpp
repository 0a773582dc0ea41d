// Netlist writers: BLIF and Verilog output structure and semantics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/aig_io.hpp"
#include "util/rng.hpp"

namespace manthan::aig {
namespace {

TEST(AigIo, BlifStructure) {
  Aig m;
  const Ref a = m.input(0);  // created first: deterministic node order
  const Ref b = m.input(1);
  const Ref f = m.and_gate(a, ref_not(b));
  std::ostringstream os;
  write_blif(os, m, "test", {{"out", f}});
  const std::string text = os.str();
  EXPECT_NE(text.find(".model test"), std::string::npos);
  EXPECT_NE(text.find(".inputs"), std::string::npos);
  EXPECT_NE(text.find("x0"), std::string::npos);
  EXPECT_NE(text.find("x1"), std::string::npos);
  EXPECT_NE(text.find(".outputs out"), std::string::npos);
  EXPECT_NE(text.find("10 1"), std::string::npos);  // a & ~b cover
  EXPECT_NE(text.find(".end"), std::string::npos);
}

TEST(AigIo, BlifComplementedOutput) {
  Aig m;
  const Ref f = ref_not(m.input(0));
  std::ostringstream os;
  write_blif(os, m, "inv", {{"out", f}});
  const std::string text = os.str();
  // Inverted driver cover "0 1".
  EXPECT_NE(text.find("0 1"), std::string::npos);
}

TEST(AigIo, BlifConstantOutput) {
  Aig m;
  std::ostringstream os;
  write_blif(os, m, "const", {{"zero", kFalseRef}, {"one", kTrueRef}});
  const std::string text = os.str();
  EXPECT_NE(text.find(".names const0"), std::string::npos);
  EXPECT_NE(text.find(".outputs zero one"), std::string::npos);
}

TEST(AigIo, VerilogStructure) {
  Aig m;
  const Ref f = m.or_gate(m.input(0), m.input(2));
  std::ostringstream os;
  write_verilog(os, m, "mymod", {{"out", f}});
  const std::string text = os.str();
  EXPECT_NE(text.find("module mymod("), std::string::npos);
  EXPECT_NE(text.find("input x0;"), std::string::npos);
  EXPECT_NE(text.find("input x2;"), std::string::npos);
  EXPECT_NE(text.find("output out;"), std::string::npos);
  EXPECT_NE(text.find("assign out ="), std::string::npos);
  EXPECT_NE(text.find("endmodule"), std::string::npos);
}

TEST(AigIo, VerilogSemanticsByHandEvaluation) {
  // or = ~(~a & ~b): the single AND node computes ~a & ~b and the output
  // is its complement.
  Aig m;
  const Ref a = m.input(0);
  const Ref b = m.input(1);
  const Ref f = m.or_gate(a, b);
  std::ostringstream os;
  write_verilog(os, m, "orgate", {{"o", f}});
  const std::string text = os.str();
  // One internal wire, complement on both fanins.
  EXPECT_NE(text.find("~x0 & ~x1"), std::string::npos);
  EXPECT_NE(text.find("assign o = ~n"), std::string::npos);
}

TEST(AigIo, SharedNodesEmittedOnce) {
  Aig m;
  const Ref a = m.input(0);
  const Ref b = m.input(1);
  const Ref shared = m.and_gate(a, b);
  const Ref f = m.and_gate(shared, m.input(2));
  const Ref g = m.and_gate(shared, m.input(3));
  std::ostringstream os;
  write_blif(os, m, "shared", {{"f", f}, {"g", g}});
  const std::string text = os.str();
  // The shared node's definition appears exactly once.
  const std::string needle = ".names x0 x1";
  const std::size_t first = text.find(needle);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(needle, first + 1), std::string::npos);
}

TEST(AigIo, DenseBlifEqualsWriteBlifOfTheImportedCones) {
  // append_dense_blif renders cones that sit anywhere in a larger manager
  // byte for byte as write_blif renders their import into a fresh one:
  // same node names, fanin order, covers and line order, with shared
  // logic, repeated inputs, complemented and constant outputs.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    Aig m;
    std::vector<Ref> pool;
    for (int i = 0; i < 7; ++i) {
      pool.push_back(m.input(static_cast<std::int32_t>(rng.next_below(10))));
    }
    const auto pick = [&] {
      return pool[rng.next_below(pool.size())] ^
             static_cast<Ref>(rng.next_below(2));
    };
    for (int g = 0; g < 60; ++g) pool.push_back(m.and_gate(pick(), pick()));
    std::vector<NamedFunction> outputs;
    for (int k = 0; k < 4; ++k) {
      outputs.push_back({"y" + std::to_string(k), pick()});
    }
    if (seed % 3 == 0) outputs.push_back({"c", Aig::constant(seed % 2 == 0)});

    Aig fresh;
    std::unordered_map<std::uint32_t, Ref> node_map;
    std::vector<NamedFunction> imported;
    for (const NamedFunction& o : outputs) {
      imported.push_back({o.name, import_cone(m, fresh, o.function, node_map)});
    }
    std::ostringstream expected;
    write_blif(expected, fresh, "henkin_functions", imported);
    std::string actual = "prefix\n";
    append_dense_blif(actual, m, "henkin_functions", outputs);
    EXPECT_EQ(actual, "prefix\n" + expected.str());
  }
}

}  // namespace
}  // namespace manthan::aig
