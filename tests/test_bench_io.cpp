#include "netlist/bench_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "netlist/stats.hpp"

namespace enb::netlist {
namespace {

constexpr const char* kC17 = R"(# c17 (ISCAS'85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";

TEST(BenchIo, ParsesC17) {
  const Circuit c = read_bench_string(kC17, "c17");
  EXPECT_EQ(c.num_inputs(), 5u);
  EXPECT_EQ(c.num_outputs(), 2u);
  EXPECT_EQ(c.gate_count(), 6u);
  const CircuitStats stats = compute_stats(c);
  EXPECT_EQ(stats.gate_histogram.at(GateType::kNand), 6u);
  EXPECT_EQ(stats.depth, 3);
}

TEST(BenchIo, PreservesInputOrder) {
  const Circuit c = read_bench_string(kC17);
  EXPECT_EQ(c.node_name(c.inputs()[0]), "1");
  EXPECT_EQ(c.node_name(c.inputs()[1]), "2");
  EXPECT_EQ(c.node_name(c.inputs()[4]), "7");
  EXPECT_EQ(c.output_name(0), "22");
  EXPECT_EQ(c.output_name(1), "23");
}

TEST(BenchIo, ResolvesForwardReferences) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
y = AND(mid, a)
mid = NOT(a)
)");
  EXPECT_EQ(c.gate_count(), 2u);
  EXPECT_EQ(c.type(c.outputs()[0]), GateType::kAnd);
}

TEST(BenchIo, SupportsConstantsAndAliases) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
OUTPUT(y)
k = CONST1()
b = BUFF(a)
i = INV(b)
y = OR(i, k)
)");
  EXPECT_EQ(c.num_outputs(), 1u);
  EXPECT_EQ(c.gate_count(), 3u);  // buf, inv, or (const excluded)
}

TEST(BenchIo, CommentsAndBlankLines) {
  const Circuit c = read_bench_string(
      "# header\n\nINPUT(a)  # trailing comment\n\nOUTPUT(a)\n");
  EXPECT_EQ(c.num_inputs(), 1u);
  EXPECT_EQ(c.num_outputs(), 1u);
}

TEST(BenchIo, RejectsUndefinedSignal) {
  EXPECT_THROW((void)read_bench_string("OUTPUT(y)\ny = AND(a, b)\n"),
               BenchParseError);
}

TEST(BenchIo, RejectsSequentialGates) {
  EXPECT_THROW(
      (void)read_bench_string("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"),
      BenchParseError);
}

TEST(BenchIo, RejectsCycles) {
  EXPECT_THROW((void)read_bench_string(R"(
INPUT(a)
OUTPUT(x)
x = AND(a, y)
y = NOT(x)
)"),
               BenchParseError);
}

TEST(BenchIo, RejectsDuplicateDefinition) {
  EXPECT_THROW((void)read_bench_string(R"(
INPUT(a)
OUTPUT(x)
x = NOT(a)
x = BUF(a)
)"),
               BenchParseError);
}

TEST(BenchIo, RejectsBadArity) {
  EXPECT_THROW((void)read_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(x)
x = NOT(a, b)
)"),
               BenchParseError);
}

// Node ids follow the resolution order: inputs in declaration order, then
// each output's definitions depth-first with operands left to right, then
// dangling definitions.
TEST(BenchIo, AssignsNodeIdsInResolutionOrder) {
  const Circuit c = read_bench_string(R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
y = AND(m, n)
n = OR(a, m)
m = NOT(b)
z = XOR(y, q)
q = BUFF(a)
extra = NOT(a)
)");
  const std::vector<std::string> expected = {"a", "b", "m", "n",
                                             "y", "q", "z", "extra"};
  ASSERT_EQ(c.node_count(), expected.size());
  for (NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_EQ(c.node_name(id), expected[id]) << "node " << id;
  }
  const auto y_fanins = c.fanins(c.outputs()[0]);
  EXPECT_EQ(std::vector<NodeId>(y_fanins.begin(), y_fanins.end()),
            (std::vector<NodeId>{2, 3}));
}

std::string parse_error(const std::string& text) {
  try {
    (void)read_bench_string(text);
  } catch (const BenchParseError& e) {
    return e.what();
  }
  return "no error";
}

TEST(BenchIo, ErrorsNameTheOffendingLine) {
  // An undefined operand is reported at the line that uses it.
  EXPECT_EQ(parse_error("INPUT(a)\nOUTPUT(y)\ny = AND(a, m)\n"
                        "m = NOT(b)\n"),
            "bench parse error at line 4: undefined signal 'b'");
  // A cycle is reported at the definition that closes it.
  EXPECT_EQ(parse_error("INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = NOT(x)\n"),
            "bench parse error at line 3: combinational cycle through 'x'");
  // An illegal arity is reported at the gate's definition.
  EXPECT_EQ(parse_error("INPUT(a)\nINPUT(b)\nOUTPUT(x)\nx = NOT(a, b)\n"),
            "bench parse error at line 4: add_gate: arity 2 illegal for NOT");
}

// Resolution keeps its own stack, so nesting depth is bounded by memory,
// not by the call stack.
TEST(BenchIo, ParsesAMillionGateDeepChain) {
  constexpr int kDepth = 1000000;
  std::ostringstream text;
  text << "INPUT(a)\nOUTPUT(g" << kDepth << ")\ng1 = NOT(a)\n";
  for (int i = 2; i <= kDepth; ++i) {
    text << 'g' << i << " = NOT(g" << i - 1 << ")\n";
  }
  const Circuit c = read_bench_string(text.str());
  EXPECT_EQ(c.node_count(), static_cast<std::size_t>(kDepth) + 1);
  EXPECT_EQ(compute_stats(c).depth, kDepth);
}

TEST(BenchIo, RoundTrip) {
  const Circuit original = read_bench_string(kC17, "c17");
  const std::string text = write_bench_string(original);
  const Circuit reread = read_bench_string(text, "c17_rt");
  EXPECT_EQ(reread.num_inputs(), original.num_inputs());
  EXPECT_EQ(reread.num_outputs(), original.num_outputs());
  EXPECT_EQ(reread.gate_count(), original.gate_count());
  // Names survive the round trip.
  EXPECT_EQ(reread.node_name(reread.inputs()[0]), "1");
}

TEST(BenchIo, MissingFileThrows) {
  EXPECT_THROW((void)read_bench_file("/nonexistent/path.bench"),
               BenchParseError);
}

#ifdef ENB_DATA_DIR
TEST(BenchIo, ReadsShippedC17Fixture) {
  const Circuit c = read_bench_file(std::string(ENB_DATA_DIR) + "/c17.bench");
  EXPECT_EQ(c.name(), "c17");  // derived from the file name
  EXPECT_EQ(c.num_inputs(), 5u);
  EXPECT_EQ(c.num_outputs(), 2u);
  EXPECT_EQ(c.gate_count(), 6u);
}

TEST(BenchIo, FileWriteReadRoundTrip) {
  const Circuit original =
      read_bench_file(std::string(ENB_DATA_DIR) + "/c17.bench");
  const std::string path = ::testing::TempDir() + "/c17_roundtrip.bench";
  write_bench_file(original, path);
  const Circuit reread = read_bench_file(path);
  EXPECT_EQ(reread.gate_count(), original.gate_count());
  EXPECT_EQ(reread.num_inputs(), original.num_inputs());
  std::remove(path.c_str());
}
#endif

}  // namespace
}  // namespace enb::netlist
