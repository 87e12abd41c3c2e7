// The flat netlist form and the shared gate kernel against the scalar
// oracles: netlist::eval_word per gate, eval_single per circuit.
#include "sim/flat_circuit.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/lanes.hpp"
#include "gen/random_circuit.hpp"
#include "sim/logic_sim.hpp"
#include "sim/prng.hpp"

namespace enb::sim {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

TEST(FlatCircuit, MirrorsTheCircuitStructure) {
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  const NodeId one = c.add_const(true);
  const NodeId g1 = c.add_gate(GateType::kAnd, {a, a, b});
  const NodeId g2 = c.add_gate(GateType::kXor, {g1, one, a});
  c.add_output(g2);
  c.add_output(g2);
  c.add_output(b);

  const FlatCircuit flat(c);
  ASSERT_EQ(flat.node_count(), c.node_count());
  for (NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_EQ(flat.kind(id), c.type(id));
    const std::span<const NodeId> fanins = flat.fanins(id);
    EXPECT_EQ(std::vector<NodeId>(fanins.begin(), fanins.end()),
              std::vector<NodeId>(c.fanins(id).begin(), c.fanins(id).end()));
    EXPECT_EQ(flat.input_slot(id), c.input_index(id));
  }
  // Fanouts ascend and list a consumer once even when it names the fanin
  // twice.
  const std::span<const NodeId> of_a = flat.fanouts(a);
  EXPECT_EQ(std::vector<NodeId>(of_a.begin(), of_a.end()),
            (std::vector<NodeId>{g1, g2}));
  EXPECT_TRUE(flat.fanouts(g2).empty());
  EXPECT_TRUE(flat.is_output(g2));
  EXPECT_TRUE(flat.is_output(b));
  EXPECT_FALSE(flat.is_output(g1));
  EXPECT_EQ(flat.num_outputs(), 3u);
  EXPECT_EQ(flat.num_inputs(), 2u);
}

// eval_gate on one gate of every type and arity 1..5 equals eval_word, on
// plain words and lane by lane on a 256-lane vector.
TEST(FlatCircuit, EvalGateMatchesEvalWord) {
  const GateType types[] = {GateType::kConst0, GateType::kConst1,
                            GateType::kBuf,    GateType::kNot,
                            GateType::kAnd,    GateType::kNand,
                            GateType::kOr,     GateType::kNor,
                            GateType::kXor,    GateType::kXnor,
                            GateType::kMaj};
  Xoshiro256 rng(42);
  for (const GateType type : types) {
    const auto [min_arity, max_arity] = netlist::arity_range(type);
    for (int arity = min_arity; arity <= std::min(max_arity, 5); ++arity) {
      Circuit c;
      std::vector<NodeId> ins;
      for (int i = 0; i < arity; ++i) ins.push_back(c.add_input());
      const NodeId gate = type == GateType::kConst0   ? c.add_const(false)
                          : type == GateType::kConst1 ? c.add_const(true)
                                                      : c.add_gate(type, ins);
      const FlatCircuit flat(c);
      std::vector<Word> words(c.node_count(), 0);
      std::vector<fault::LaneVec256> lanes(c.node_count());
      for (int i = 0; i < arity; ++i) {
        words[ins[static_cast<std::size_t>(i)]] = rng.next();
        for (int w = 0; w < fault::kLaneWords<fault::LaneVec256>; ++w) {
          lanes[ins[static_cast<std::size_t>(i)]][w] = rng.next();
        }
      }
      std::vector<Word> fanins;
      for (const NodeId f : ins) fanins.push_back(words[f]);
      EXPECT_EQ(eval_gate(flat, gate, words.data()),
                netlist::eval_word(type, fanins))
          << netlist::to_string(type) << " arity " << arity;
      const fault::LaneVec256 wide = eval_gate(flat, gate, lanes.data());
      for (int w = 0; w < fault::kLaneWords<fault::LaneVec256>; ++w) {
        fanins.clear();
        for (const NodeId f : ins) fanins.push_back(lanes[f][w]);
        EXPECT_EQ(wide[w], netlist::eval_word(type, fanins))
            << netlist::to_string(type) << " arity " << arity << " word "
            << w;
      }
    }
  }
}

// A LogicSim sweep agrees with the eval_single oracle lane by lane.
TEST(FlatCircuit, LogicSimMatchesScalarOracleOnRandomCircuits) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    gen::RandomCircuitOptions options;
    options.num_inputs = 9;
    options.num_gates = 90;
    options.num_outputs = 6;
    options.max_fanin = 4;
    options.seed = seed;
    const Circuit circuit = gen::random_circuit(options);
    Xoshiro256 rng(seed);
    std::vector<Word> inputs(circuit.num_inputs());
    for (Word& w : inputs) w = rng.next();
    LogicSim sim(circuit);
    sim.eval(inputs);
    const std::vector<Word> outputs = sim.output_values();
    for (int lane = 0; lane < kWordBits; ++lane) {
      std::vector<bool> assignment(inputs.size());
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        assignment[i] = ((inputs[i] >> lane) & 1U) != 0;
      }
      const std::vector<bool> expected = eval_single(circuit, assignment);
      for (std::size_t o = 0; o < outputs.size(); ++o) {
        ASSERT_EQ(((outputs[o] >> lane) & 1U) != 0, expected[o])
            << "seed " << seed << " lane " << lane << " output " << o;
      }
    }
  }
}

}  // namespace
}  // namespace enb::sim
