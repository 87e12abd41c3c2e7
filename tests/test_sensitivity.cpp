#include "sim/sensitivity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "core/profile.hpp"
#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "gen/random_circuit.hpp"
#include "gen/suite.hpp"
#include "obs/metrics.hpp"
#include "sim/exhaustive.hpp"
#include "sim/prng.hpp"

namespace enb::sim {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

Circuit parity(int n) {
  Circuit c;
  NodeId acc = c.add_input();
  for (int i = 1; i < n; ++i) acc = c.add_gate(GateType::kXor, acc, c.add_input());
  c.add_output(acc);
  return c;
}

Circuit and_gate(int n) {
  Circuit c;
  std::vector<NodeId> ins;
  for (int i = 0; i < n; ++i) ins.push_back(c.add_input());
  c.add_output(c.add_gate(GateType::kAnd, ins));
  return c;
}

TEST(Sensitivity, ParityIsFullySensitive) {
  for (int n : {2, 5, 10}) {
    const SensitivityResult r = compute_sensitivity(parity(n));
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.sensitivity, n) << "n=" << n;
    // Every input flip always changes parity: influence 1 each.
    for (double inf : r.influence) EXPECT_DOUBLE_EQ(inf, 1.0);
    EXPECT_NEAR(r.total_influence, n, 1e-9);
  }
}

TEST(Sensitivity, AndGateSensitivity) {
  // s(AND_n) = n (at the all-ones point); influence per input = 2^-(n-1).
  for (int n : {2, 4, 6}) {
    const SensitivityResult r = compute_sensitivity(and_gate(n));
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.sensitivity, n) << "n=" << n;
    for (double inf : r.influence) {
      EXPECT_NEAR(inf, std::pow(2.0, -(n - 1)), 1e-9);
    }
  }
}

TEST(Sensitivity, ConstantFunctionHasZeroSensitivity) {
  Circuit c;
  const NodeId a = c.add_input();
  c.add_output(c.add_gate(GateType::kXor, a, a));  // always 0
  const SensitivityResult r = compute_sensitivity(c);
  EXPECT_EQ(r.sensitivity, 0);
  EXPECT_DOUBLE_EQ(r.influence[0], 0.0);
}

TEST(Sensitivity, MultiOutputUsesAnyOutputChange) {
  // Outputs {a AND b, a OR b}: flipping either input always changes one of
  // the two outputs, so s = 2.
  Circuit c;
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  c.add_output(c.add_gate(GateType::kAnd, a, b));
  c.add_output(c.add_gate(GateType::kOr, a, b));
  const SensitivityResult r = compute_sensitivity(c);
  EXPECT_EQ(r.sensitivity, 2);
}

TEST(Sensitivity, SampledModeLowerBoundsParity) {
  // Force sampling by setting max_exact_inputs below n.
  SensitivityOptions options;
  options.max_exact_inputs = 4;
  options.sample_words = 64;
  const SensitivityResult r = compute_sensitivity(parity(12), options);
  EXPECT_FALSE(r.exact);
  // Parity is everywhere fully sensitive, so even sampling finds s = n.
  EXPECT_EQ(r.sensitivity, 12);
}

TEST(Sensitivity, SampledModeNeverExceedsExact) {
  SensitivityOptions sampled;
  sampled.max_exact_inputs = 2;
  sampled.sample_words = 32;
  const Circuit c = and_gate(8);
  const SensitivityResult lower = compute_sensitivity(c, sampled);
  const SensitivityResult exact = compute_sensitivity(c);
  EXPECT_LE(lower.sensitivity, exact.sensitivity);
}

TEST(Sensitivity, NoInputsGracefully) {
  Circuit c;
  c.add_output(c.add_const(true));
  const SensitivityResult r = compute_sensitivity(c);
  EXPECT_EQ(r.sensitivity, 0);
  EXPECT_TRUE(r.exact);
}

TEST(Sensitivity, MuxSensitivity) {
  // mux(s, a, b) = s ? a : b. At (s,a,b) with a != b every variable matters
  // for some assignment; max sensitivity is 2 (e.g. s=0,a=1,b=0: flipping s
  // or b changes output; flipping a does not).
  Circuit c;
  const NodeId s = c.add_input();
  const NodeId a = c.add_input();
  const NodeId b = c.add_input();
  const NodeId sa = c.add_gate(GateType::kAnd, s, a);
  const NodeId ns = c.add_gate(GateType::kNot, s);
  const NodeId nsb = c.add_gate(GateType::kAnd, ns, b);
  c.add_output(c.add_gate(GateType::kOr, sa, nsb));
  const SensitivityResult r = compute_sensitivity(c);
  EXPECT_EQ(r.sensitivity, 2);
}

TEST(Sensitivity, ZeroSampleBudgetRejectedOnSampledRoute) {
  // Sampled sweep (forced via max_exact_inputs) with sample_words == 0 would
  // divide 0/0 into NaN influence; it must throw instead. The exact sweep
  // ignores sample_words entirely.
  const Circuit c = parity(10);
  SensitivityOptions options;
  options.max_exact_inputs = 4;
  options.sample_words = 0;
  EXPECT_THROW((void)compute_sensitivity(c, options), std::invalid_argument);
  options.max_exact_inputs = 22;  // exact route: fine
  const SensitivityResult r = compute_sensitivity(c, options);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.sensitivity, 10);
}

// ---- event-driven flips vs a full re-sweep --------------------------------

// Output words of `circuit` on one input block, by netlist::eval_word node
// by node: shares nothing with the flat kernel or the event-driven flip.
std::vector<Word> oracle_outputs(const Circuit& circuit,
                                 const std::vector<Word>& inputs) {
  std::vector<Word> values(circuit.node_count(), 0);
  std::vector<Word> fanins;
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const Circuit::Node& node = circuit.node(id);
    if (node.type == GateType::kInput) {
      values[id] = inputs[static_cast<std::size_t>(circuit.input_index(id))];
      continue;
    }
    fanins.clear();
    for (const NodeId f : node.fanins) fanins.push_back(values[f]);
    values[id] = netlist::eval_word(node.type, fanins);
  }
  std::vector<Word> out;
  for (const NodeId id : circuit.outputs()) out.push_back(values[id]);
  return out;
}

// One block the way the old engine did it: n + 1 full sweeps.
void oracle_block(const Circuit& circuit, std::vector<Word>& inputs,
                  Word valid, SensitivityCounts& counts) {
  const std::vector<Word> base = oracle_outputs(circuit, inputs);
  LaneCounter counter(static_cast<int>(inputs.size()));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = ~inputs[i];
    const std::vector<Word> flipped = oracle_outputs(circuit, inputs);
    inputs[i] = ~inputs[i];
    Word diff = 0;
    for (std::size_t o = 0; o < base.size(); ++o) diff |= base[o] ^ flipped[o];
    diff &= valid;
    counts.influence_counts[i] += static_cast<std::uint64_t>(popcount(diff));
    counter.add(diff);
  }
  counts.sensitivity = std::max(counts.sensitivity, counter.max_lane(valid));
  counts.lane_total += static_cast<std::uint64_t>(popcount(valid));
}

// The full-re-sweep counts of one shard, over the same blocks and streams
// as sensitivity_shard_counts.
SensitivityCounts oracle_shard_counts(const Circuit& circuit,
                                      const SensitivityOptions& options,
                                      const exec::Shard& shard) {
  const int n = static_cast<int>(circuit.num_inputs());
  SensitivityCounts counts(circuit.num_inputs());
  std::vector<Word> inputs(circuit.num_inputs());
  if (sensitivity_is_exact(circuit, options)) {
    for (std::size_t block = shard.begin; block < shard.end; ++block) {
      fill_exhaustive_block(n, block, inputs);
      oracle_block(circuit, inputs, exhaustive_valid_mask(n), counts);
    }
  } else {
    Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
    for (std::size_t pass = shard.begin; pass < shard.end; ++pass) {
      for (Word& w : inputs) w = rng.next();
      oracle_block(circuit, inputs, kAllOnes, counts);
    }
  }
  return counts;
}

void expect_counts_eq(const SensitivityCounts& actual,
                      const SensitivityCounts& expected,
                      const std::string& what) {
  EXPECT_EQ(actual.influence_counts, expected.influence_counts) << what;
  EXPECT_EQ(actual.sensitivity, expected.sensitivity) << what;
  EXPECT_EQ(actual.lane_total, expected.lane_total) << what;
}

// Every shard's counts equal the oracle's, and the whole estimate is the
// same serially, on the global pool and on a dedicated pool of 3 threads.
void expect_matches_oracle(const Circuit& circuit,
                           const SensitivityOptions& options,
                           const std::string& what) {
  const FlatCircuit flat(circuit);
  const exec::ShardPlan plan = sensitivity_shard_plan(circuit, options);
  SensitivityCounts expected(circuit.num_inputs());
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    const SensitivityCounts oracle =
        oracle_shard_counts(circuit, options, plan.shard(s));
    expect_counts_eq(sensitivity_shard_counts(flat, options, plan.shard(s)),
                     oracle, what + " shard " + std::to_string(s));
    expected.merge(oracle);
  }
  const SensitivityResult want =
      finalize_sensitivity(circuit, options, expected);
  for (const exec::Parallelism how :
       {exec::Parallelism::serial(), exec::Parallelism::global_pool(),
        exec::Parallelism::dedicated(3)}) {
    const SensitivityResult got = compute_sensitivity(circuit, options, how);
    EXPECT_EQ(got.sensitivity, want.sensitivity)
        << what << " threads=" << how.threads;
    EXPECT_EQ(got.influence, want.influence)
        << what << " threads=" << how.threads;
    EXPECT_EQ(got.assignments, want.assignments)
        << what << " threads=" << how.threads;
  }
}

TEST(SensitivityEventDriven, MatchesFullResweepOnRandomCircuitsExact) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::RandomCircuitOptions random;
    random.num_inputs = 4 + static_cast<int>(seed) * 2;  // 6..16 inputs
    random.num_gates = 120;
    random.num_outputs = 5;
    random.max_fanin = 4;
    random.locality = 0.3 + 0.1 * static_cast<double>(seed);
    random.seed = seed;
    SensitivityOptions options;
    options.shard_words = 3;
    const Circuit circuit = gen::random_circuit(random);
    ASSERT_TRUE(sensitivity_is_exact(circuit, options));
    expect_matches_oracle(circuit, options, "exact seed " + std::to_string(seed));
  }
}

TEST(SensitivityEventDriven, MatchesFullResweepOnRandomCircuitsSampled) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::RandomCircuitOptions random;
    random.num_inputs = 24 + static_cast<int>(seed) * 5;
    random.num_gates = 300;
    random.num_outputs = 7;
    random.max_fanin = 3;
    random.seed = seed;
    SensitivityOptions options;
    options.max_exact_inputs = 20;
    options.sample_words = 10;
    options.shard_words = 4;
    options.seed = seed * 31;
    const Circuit circuit = gen::random_circuit(random);
    ASSERT_FALSE(sensitivity_is_exact(circuit, options));
    expect_matches_oracle(circuit, options,
                          "sampled seed " + std::to_string(seed));
  }
}

// Duplicate output ports, an input that is also an output, constants (one
// of them an output), a gate naming one fanin twice and an input with no
// fanout.
TEST(SensitivityEventDriven, MatchesFullResweepOnEdgeCases) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId cin = c.add_input("c");
  c.add_input("unused");
  const NodeId e = c.add_input("e");
  const NodeId one = c.add_const(true);
  const NodeId zero = c.add_const(false);
  const NodeId g1 = c.add_gate(GateType::kAnd, a, one);
  const NodeId g2 = c.add_gate(GateType::kXor, {b, cin, zero});
  const NodeId g3 = c.add_gate(GateType::kOr, g1, g2);
  const NodeId g4 = c.add_gate(GateType::kAnd, b, b);
  const NodeId g5 = c.add_gate(GateType::kMaj, {g3, g4, e});
  c.add_output(g3);
  c.add_output(g3);
  c.add_output(a);
  c.add_output(g5);
  c.add_output(zero);

  SensitivityOptions exact;
  exact.shard_words = 1;
  expect_matches_oracle(c, exact, "edge cases exact");
  SensitivityOptions sampled;
  sampled.max_exact_inputs = 2;
  sampled.sample_words = 6;
  sampled.shard_words = 2;
  expect_matches_oracle(c, sampled, "edge cases sampled");

  const SensitivityResult r = compute_sensitivity(c, exact);
  EXPECT_DOUBLE_EQ(r.influence[0], 1.0);  // `a` is an output itself
  EXPECT_DOUBLE_EQ(r.influence[3], 0.0);  // `unused` drives nothing
}

// The work the event-driven flips save, as a deterministic gate-evaluation
// count: a full re-sweep per flip would cost (inputs + 1) x nodes per
// sampled word; the flips must stay under 1/20 of that on the mapped
// 256-bit ripple-carry adder, whose carry-chain cones die out within a few
// bits in 64 random lanes.
TEST(SensitivityEventDriven, GateEvaluationsStayFarBelowFullResweeps) {
  const analysis::CompiledCircuit mapped =
      analysis::compile(gen::find_benchmark("rca256").build()).mapped(3);
  const Circuit& circuit = mapped.circuit();
  const core::ProfileOptions options;
  ASSERT_GT(static_cast<int>(circuit.num_inputs()),
            options.sensitivity_exact_max_inputs);
  const obs::Counter& evals =
      obs::Registry::global().counter("sim-sensitivity-gate-evals-total");
  const std::uint64_t before = evals.value();
  (void)core::extract_profile(circuit, options, exec::Parallelism::serial());
  const std::uint64_t used = evals.value() - before;
  const std::uint64_t full_resweeps =
      (circuit.num_inputs() + 1) * circuit.node_count() *
      options.sensitivity_sample_words;
  EXPECT_GT(used, 0u);
  EXPECT_LE(used * 20, full_resweeps)
      << used << " gate evaluations against " << full_resweeps
      << " for full re-sweeps";
}

}  // namespace
}  // namespace enb::sim
