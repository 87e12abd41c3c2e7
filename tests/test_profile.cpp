#include "core/profile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "bdd/bdd_analysis.hpp"
#include "exec/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "gen/adders.hpp"
#include "gen/iscas.hpp"
#include "gen/multipliers.hpp"
#include "gen/parity.hpp"
#include "gen/suite.hpp"
#include "harden/pareto.hpp"
#include "harden/transform.hpp"
#include "sim/activity.hpp"
#include "sim/sensitivity.hpp"

namespace enb::core {
namespace {

TEST(Profile, C17Extraction) {
  const CircuitProfile p = extract_profile(gen::c17());
  EXPECT_EQ(p.name, "c17");
  EXPECT_EQ(p.num_inputs, 5);
  EXPECT_EQ(p.num_outputs, 2);
  EXPECT_DOUBLE_EQ(p.size_s0, 6.0);
  EXPECT_EQ(p.depth_d0, 3);
  EXPECT_DOUBLE_EQ(p.avg_fanin_k, 2.0);
  EXPECT_TRUE(p.sensitivity_exact);
  // c17's sensitivity: flipping input 3 (signal "3") can change both
  // outputs; the exact value is 4 (verified by exhaustive enumeration).
  EXPECT_EQ(p.sensitivity_s, 4.0);
  EXPECT_GT(p.avg_activity_sw0, 0.2);
  EXPECT_LT(p.avg_activity_sw0, 0.6);
}

TEST(Profile, ParityActivityIsHalf) {
  // Every XOR output in a parity tree is balanced: sw = 0.5 exactly.
  const CircuitProfile p = extract_profile(gen::parity_tree(8, 2));
  EXPECT_NEAR(p.avg_activity_sw0, 0.5, 1e-12);
  EXPECT_EQ(p.sensitivity_s, 8.0);
  EXPECT_TRUE(p.sensitivity_exact);
}

TEST(Profile, RippleAdderSensitivity) {
  // Full sensitivity: at a=1..1, b=0..0, cin=0 every input flip changes the
  // output vector, so s = 2n+1.
  const CircuitProfile p = extract_profile(gen::ripple_carry_adder(4));
  EXPECT_EQ(p.sensitivity_s, 9.0);
  EXPECT_EQ(p.num_inputs, 9);
  EXPECT_DOUBLE_EQ(p.size_s0, 20.0);
}

TEST(Profile, LargeCircuitFallsBackToSampling) {
  ProfileOptions options;
  options.sensitivity_exact_max_inputs = 10;
  options.activity_pairs = 1 << 10;
  const CircuitProfile p =
      extract_profile(gen::ripple_carry_adder(16), options);
  EXPECT_FALSE(p.sensitivity_exact);
  // Sampled sensitivity still finds a decent lower bound for an adder.
  EXPECT_GE(p.sensitivity_s, 10.0);
  EXPECT_LE(p.sensitivity_s, 33.0);
}

TEST(Profile, MonteCarloAndExactActivityAgree) {
  ProfileOptions exact;
  ProfileOptions sampled;
  sampled.prefer_exact_activity = false;
  sampled.activity_pairs = 1 << 13;
  const auto circuit = gen::ripple_carry_adder(4);
  const CircuitProfile pe = extract_profile(circuit, exact);
  const CircuitProfile ps = extract_profile(circuit, sampled);
  EXPECT_NEAR(pe.avg_activity_sw0, ps.avg_activity_sw0, 0.01);
}

TEST(Profile, MakeProfileValidation) {
  const CircuitProfile p = make_profile("paper_parity", 10, 21, 0.5, 2, 10);
  EXPECT_EQ(p.sensitivity_s, 10.0);
  EXPECT_EQ(p.size_s0, 21.0);
  EXPECT_TRUE(p.sensitivity_exact);
  EXPECT_THROW((void)make_profile("bad", 0, 21, 0.5, 2, 10),
               std::invalid_argument);
  EXPECT_THROW((void)make_profile("bad", 10, 21, 1.5, 2, 10),
               std::invalid_argument);
}

TEST(Profile, RejectsGatelessCircuit) {
  netlist::Circuit c;
  c.add_output(c.add_input());
  EXPECT_THROW((void)extract_profile(c), std::invalid_argument);
}

// ---- grouped extraction --------------------------------------------------
//
// A ProfileExtraction over several circuits must give every member exactly
// the profile extract_profile gives it alone, bit for bit, whatever order
// or pool runs its tasks.

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_bitwise_equal(const CircuitProfile& got, const CircuitProfile& want,
                          const std::string& what) {
  EXPECT_EQ(got.name, want.name) << what;
  EXPECT_EQ(got.num_inputs, want.num_inputs) << what;
  EXPECT_EQ(got.num_outputs, want.num_outputs) << what;
  EXPECT_EQ(bits(got.size_s0), bits(want.size_s0)) << what;
  EXPECT_EQ(got.depth_d0, want.depth_d0) << what;
  EXPECT_EQ(bits(got.avg_fanin_k), bits(want.avg_fanin_k)) << what;
  EXPECT_EQ(got.max_fanin, want.max_fanin) << what;
  EXPECT_EQ(bits(got.avg_activity_sw0), bits(want.avg_activity_sw0)) << what;
  EXPECT_EQ(bits(got.sensitivity_s), bits(want.sensitivity_s)) << what;
  EXPECT_EQ(got.sensitivity_exact, want.sensitivity_exact) << what;
}

// The activity and sensitivity a profile must carry, from the estimators
// run on `circuit` itself, outside any union.
void expect_matches_estimators(const CircuitProfile& p,
                               const netlist::Circuit& circuit,
                               const ProfileOptions& options,
                               const std::string& what) {
  double sw0 = 0.0;
  if (options.prefer_exact_activity &&
      static_cast<int>(circuit.num_inputs()) <=
          options.exact_activity_max_inputs) {
    sw0 = bdd::exact_activity_bdd(circuit).avg_gate_toggle_rate;
  } else {
    sim::ActivityOptions activity;
    activity.sample_pairs = options.activity_pairs;
    activity.seed = options.seed;
    sw0 = sim::estimate_activity(circuit, activity, exec::Parallelism::serial())
              .avg_gate_toggle_rate;
  }
  sim::SensitivityOptions sensitivity;
  sensitivity.max_exact_inputs = options.sensitivity_exact_max_inputs;
  sensitivity.sample_words = options.sensitivity_sample_words;
  sensitivity.seed = options.seed + 1;
  const sim::SensitivityResult s = sim::compute_sensitivity(
      circuit, sensitivity, exec::Parallelism::serial());
  EXPECT_EQ(bits(p.avg_activity_sw0), bits(sw0)) << what;
  EXPECT_EQ(bits(p.sensitivity_s),
            bits(static_cast<double>(std::max(1, s.sensitivity))))
      << what;
  EXPECT_EQ(p.sensitivity_exact, s.exact) << what;
}

// Runs one grouped extraction of `members` forward, in reverse and on a
// dedicated pool of three, and checks every member against its own
// extract_profile, and that against the estimators run on the member.
// Returns the union's node count.
std::size_t expect_group_matches_alone(
    const std::vector<const netlist::Circuit*>& members,
    const ProfileOptions& options, const std::string& label) {
  std::vector<CircuitProfile> alone;
  for (const netlist::Circuit* member : members) {
    alone.push_back(
        extract_profile(*member, options, exec::Parallelism::serial()));
    expect_matches_estimators(alone.back(), *member, options,
                              label + " alone (" + member->name() + ")");
  }
  ProfileExtraction forward(members, options);
  for (std::size_t t = 0; t < forward.num_tasks(); ++t) forward.run_task(t);
  ProfileExtraction reverse(members, options);
  for (std::size_t t = reverse.num_tasks(); t-- > 0;) reverse.run_task(t);
  ProfileExtraction pooled(members, options);
  const std::vector<std::vector<CircuitProfile>> runs = {
      forward.finish(), reverse.finish(),
      exec::run_tasks(pooled, exec::Parallelism::dedicated(3))};
  const char* const schedules[] = {"forward", "reverse", "dedicated(3)"};
  for (std::size_t r = 0; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].size(), members.size()) << label;
    for (std::size_t m = 0; m < members.size() && m < runs[r].size(); ++m) {
      expect_bitwise_equal(runs[r][m], alone[m],
                           label + " " + schedules[r] + " member " +
                               std::to_string(m) + " (" +
                               members[m]->name() + ")");
    }
  }
  return forward.union_nodes();
}

// The mapped base and every candidate its harden sweep grades.
std::vector<netlist::Circuit> sweep_family(const netlist::Circuit& base) {
  const harden::SweepOptions sweep;
  const fault::FaultCampaignResult campaign = fault::run_campaign(
      base, nullptr, sweep.campaign, exec::Parallelism::serial());
  const std::vector<std::size_t> ranking =
      harden::rank_output_cones(base, campaign);
  std::vector<netlist::Circuit> family{base};
  for (const harden::TransformOptions& config :
       harden::enumerate_candidates(base.num_outputs(), sweep)) {
    family.push_back(harden::harden_transform(base, config, ranking).circuit);
  }
  return family;
}

std::vector<const netlist::Circuit*> pointers(
    const std::vector<netlist::Circuit>& circuits) {
  std::vector<const netlist::Circuit*> out;
  for (const netlist::Circuit& c : circuits) out.push_back(&c);
  return out;
}

TEST(ProfileGroup, HardenSweepCandidatesShareOneUnionOfTheBase) {
  for (const char* name : {"c432", "rca16"}) {
    const analysis::CompiledCircuit base =
        analysis::compile(gen::find_benchmark(name).build()).mapped(3);
    const std::vector<netlist::Circuit> family = sweep_family(base.circuit());
    std::size_t member_nodes = 0;
    for (const netlist::Circuit& c : family) member_nodes += c.node_count();
    const std::size_t union_nodes = expect_group_matches_alone(
        pointers(family), ProfileOptions{}, name);
    // Replicas and voters hash onto the base's classes and comparators onto
    // a constant, so the union is the base plus at most the two constants.
    EXPECT_LE(union_nodes, base.circuit().node_count() + 2)
        << name << ": " << union_nodes << " union nodes for " << member_nodes
        << " member nodes";
  }
}

TEST(ProfileGroup, C17CandidatesOnTheExactRoute) {
  const std::vector<netlist::Circuit> family = sweep_family(gen::c17());
  const ProfileOptions options;
  ASSERT_LE(5, options.exact_activity_max_inputs);
  (void)expect_group_matches_alone(pointers(family), options, "c17");
}

TEST(ProfileGroup, UnrelatedCircuitsWithOneInputCount) {
  const netlist::Circuit parity = gen::parity_tree(8, 2);
  const netlist::Circuit mult = gen::array_multiplier(4);
  ASSERT_EQ(parity.num_inputs(), mult.num_inputs());
  ProfileOptions options;
  (void)expect_group_matches_alone({&parity, &mult}, options, "exact route");
  options.prefer_exact_activity = false;
  options.activity_pairs = 300;
  options.sensitivity_exact_max_inputs = 6;
  options.sensitivity_sample_words = 40;
  (void)expect_group_matches_alone({&mult, &parity}, options,
                                   "Monte-Carlo route");
}

TEST(ProfileGroup, SameContentTwice) {
  const netlist::Circuit a = gen::ripple_carry_adder(8);
  const netlist::Circuit b = gen::ripple_carry_adder(8);
  ProfileOptions options;
  options.activity_pairs = 300;
  options.sensitivity_exact_max_inputs = 8;
  options.sensitivity_sample_words = 40;
  const std::size_t union_nodes =
      expect_group_matches_alone({&a, &b}, options, "rca8 twice");
  EXPECT_LE(union_nodes, a.node_count());
}

TEST(ProfileGroup, ConstantAndMissingOutputs) {
  // One output constant beside a live one; every output constant; no output
  // at all. All share the inputs of a live reference circuit.
  const netlist::Circuit live = gen::ripple_carry_adder(2);
  const std::size_t n = live.num_inputs();
  const auto build = [n](const std::string& name, bool live_output,
                         bool constant_output) {
    netlist::Circuit c(name);
    std::vector<netlist::NodeId> in;
    for (std::size_t i = 0; i < n; ++i) in.push_back(c.add_input());
    const netlist::NodeId x = c.add_gate(netlist::GateType::kXor, in[0], in[1]);
    const netlist::NodeId never =
        c.add_gate(netlist::GateType::kAnd, in[2],
                   c.add_gate(netlist::GateType::kNot, in[2]));
    if (live_output) c.add_output(x);
    if (constant_output) {
      c.add_output(never);
      c.add_output(c.add_gate(netlist::GateType::kNand, never, x));
    }
    return c;
  };
  const netlist::Circuit mixed = build("mixed", true, true);
  const netlist::Circuit constant = build("constant", false, true);
  const netlist::Circuit silent = build("silent", false, false);
  ASSERT_EQ(silent.num_outputs(), 0u);
  ProfileOptions options;
  (void)expect_group_matches_alone({&live, &mixed, &constant, &silent},
                                   options, "exact route");
  options.prefer_exact_activity = false;
  options.activity_pairs = 300;
  options.sensitivity_exact_max_inputs = 2;
  options.sensitivity_sample_words = 40;
  (void)expect_group_matches_alone({&silent, &constant, &mixed, &live},
                                   options, "sampled route");
}

TEST(ProfileGroup, CircuitsWithoutInputs) {
  const auto build = [](const std::string& name, bool value) {
    netlist::Circuit c(name);
    const netlist::NodeId k = c.add_const(value);
    c.add_output(c.add_gate(netlist::GateType::kNot, k));
    return c;
  };
  const netlist::Circuit zero = build("zero", false);
  const netlist::Circuit one = build("one", true);
  ProfileOptions options;
  (void)expect_group_matches_alone({&zero, &one}, options, "exact route");
  options.prefer_exact_activity = false;
  options.activity_pairs = 64;
  (void)expect_group_matches_alone({&one, &zero}, options, "Monte-Carlo");
}

TEST(ProfileGroup, RejectsMixedInputCountsAndGatelessMembers) {
  const netlist::Circuit c17 = gen::c17();
  const netlist::Circuit rca4 = gen::ripple_carry_adder(4);
  netlist::Circuit gateless;
  for (int i = 0; i < 5; ++i) gateless.add_output(gateless.add_input());
  EXPECT_THROW(ProfileExtraction({&c17, &rca4}, ProfileOptions{}),
               std::invalid_argument);
  try {
    ProfileExtraction({&c17, &gateless}, ProfileOptions{});
    ADD_FAILURE() << "a gateless member must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "extract_profile: circuit has no gates to profile");
  }
  EXPECT_THROW(ProfileExtraction({}, ProfileOptions{}), std::invalid_argument);
}

}  // namespace
}  // namespace enb::core
