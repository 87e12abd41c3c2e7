// The task-set contract every piece of sharded work relies on: a task set's
// tasks may run in any order, or concurrently, and finish() still returns
// the same result. The batch engine interleaves the tasks of many task sets
// over one pool, so it depends on exactly this. Each test runs fresh task
// sets forward, in reverse, and through exec::run_tasks on a dedicated pool
// of three workers, and requires identical results from all three.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/profile.hpp"
#include "exec/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "ft/nmr.hpp"
#include "gen/adders.hpp"
#include "gen/iscas.hpp"
#include "gen/multipliers.hpp"
#include "sim/activity.hpp"
#include "sim/noise.hpp"
#include "sim/reliability.hpp"
#include "sim/sensitivity.hpp"

namespace enb {
namespace {

using netlist::Circuit;

// The finish() results of three fresh task sets from `make` (a factory of
// std::unique_ptr<task set>): tasks run forward, in reverse, and on a
// dedicated pool of three. Fails the test when a set has fewer than two
// tasks, where order could not matter.
template <typename Make>
auto three_schedules(Make make) {
  auto forward = make();
  EXPECT_GE(forward->num_tasks(), 2u) << "order cannot matter";
  for (std::size_t i = 0; i < forward->num_tasks(); ++i) forward->run_task(i);
  auto reverse = make();
  for (std::size_t i = reverse->num_tasks(); i-- > 0;) reverse->run_task(i);
  auto pooled = make();
  auto forward_result = forward->finish();
  auto reverse_result = reverse->finish();
  auto pooled_result =
      exec::run_tasks(*pooled, exec::Parallelism::dedicated(3));
  return std::array{std::move(forward_result), std::move(reverse_result),
                    std::move(pooled_result)};
}

void expect_same(const sim::ReliabilityResult& a,
                 const sim::ReliabilityResult& b) {
  EXPECT_EQ(a.delta_hat, b.delta_hat);
  EXPECT_EQ(a.ci_low, b.ci_low);
  EXPECT_EQ(a.ci_high, b.ci_high);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.requested_trials, b.requested_trials);
  EXPECT_EQ(a.failures, b.failures);
}

void expect_same(const sim::WorstCaseResult& a, const sim::WorstCaseResult& b) {
  expect_same(a.worst, b.worst);
  EXPECT_EQ(a.average_delta, b.average_delta);
  EXPECT_EQ(a.worst_input, b.worst_input);
}

void expect_same(const sim::ActivityResult& a, const sim::ActivityResult& b) {
  EXPECT_EQ(a.one_probability, b.one_probability);
  EXPECT_EQ(a.toggle_rate, b.toggle_rate);
  EXPECT_EQ(a.avg_gate_one_probability, b.avg_gate_one_probability);
  EXPECT_EQ(a.avg_gate_toggle_rate, b.avg_gate_toggle_rate);
  EXPECT_EQ(a.sample_pairs, b.sample_pairs);
}

void expect_same(const sim::SensitivityResult& a,
                 const sim::SensitivityResult& b) {
  EXPECT_EQ(a.sensitivity, b.sensitivity);
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.influence, b.influence);
  EXPECT_EQ(a.total_influence, b.total_influence);
  EXPECT_EQ(a.assignments, b.assignments);
}

void expect_same(const fault::FaultCampaignResult& a,
                 const fault::FaultCampaignResult& b) {
  EXPECT_EQ(a, b);
}

void expect_same(const core::CircuitProfile& a, const core::CircuitProfile& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_inputs, b.num_inputs);
  EXPECT_EQ(a.num_outputs, b.num_outputs);
  EXPECT_EQ(a.size_s0, b.size_s0);
  EXPECT_EQ(a.depth_d0, b.depth_d0);
  EXPECT_EQ(a.avg_fanin_k, b.avg_fanin_k);
  EXPECT_EQ(a.max_fanin, b.max_fanin);
  EXPECT_EQ(a.avg_activity_sw0, b.avg_activity_sw0);
  EXPECT_EQ(a.sensitivity_s, b.sensitivity_s);
  EXPECT_EQ(a.sensitivity_exact, b.sensitivity_exact);
}

void expect_same(const std::vector<core::CircuitProfile>& a,
                 const std::vector<core::CircuitProfile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    SCOPED_TRACE("member " + std::to_string(m));
    expect_same(a[m], b[m]);
  }
}

template <typename Make>
void expect_schedule_independent(Make make) {
  const auto results = three_schedules(make);
  {
    SCOPED_TRACE("reverse");
    expect_same(results[0], results[1]);
  }
  {
    SCOPED_TRACE("dedicated(3)");
    expect_same(results[0], results[2]);
  }
}

TEST(TaskSets, ReliabilityAgainstItself) {
  const Circuit circuit = gen::array_multiplier(4);
  sim::ReliabilityOptions options;
  options.trials = 64 * 40;
  options.shard_passes = 4;
  expect_schedule_independent([&] {
    return std::make_unique<sim::ReliabilityTasks>(circuit, circuit, 0.02,
                                                   options);
  });
}

TEST(TaskSets, ReliabilityAgainstAGolden) {
  const Circuit golden = gen::c17();
  const Circuit tmr = ft::nmr_transform(golden).circuit;
  sim::ReliabilityOptions options;
  options.trials = 64 * 30;
  options.shard_passes = 3;
  options.input_one_probability = 0.3;
  expect_schedule_independent([&] {
    return std::make_unique<sim::ReliabilityTasks>(tmr, golden, 0.05,
                                                   options);
  });
}

TEST(TaskSets, WorstCase) {
  const Circuit golden = gen::ripple_carry_adder(4);
  const Circuit tmr = ft::nmr_transform(golden).circuit;
  sim::WorstCaseOptions options;
  options.num_inputs = 12;
  options.trials_per_input = 256;
  expect_schedule_independent([&] {
    return std::make_unique<sim::WorstCaseTasks>(tmr, golden, 0.03, options);
  });
}

TEST(TaskSets, Activity) {
  const Circuit circuit = gen::array_multiplier(4);
  sim::ActivityOptions options;
  options.sample_pairs = 500;
  options.shard_pairs = 32;
  expect_schedule_independent([&] {
    return std::make_unique<sim::ActivityTasks>(circuit, options);
  });
}

TEST(TaskSets, NoisyActivity) {
  const Circuit circuit = gen::ripple_carry_adder(4);
  sim::ActivityOptions options;
  options.sample_pairs = 300;
  options.shard_pairs = 32;
  expect_schedule_independent([&] {
    return std::make_unique<sim::NoisyActivityTasks>(circuit, 0.05, options);
  });
}

TEST(TaskSets, ExactSensitivity) {
  const Circuit circuit = gen::array_multiplier(4);
  sim::SensitivityOptions options;
  options.shard_words = 1;
  ASSERT_TRUE(sim::sensitivity_is_exact(circuit, options));
  expect_schedule_independent([&] {
    return std::make_unique<sim::SensitivityTasks>(circuit, options);
  });
}

TEST(TaskSets, SampledSensitivity) {
  // A multiplier, not an adder: every input of an adder flips some output
  // on every assignment, so all shards would count the same influences.
  const Circuit circuit = gen::array_multiplier(6);
  sim::SensitivityOptions options;
  options.max_exact_inputs = 8;
  options.sample_words = 40;
  options.shard_words = 8;
  ASSERT_FALSE(sim::sensitivity_is_exact(circuit, options));
  expect_schedule_independent([&] {
    return std::make_unique<sim::SensitivityTasks>(circuit, options);
  });
}

TEST(TaskSets, CampaignWithDropping) {
  const Circuit golden = gen::ripple_carry_adder(4);
  const Circuit tmr = ft::nmr_transform(golden).circuit;
  fault::CampaignOptions options;
  options.patterns = 200;
  options.shard_patterns = 16;
  options.drop = true;
  expect_schedule_independent([&] {
    return std::make_unique<fault::CampaignTasks>(tmr, golden, options);
  });
}

TEST(TaskSets, CampaignFillingADetectionTable) {
  const Circuit circuit = gen::c17();
  fault::CampaignOptions options;
  options.exhaustive = true;
  options.shard_patterns = 4;
  const fault::FaultUniverse universe = fault::FaultUniverse::build(circuit);
  std::array<fault::DetectionTable, 3> tables;
  std::size_t made = 0;
  expect_schedule_independent([&] {
    return std::make_unique<fault::CampaignTasks>(circuit, circuit, universe,
                                                  options, tables[made++]);
  });
  ASSERT_EQ(made, 3u);
  ASSERT_EQ(tables[0].patterns.size(), 32u);
  for (std::size_t i = 1; i < tables.size(); ++i) {
    EXPECT_EQ(tables[0].patterns, tables[i].patterns) << "table " << i;
    EXPECT_EQ(tables[0].detected, tables[i].detected) << "table " << i;
    EXPECT_EQ(tables[0].counts.first_pattern, tables[i].counts.first_pattern)
        << "table " << i;
    EXPECT_EQ(tables[0].counts.first_output, tables[i].counts.first_output)
        << "table " << i;
    EXPECT_EQ(tables[0].passes, tables[i].passes) << "table " << i;
  }
}

TEST(TaskSets, ProfileExtractionWithExactActivity) {
  // 12 inputs: 64 exhaustive blocks, so the sensitivity sweep has two
  // shards besides the BDD task.
  const Circuit circuit = gen::array_multiplier(6);
  core::ProfileOptions options;
  ASSERT_LE(static_cast<int>(circuit.num_inputs()),
            options.exact_activity_max_inputs);
  expect_schedule_independent([&] {
    return std::make_unique<core::ProfileExtraction>(
        std::vector<const Circuit*>{&circuit}, options);
  });
}

TEST(TaskSets, ProfileExtractionWithSampledActivity) {
  const Circuit circuit = gen::ripple_carry_adder(8);
  core::ProfileOptions options;
  options.activity_pairs = 700;
  options.sensitivity_exact_max_inputs = 8;
  options.sensitivity_sample_words = 64;
  ASSERT_GT(static_cast<int>(circuit.num_inputs()),
            options.exact_activity_max_inputs);
  expect_schedule_independent([&] {
    return std::make_unique<core::ProfileExtraction>(
        std::vector<const Circuit*>{&circuit}, options);
  });
}

}  // namespace
}  // namespace enb
