#include "sim/activity.hpp"

#include <stdexcept>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/exhaustive.hpp"
#include "sim/logic_sim.hpp"
#include "sim/prng.hpp"

namespace enb::sim {

using netlist::Circuit;
using netlist::NodeId;

namespace {

void finalize_gate_averages(const Circuit& circuit, ActivityResult& result) {
  double p_sum = 0.0;
  double sw_sum = 0.0;
  std::size_t gates = 0;
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    if (!counts_as_gate(circuit.type(id))) continue;
    p_sum += result.one_probability[id];
    sw_sum += result.toggle_rate[id];
    ++gates;
  }
  result.avg_gate_one_probability = gates == 0 ? 0.0 : p_sum / static_cast<double>(gates);
  result.avg_gate_toggle_rate = gates == 0 ? 0.0 : sw_sum / static_cast<double>(gates);
}

obs::Counter& gate_evals_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("sim-activity-gate-evals-total");
  return counter;
}

}  // namespace

exec::ShardPlan activity_shard_plan(const ActivityOptions& options) {
  if (options.sample_pairs == 0) {
    throw std::invalid_argument("estimate_activity: sample_pairs must be > 0");
  }
  return exec::ShardPlan(options.sample_pairs, options.shard_pairs);
}

void ActivityCounts::merge(const ActivityCounts& other) {
  for (std::size_t id = 0; id < ones.size(); ++id) {
    ones[id] += other.ones[id];
    toggles[id] += other.toggles[id];
  }
}

ActivityResult ActivityCounts::result(const Circuit& circuit,
                                      std::size_t sample_pairs,
                                      int vectors_per_pair) const {
  const std::size_t n = circuit.node_count();
  const double lanes = static_cast<double>(sample_pairs) * kWordBits;
  ActivityResult result;
  result.sample_pairs = sample_pairs;
  result.one_probability.resize(n);
  result.toggle_rate.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    result.one_probability[id] =
        static_cast<double>(ones[id]) /
        (static_cast<double>(vectors_per_pair) * lanes);
    result.toggle_rate[id] = static_cast<double>(toggles[id]) / lanes;
  }
  finalize_gate_averages(circuit, result);
  return result;
}

ActivityTasks::ActivityTasks(const Circuit& circuit,
                             const ActivityOptions& options)
    : circuit_(circuit),
      options_(options),
      plan_(activity_shard_plan(options)),
      flat_(circuit),
      counts_(circuit.node_count()) {}

void ActivityTasks::run_task(std::size_t task) {
  const exec::Shard shard = plan_.shard(task);
  const std::size_t n = flat_.node_count();
  const double p_in = options_.input_one_probability;
  Xoshiro256 rng(exec::stream_seed(options_.seed, shard.index));
  LogicSim sim_a(flat_);
  LogicSim sim_b(flat_);
  std::vector<Word> in_a(flat_.num_inputs());
  std::vector<Word> in_b(flat_.num_inputs());
  ActivityCounts local(n);

  for (std::size_t pair = shard.begin; pair < shard.end; ++pair) {
    for (std::size_t i = 0; i < in_a.size(); ++i) {
      in_a[i] = input_word(rng, p_in);
      in_b[i] = input_word(rng, p_in);
    }
    sim_a.eval(in_a);
    sim_b.eval(in_b);
    for (std::size_t id = 0; id < n; ++id) {
      const Word a = sim_a.values()[id];
      const Word b = sim_b.values()[id];
      local.ones[id] += static_cast<std::uint64_t>(popcount(a));
      local.toggles[id] += static_cast<std::uint64_t>(popcount(a ^ b));
    }
  }
  gate_evals_counter().add(2 * shard.size() * n);
  const util::LockGuard lock(mutex_);
  counts_.merge(local);
}

ActivityResult ActivityTasks::finish() {
  const util::LockGuard lock(mutex_);
  return counts_.result(circuit_, options_.sample_pairs, 1);
}

ActivityCounts ActivityTasks::counts() {
  const util::LockGuard lock(mutex_);
  return counts_;
}

ActivityResult estimate_activity(const Circuit& circuit,
                                 const ActivityOptions& options,
                                 exec::Parallelism how) {
  return exec::run_tasks(ActivityTasks(circuit, options), how);
}

ActivityResult exact_activity(const Circuit& circuit) {
  const int n = static_cast<int>(circuit.num_inputs());
  const std::uint64_t total = std::uint64_t{1} << n;  // guarded below
  if (n > kMaxExhaustiveInputs) {
    throw std::invalid_argument(
        "exact_activity: too many inputs for exhaustive evaluation");
  }
  std::vector<std::uint64_t> ones(circuit.node_count(), 0);
  LogicSim sim(circuit);
  for_each_exhaustive_block(
      n, [&](std::uint64_t, std::span<const Word> inputs, Word valid) {
        sim.eval(inputs);
        for (std::size_t id = 0; id < circuit.node_count(); ++id) {
          ones[id] += static_cast<std::uint64_t>(
              popcount(sim.values()[id] & valid));
        }
      });

  ActivityResult result;
  result.sample_pairs = 0;  // exact, not sampled
  result.one_probability.resize(circuit.node_count());
  result.toggle_rate.resize(circuit.node_count());
  for (std::size_t id = 0; id < circuit.node_count(); ++id) {
    const double p = static_cast<double>(ones[id]) / static_cast<double>(total);
    result.one_probability[id] = p;
    result.toggle_rate[id] = activity_from_probability(p);
  }
  finalize_gate_averages(circuit, result);
  return result;
}

}  // namespace enb::sim
