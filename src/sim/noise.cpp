#include "sim/noise.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"

namespace enb::sim {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;

NoisySim::NoisySim(const Circuit& circuit, double epsilon, std::uint64_t seed)
    : NoisySim(circuit,
               std::vector<double>(circuit.node_count(), epsilon), seed) {}

NoisySim::NoisySim(const FlatCircuit& flat, double epsilon, std::uint64_t seed)
    : NoisySim(nullptr, &flat, std::vector<double>(flat.node_count(), epsilon),
               seed) {}

NoisySim::NoisySim(const Circuit& circuit, std::vector<double> epsilons,
                   std::uint64_t seed)
    : NoisySim(std::make_unique<const FlatCircuit>(circuit), nullptr,
               std::move(epsilons), seed) {}

NoisySim::NoisySim(std::unique_ptr<const FlatCircuit> owned,
                   const FlatCircuit* shared, std::vector<double> epsilons,
                   std::uint64_t seed)
    : owned_(std::move(owned)),
      flat_(shared != nullptr ? shared : owned_.get()),
      epsilons_(std::move(epsilons)),
      rng_(seed),
      values_(flat_->node_count(), 0),
      errors_(flat_->node_count(), 0) {
  if (epsilons_.size() != flat_->node_count()) {
    throw std::invalid_argument("NoisySim: epsilon vector size mismatch");
  }
  for (double e : epsilons_) {
    if (e < 0.0 || e > 0.5) {
      throw std::invalid_argument(
          "NoisySim: epsilon must be in [0, 0.5], got " + std::to_string(e));
    }
  }
}

void NoisySim::eval(std::span<const Word> input_words) {
  if (input_words.size() != flat_->num_inputs()) {
    throw std::invalid_argument("NoisySim::eval: input word count mismatch");
  }
  for (NodeId id = 0; id < flat_->node_count(); ++id) {
    const GateType kind = flat_->kind(id);
    if (kind == GateType::kInput) {
      values_[id] =
          input_words[static_cast<std::size_t>(flat_->input_slot(id))];
      errors_[id] = 0;
      continue;
    }
    const Word clean = eval_gate(*flat_, id, values_.data());
    if (counts_as_gate(kind) && epsilons_[id] > 0.0) {
      errors_[id] = bernoulli_word(rng_, epsilons_[id]);
      values_[id] = clean ^ errors_[id];
    } else {
      errors_[id] = 0;
      values_[id] = clean;
    }
  }
}

std::vector<Word> NoisySim::output_values() const {
  std::vector<Word> out;
  out.reserve(flat_->num_outputs());
  for (NodeId id : flat_->outputs()) out.push_back(values_[id]);
  return out;
}

namespace {

// Validates, then splits sample_pairs into shards of shard_pairs.
exec::ShardPlan noisy_activity_plan(const ActivityOptions& options) {
  if (options.sample_pairs == 0) {
    throw std::invalid_argument(
        "estimate_noisy_activity: sample_pairs must be > 0");
  }
  return exec::ShardPlan(options.sample_pairs, options.shard_pairs);
}

}  // namespace

NoisyActivityTasks::NoisyActivityTasks(const Circuit& circuit, double epsilon,
                                       const ActivityOptions& options)
    : circuit_(circuit),
      epsilon_(epsilon),
      options_(options),
      plan_(noisy_activity_plan(options)),
      flat_(circuit),
      counts_(circuit.node_count()) {}

void NoisyActivityTasks::run_task(std::size_t task) {
  const exec::Shard shard = plan_.shard(task);
  const std::size_t n = circuit_.node_count();
  Xoshiro256 rng(exec::stream_seed(options_.seed, shard.index));
  NoisySim sim(flat_, epsilon_, rng.next());
  std::vector<Word> in_a(circuit_.num_inputs());
  std::vector<Word> in_b(circuit_.num_inputs());
  std::vector<Word> first(n);
  ActivityCounts local(n);

  for (std::size_t pair = shard.begin; pair < shard.end; ++pair) {
    for (Word& w : in_a) w = input_word(rng, options_.input_one_probability);
    for (Word& w : in_b) w = input_word(rng, options_.input_one_probability);
    sim.eval(in_a);
    std::copy(sim.values().begin(), sim.values().end(), first.begin());
    sim.eval(in_b);
    for (std::size_t id = 0; id < n; ++id) {
      local.ones[id] += static_cast<std::uint64_t>(popcount(first[id])) +
                        static_cast<std::uint64_t>(popcount(sim.values()[id]));
      local.toggles[id] +=
          static_cast<std::uint64_t>(popcount(first[id] ^ sim.values()[id]));
    }
  }
  const util::LockGuard lock(mutex_);
  counts_.merge(local);
}

ActivityResult NoisyActivityTasks::finish() {
  const util::LockGuard lock(mutex_);
  return counts_.result(circuit_, options_.sample_pairs, 2);
}

ActivityResult estimate_noisy_activity(const Circuit& circuit, double epsilon,
                                       const ActivityOptions& options,
                                       exec::Parallelism how) {
  return exec::run_tasks(NoisyActivityTasks(circuit, epsilon, options), how);
}

}  // namespace enb::sim
