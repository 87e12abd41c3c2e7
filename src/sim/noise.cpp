#include "sim/noise.hpp"

#include <algorithm>
#include <mutex>
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

NoisySim::NoisySim(const Circuit& circuit, std::vector<double> epsilons,
                   std::uint64_t seed)
    : flat_(circuit),
      epsilons_(std::move(epsilons)),
      rng_(seed),
      values_(circuit.node_count(), 0),
      errors_(circuit.node_count(), 0) {
  if (epsilons_.size() != circuit.node_count()) {
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
  if (input_words.size() != flat_.num_inputs()) {
    throw std::invalid_argument("NoisySim::eval: input word count mismatch");
  }
  for (NodeId id = 0; id < flat_.node_count(); ++id) {
    const GateType kind = flat_.kind(id);
    if (kind == GateType::kInput) {
      values_[id] = input_words[static_cast<std::size_t>(flat_.input_slot(id))];
      errors_[id] = 0;
      continue;
    }
    const Word clean = eval_gate(flat_, id, values_.data());
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
  out.reserve(flat_.num_outputs());
  for (NodeId id : flat_.outputs()) out.push_back(values_[id]);
  return out;
}

ActivityResult estimate_noisy_activity(const Circuit& circuit, double epsilon,
                                       const ActivityOptions& options,
                                       exec::Parallelism how) {
  if (options.sample_pairs == 0) {
    throw std::invalid_argument(
        "estimate_noisy_activity: sample_pairs must be > 0");
  }
  const std::size_t n = circuit.node_count();
  std::vector<std::uint64_t> ones(n, 0);
  std::vector<std::uint64_t> toggles(n, 0);

  // Sharded exactly like estimate_activity: per-shard counter-based streams
  // (inputs and the shard's private noise source both derive from the shard
  // stream) plus order-insensitive integer merges keep the estimate
  // bit-identical across thread counts.
  const exec::ShardPlan plan(options.sample_pairs, options.shard_pairs);
  std::mutex merge_mutex;
  exec::for_each_shard(
      plan,
      [&](const exec::Shard& shard) {
        Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
        NoisySim sim(circuit, epsilon, rng.next());
        std::vector<Word> in_a(circuit.num_inputs());
        std::vector<Word> in_b(circuit.num_inputs());
        std::vector<Word> first(n);
        std::vector<std::uint64_t> local_ones(n, 0);
        std::vector<std::uint64_t> local_toggles(n, 0);

        for (std::size_t pair = shard.begin; pair < shard.end; ++pair) {
          for (Word& w : in_a) {
            w = options.input_one_probability == 0.5
                    ? rng.next()
                    : bernoulli_word(rng, options.input_one_probability);
          }
          for (Word& w : in_b) {
            w = options.input_one_probability == 0.5
                    ? rng.next()
                    : bernoulli_word(rng, options.input_one_probability);
          }
          sim.eval(in_a);
          std::copy(sim.values().begin(), sim.values().end(), first.begin());
          sim.eval(in_b);
          for (std::size_t id = 0; id < n; ++id) {
            local_ones[id] +=
                static_cast<std::uint64_t>(popcount(first[id])) +
                static_cast<std::uint64_t>(popcount(sim.values()[id]));
            local_toggles[id] += static_cast<std::uint64_t>(
                popcount(first[id] ^ sim.values()[id]));
          }
        }

        const std::lock_guard<std::mutex> lock(merge_mutex);
        for (std::size_t id = 0; id < n; ++id) {
          ones[id] += local_ones[id];
          toggles[id] += local_toggles[id];
        }
      },
      how);

  const double lanes =
      static_cast<double>(options.sample_pairs) * kWordBits;
  ActivityResult result;
  result.sample_pairs = options.sample_pairs;
  result.one_probability.resize(circuit.node_count());
  result.toggle_rate.resize(circuit.node_count());
  double p_sum = 0.0;
  double sw_sum = 0.0;
  std::size_t gates = 0;
  for (std::size_t id = 0; id < circuit.node_count(); ++id) {
    result.one_probability[id] =
        static_cast<double>(ones[id]) / (2.0 * lanes);
    result.toggle_rate[id] = static_cast<double>(toggles[id]) / lanes;
    if (!counts_as_gate(circuit.type(id))) continue;
    p_sum += result.one_probability[id];
    sw_sum += result.toggle_rate[id];
    ++gates;
  }
  result.avg_gate_one_probability =
      gates == 0 ? 0.0 : p_sum / static_cast<double>(gates);
  result.avg_gate_toggle_rate =
      gates == 0 ? 0.0 : sw_sum / static_cast<double>(gates);
  return result;
}

}  // namespace enb::sim
