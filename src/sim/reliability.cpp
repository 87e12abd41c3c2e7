#include "sim/reliability.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.hpp"
#include "sim/logic_sim.hpp"
#include "sim/noise.hpp"
#include "sim/prng.hpp"

namespace enb::sim {

using netlist::Circuit;

namespace {

// One fixed assignment per worst-case sample, broadcast to all lanes: every
// lane is an independent noise draw for the *same* input. The assignment is
// a pure function of (seed, sample), so callers re-derive the argmax winner
// instead of storing every candidate. The first draw of the sample's stream
// seeds its private noise source; the assignment bits follow.
std::pair<std::vector<bool>, std::uint64_t> worst_case_sample_assignment(
    const FlatCircuit& noisy, const WorstCaseOptions& options,
    std::size_t sample, std::vector<Word>* inputs) {
  Xoshiro256 rng(
      exec::stream_seed(options.seed, static_cast<std::uint64_t>(sample)));
  const std::uint64_t noise_seed = rng.next();
  std::vector<bool> current(noisy.num_inputs());
  for (std::size_t i = 0; i < current.size(); ++i) {
    current[i] = (rng.next() & 1U) != 0;
    if (inputs != nullptr) (*inputs)[i] = current[i] ? kAllOnes : 0;
  }
  return {std::move(current), noise_seed};
}

std::uint64_t worst_case_passes(const WorstCaseOptions& options) {
  return (options.trials_per_input + kWordBits - 1) / kWordBits;
}

// Validates, then plans the word passes: trials rounded up to 64-trial
// passes, split into shards of `shard_passes`.
exec::ShardPlan reliability_plan(const Circuit& noisy, const Circuit& golden,
                                 const ReliabilityOptions& options) {
  if (noisy.num_inputs() != golden.num_inputs() ||
      noisy.num_outputs() != golden.num_outputs()) {
    throw std::invalid_argument(
        "estimate_reliability_vs: interface mismatch between noisy and "
        "golden circuits");
  }
  if (options.trials == 0) {
    throw std::invalid_argument("estimate_reliability: trials must be > 0");
  }
  const std::uint64_t passes = (options.trials + kWordBits - 1) / kWordBits;
  return exec::ShardPlan(static_cast<std::size_t>(passes),
                         static_cast<std::size_t>(options.shard_passes));
}

// Validates, then sizes one failure slot per sampled input.
std::size_t worst_case_samples(const Circuit& noisy, const Circuit& golden,
                               const WorstCaseOptions& options) {
  if (noisy.num_inputs() != golden.num_inputs() ||
      noisy.num_outputs() != golden.num_outputs()) {
    throw std::invalid_argument(
        "estimate_worst_case_reliability: interface mismatch");
  }
  if (options.num_inputs == 0 || options.trials_per_input == 0) {
    throw std::invalid_argument(
        "estimate_worst_case_reliability: counts must be > 0");
  }
  return static_cast<std::size_t>(options.num_inputs);
}

// Failures of the noisy circuit against the golden one over the current
// input block: lanes where any output differs.
std::uint64_t output_failures(const FlatCircuit& noisy,
                              const NoisySim& noisy_sim,
                              const FlatCircuit& golden,
                              const LogicSim& golden_sim) {
  Word wrong = 0;
  for (std::size_t o = 0; o < noisy.num_outputs(); ++o) {
    wrong |= noisy_sim.values()[noisy.outputs()[o]] ^
             golden_sim.values()[golden.outputs()[o]];
  }
  return static_cast<std::uint64_t>(popcount(wrong));
}

}  // namespace

ReliabilityResult wilson_interval(std::uint64_t failures,
                                  std::uint64_t trials) {
  ReliabilityResult r;
  r.trials = trials;
  r.requested_trials = trials;
  r.failures = failures;
  if (trials == 0) return r;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(failures) / n;
  r.delta_hat = p;
  constexpr double z = 1.959963984540054;  // 97.5th percentile of N(0,1)
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  r.ci_low = std::max(0.0, center - half);
  r.ci_high = std::min(1.0, center + half);
  return r;
}

ReliabilityTasks::ReliabilityTasks(const Circuit& noisy, const Circuit& golden,
                                   double epsilon,
                                   const ReliabilityOptions& options)
    : epsilon_(epsilon),
      options_(options),
      plan_(reliability_plan(noisy, golden, options)),
      noisy_flat_(noisy),
      golden_flat_(golden) {}

void ReliabilityTasks::run_task(std::size_t task) {
  const exec::Shard shard = plan_.shard(task);
  Xoshiro256 rng(exec::stream_seed(options_.seed, shard.index));
  NoisySim noisy_sim(noisy_flat_, epsilon_, rng.next());
  LogicSim golden_sim(golden_flat_);
  std::vector<Word> inputs(noisy_flat_.num_inputs());

  std::uint64_t failures = 0;
  for (std::size_t pass = shard.begin; pass < shard.end; ++pass) {
    for (Word& w : inputs) {
      w = input_word(rng, options_.input_one_probability);
    }
    noisy_sim.eval(inputs);
    golden_sim.eval(inputs);
    failures +=
        output_failures(noisy_flat_, noisy_sim, golden_flat_, golden_sim);
  }
  failures_.fetch_add(failures, std::memory_order_relaxed);
}

ReliabilityResult ReliabilityTasks::finish() const {
  ReliabilityResult result =
      wilson_interval(failures_.load(), plan_.total() * kWordBits);
  result.requested_trials = options_.trials;
  return result;
}

ReliabilityResult estimate_reliability_vs(const Circuit& noisy,
                                          const Circuit& golden,
                                          double epsilon,
                                          const ReliabilityOptions& options,
                                          exec::Parallelism how) {
  return exec::run_tasks(ReliabilityTasks(noisy, golden, epsilon, options),
                         how);
}

ReliabilityResult estimate_reliability(const Circuit& circuit, double epsilon,
                                       const ReliabilityOptions& options,
                                       exec::Parallelism how) {
  return estimate_reliability_vs(circuit, circuit, epsilon, options, how);
}

WorstCaseTasks::WorstCaseTasks(const Circuit& noisy, const Circuit& golden,
                               double epsilon, const WorstCaseOptions& options)
    : epsilon_(epsilon),
      options_(options),
      noisy_flat_(noisy),
      golden_flat_(golden),
      sample_failures_(worst_case_samples(noisy, golden, options), 0) {}

void WorstCaseTasks::run_task(std::size_t sample) {
  std::vector<Word> inputs(noisy_flat_.num_inputs());
  const std::uint64_t noise_seed =
      worst_case_sample_assignment(noisy_flat_, options_, sample, &inputs)
          .second;
  NoisySim noisy_sim(noisy_flat_, epsilon_, noise_seed);
  LogicSim golden_sim(golden_flat_);
  golden_sim.eval(inputs);
  std::uint64_t failures = 0;
  const std::uint64_t passes = worst_case_passes(options_);
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    noisy_sim.eval(inputs);
    failures +=
        output_failures(noisy_flat_, noisy_sim, golden_flat_, golden_sim);
  }
  sample_failures_[sample] = failures;
}

WorstCaseResult WorstCaseTasks::finish() const {
  const std::uint64_t executed = worst_case_passes(options_) * kWordBits;
  WorstCaseResult result;
  std::uint64_t worst_failures = 0;
  std::size_t worst_sample = 0;
  double delta_sum = 0.0;
  for (std::size_t sample = 0; sample < sample_failures_.size(); ++sample) {
    delta_sum += static_cast<double>(sample_failures_[sample]) /
                 static_cast<double>(executed);
    if (sample_failures_[sample] >= worst_failures) {
      worst_failures = sample_failures_[sample];
      worst_sample = sample;
    }
  }
  result.worst_input =
      worst_case_sample_assignment(noisy_flat_, options_, worst_sample,
                                   nullptr)
          .first;
  result.worst = wilson_interval(worst_failures, executed);
  result.worst.requested_trials = options_.trials_per_input;
  result.average_delta = delta_sum / static_cast<double>(options_.num_inputs);
  return result;
}

WorstCaseResult estimate_worst_case_reliability(
    const Circuit& noisy, const Circuit& golden, double epsilon,
    const WorstCaseOptions& options, exec::Parallelism how) {
  return exec::run_tasks(WorstCaseTasks(noisy, golden, epsilon, options), how);
}

}  // namespace enb::sim
