#include "sim/reliability.hpp"

#include <atomic>
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
    const Circuit& noisy, const WorstCaseOptions& options, std::size_t sample,
    std::vector<Word>* inputs) {
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

void validate_reliability_inputs(const Circuit& noisy, const Circuit& golden,
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
}

exec::ShardPlan reliability_shard_plan(const ReliabilityOptions& options) {
  const std::uint64_t passes = (options.trials + kWordBits - 1) / kWordBits;
  return exec::ShardPlan(static_cast<std::size_t>(passes),
                         static_cast<std::size_t>(options.shard_passes));
}

std::uint64_t reliability_shard_failures(const Circuit& noisy,
                                         const Circuit& golden, double epsilon,
                                         const ReliabilityOptions& options,
                                         const exec::Shard& shard) {
  Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
  NoisySim noisy_sim(noisy, epsilon, rng.next());
  LogicSim golden_sim(golden);
  std::vector<Word> inputs(noisy.num_inputs());

  std::uint64_t failures = 0;
  for (std::size_t pass = shard.begin; pass < shard.end; ++pass) {
    for (Word& w : inputs) {
      w = options.input_one_probability == 0.5
              ? rng.next()
              : bernoulli_word(rng, options.input_one_probability);
    }
    noisy_sim.eval(inputs);
    golden_sim.eval(inputs);
    Word wrong = 0;
    for (std::size_t o = 0; o < noisy.num_outputs(); ++o) {
      wrong |= noisy_sim.value(noisy.outputs()[o]) ^
               golden_sim.value(golden.outputs()[o]);
    }
    failures += static_cast<std::uint64_t>(popcount(wrong));
  }
  return failures;
}

ReliabilityResult estimate_reliability_vs(const Circuit& noisy,
                                          const Circuit& golden,
                                          double epsilon,
                                          const ReliabilityOptions& options,
                                          exec::Parallelism how) {
  validate_reliability_inputs(noisy, golden, options);

  // Sharded over word passes: shard i's inputs and fault injections derive
  // from the counter-based stream of (seed, i), and failures combine through
  // an order-insensitive integer sum — bit-identical for any thread count.
  const exec::ShardPlan plan = reliability_shard_plan(options);
  std::atomic<std::uint64_t> failures{0};
  exec::for_each_shard(
      plan,
      [&](const exec::Shard& shard) {
        failures.fetch_add(
            reliability_shard_failures(noisy, golden, epsilon, options, shard),
            std::memory_order_relaxed);
      },
      how);
  ReliabilityResult result =
      wilson_interval(failures.load(), plan.total() * kWordBits);
  result.requested_trials = options.trials;
  return result;
}

ReliabilityResult estimate_reliability(const Circuit& circuit, double epsilon,
                                       const ReliabilityOptions& options,
                                       exec::Parallelism how) {
  return estimate_reliability_vs(circuit, circuit, epsilon, options, how);
}

void validate_worst_case_inputs(const Circuit& noisy, const Circuit& golden,
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
}

std::uint64_t worst_case_sample_failures(const Circuit& noisy,
                                         const Circuit& golden, double epsilon,
                                         const WorstCaseOptions& options,
                                         std::size_t sample) {
  std::vector<Word> inputs(noisy.num_inputs());
  const std::uint64_t noise_seed =
      worst_case_sample_assignment(noisy, options, sample, &inputs).second;
  NoisySim noisy_sim(noisy, epsilon, noise_seed);
  LogicSim golden_sim(golden);
  golden_sim.eval(inputs);
  std::uint64_t failures = 0;
  const std::uint64_t passes = worst_case_passes(options);
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    noisy_sim.eval(inputs);
    Word wrong = 0;
    for (std::size_t o = 0; o < noisy.num_outputs(); ++o) {
      wrong |= noisy_sim.value(noisy.outputs()[o]) ^
               golden_sim.value(golden.outputs()[o]);
    }
    failures += static_cast<std::uint64_t>(popcount(wrong));
  }
  return failures;
}

WorstCaseResult finalize_worst_case(
    const Circuit& noisy, const WorstCaseOptions& options,
    const std::vector<std::uint64_t>& sample_failures) {
  const std::uint64_t executed = worst_case_passes(options) * kWordBits;
  WorstCaseResult result;
  std::uint64_t worst_failures = 0;
  std::size_t worst_sample = 0;
  double delta_sum = 0.0;
  for (std::size_t sample = 0; sample < sample_failures.size(); ++sample) {
    delta_sum += static_cast<double>(sample_failures[sample]) /
                 static_cast<double>(executed);
    if (sample_failures[sample] >= worst_failures) {
      worst_failures = sample_failures[sample];
      worst_sample = sample;
    }
  }
  result.worst_input =
      worst_case_sample_assignment(noisy, options, worst_sample, nullptr)
          .first;
  result.worst = wilson_interval(worst_failures, executed);
  result.worst.requested_trials = options.trials_per_input;
  result.average_delta = delta_sum / static_cast<double>(options.num_inputs);
  return result;
}

WorstCaseResult estimate_worst_case_reliability(
    const Circuit& noisy, const Circuit& golden, double epsilon,
    const WorstCaseOptions& options, exec::Parallelism how) {
  validate_worst_case_inputs(noisy, golden, options);

  // Every sampled input is an independent experiment with its own
  // counter-based stream, so samples parallelize freely; the per-sample
  // failure counts land in slots indexed by sample and the argmax/average
  // reduction runs serially in sample order — the result cannot depend on
  // the thread count.
  const std::size_t num_samples =
      static_cast<std::size_t>(options.num_inputs);
  std::vector<std::uint64_t> sample_failures(num_samples, 0);
  exec::for_each_index(
      num_samples,
      [&](std::size_t sample) {
        sample_failures[sample] =
            worst_case_sample_failures(noisy, golden, epsilon, options, sample);
      },
      how);
  return finalize_worst_case(noisy, options, sample_failures);
}

}  // namespace enb::sim
