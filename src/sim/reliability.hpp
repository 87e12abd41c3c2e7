// Monte-Carlo reliability estimation: the empirical counterpart of the
// paper's δ.
//
// A circuit (1-δ)-reliably computes f when, with probability at least 1-δ,
// the entire output vector is correct. The estimator runs the noisy and the
// golden simulation on the same random inputs (64 independent trials per
// word pass) and reports the failure fraction with a Wilson confidence
// interval.
#pragma once

#include <cstdint>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"
#include "sim/bitpack.hpp"

namespace enb::sim {

struct ReliabilityResult {
  double delta_hat = 0.0;  // estimated P(any output wrong)
  double ci_low = 0.0;     // 95% Wilson interval
  double ci_high = 0.0;
  // The word-parallel simulator executes whole 64-trial passes, so `trials`
  // (the denominator of delta_hat) is the requested count rounded up to a
  // multiple of 64. `requested_trials` echoes what the caller asked for, so
  // downstream consumers (CSV, batch manifests) never mis-normalize failure
  // rates against the wrong denominator.
  std::uint64_t trials = 0;            // executed trials (64-rounded)
  std::uint64_t requested_trials = 0;  // options.trials as requested
  std::uint64_t failures = 0;
};

struct ReliabilityOptions {
  std::uint64_t trials = 1 << 16;  // rounded up to a multiple of 64
  std::uint64_t seed = 7;
  double input_one_probability = 0.5;
  // Parallel execution. The word passes (64 trials each) are split into
  // shards of `shard_passes`; shard i derives all randomness (inputs and its
  // private fault-injection stream) from a counter-based stream of (seed, i),
  // so delta_hat is bit-identical for every thread count.
  std::uint64_t shard_passes = 32;
};

// 95% Wilson score interval for `successes` out of `trials`.
[[nodiscard]] ReliabilityResult wilson_interval(std::uint64_t failures,
                                                std::uint64_t trials);

// ---- shard-level building blocks -----------------------------------------
//
// estimate_reliability_vs decomposes into independent shard tasks; the batch
// engine (exec/batch.hpp) schedules the same tasks interleaved with other
// jobs' shards. Because the estimator is *defined* as the sum of these shard
// bodies, a batched job is bit-identical to a direct estimator call by
// construction.

// Throws std::invalid_argument on interface mismatch or a zero trial budget —
// the validation estimate_reliability_vs applies before sharding.
void validate_reliability_inputs(const netlist::Circuit& noisy,
                                 const netlist::Circuit& golden,
                                 const ReliabilityOptions& options);

// The word-pass decomposition implied by `options`: trials rounded up to
// 64-trial passes, split into shards of `shard_passes`.
[[nodiscard]] exec::ShardPlan reliability_shard_plan(
    const ReliabilityOptions& options);

// Failures contributed by one shard of the plan. A pure function of
// (options.seed, shard.index); callers combine shards by integer sum.
// Precondition: inputs validated (see validate_reliability_inputs).
[[nodiscard]] std::uint64_t reliability_shard_failures(
    const netlist::Circuit& noisy, const netlist::Circuit& golden,
    double epsilon, const ReliabilityOptions& options,
    const exec::Shard& shard);

// Estimates δ for `circuit` with every gate failing independently with
// probability `epsilon`, parallelized per `how`.
[[nodiscard]] ReliabilityResult estimate_reliability(
    const netlist::Circuit& circuit, double epsilon,
    const ReliabilityOptions& options = {}, exec::Parallelism how = {});

// Estimates δ when `noisy` (a redundant implementation) must reproduce
// `golden`'s input/output behaviour; the two circuits must agree on input
// and output counts (inputs matched positionally).
[[nodiscard]] ReliabilityResult estimate_reliability_vs(
    const netlist::Circuit& noisy, const netlist::Circuit& golden,
    double epsilon, const ReliabilityOptions& options = {},
    exec::Parallelism how = {});

// Worst-case-input reliability. The theorems' δ quantifies over *every*
// input ("with probability 1−δ, the output of the circuit is correct"), so
// the input-averaged estimate above understates the achieved δ whenever some
// inputs are more fragile than others (e.g. long carry chains). This
// estimator fixes a set of sampled input vectors and measures each one's
// failure rate across independent noise draws, reporting the maximum.
struct WorstCaseOptions {
  std::uint64_t num_inputs = 64;        // sampled input vectors
  std::uint64_t trials_per_input = 1 << 12;  // noise draws per vector
  // Each sampled input draws from its own counter-based stream of
  // (seed, sample), so the inputs run in parallel; the argmax reduction
  // happens serially in sample order, keeping the result thread-count
  // independent.
  std::uint64_t seed = 0xBAD1;
};

struct WorstCaseResult {
  ReliabilityResult worst;              // CI for the worst sampled input
  double average_delta = 0.0;           // mean over sampled inputs
  std::vector<bool> worst_input;        // the argmax assignment
};

[[nodiscard]] WorstCaseResult estimate_worst_case_reliability(
    const netlist::Circuit& noisy, const netlist::Circuit& golden,
    double epsilon, const WorstCaseOptions& options = {},
    exec::Parallelism how = {});

// Shard-level building blocks of the worst-case estimator (see the
// reliability block above for the contract). Throws like
// estimate_worst_case_reliability on invalid inputs.
void validate_worst_case_inputs(const netlist::Circuit& noisy,
                                const netlist::Circuit& golden,
                                const WorstCaseOptions& options);

// Failures of sampled input `sample` (an independent experiment with its own
// counter-based stream of (options.seed, sample)) across
// options.trials_per_input noise draws (rounded up to 64-trial passes).
[[nodiscard]] std::uint64_t worst_case_sample_failures(
    const netlist::Circuit& noisy, const netlist::Circuit& golden,
    double epsilon, const WorstCaseOptions& options, std::size_t sample);

// Serial reduction over per-sample failure counts: argmax, average, and the
// argmax assignment re-derived from its stream. sample_failures[i] must be
// worst_case_sample_failures(..., i) for every i in [0, options.num_inputs).
[[nodiscard]] WorstCaseResult finalize_worst_case(
    const netlist::Circuit& noisy, const WorstCaseOptions& options,
    const std::vector<std::uint64_t>& sample_failures);

}  // namespace enb::sim
