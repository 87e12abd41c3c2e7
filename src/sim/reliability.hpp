// Monte-Carlo reliability estimation: the empirical counterpart of the
// paper's δ.
//
// A circuit (1-δ)-reliably computes f when, with probability at least 1-δ,
// the entire output vector is correct. The estimator runs the noisy and the
// golden simulation on the same random inputs (64 independent trials per
// word pass) and reports the failure fraction with a Wilson confidence
// interval.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"
#include "sim/bitpack.hpp"
#include "sim/flat_circuit.hpp"

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

// The estimator as a task set (exec::run_tasks): one task per shard of the
// word-pass plan (trials rounded up to 64-trial passes, in shards of
// `shard_passes`). Shard i draws its inputs and its private fault-injection
// stream from the counter-based stream of (seed, i), and failures merge by
// integer sum. estimate_reliability_vs runs it, and the batch engine
// (exec/batch.hpp) schedules the same tasks interleaved with other jobs', so
// a batched job is bit-identical to a direct call by construction.
class ReliabilityTasks {
 public:
  // Throws std::invalid_argument on an interface mismatch or a zero trial
  // budget.
  ReliabilityTasks(const netlist::Circuit& noisy,
                   const netlist::Circuit& golden, double epsilon,
                   const ReliabilityOptions& options);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return plan_.num_shards();
  }
  void run_task(std::size_t task);
  [[nodiscard]] ReliabilityResult finish() const;

 private:
  double epsilon_;
  ReliabilityOptions options_;
  exec::ShardPlan plan_;
  // Built once per task set and shared read-only by the tasks.
  FlatCircuit noisy_flat_;
  FlatCircuit golden_flat_;
  std::atomic<std::uint64_t> failures_{0};
};

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

// The worst-case estimator as a task set: one task per sampled input, each
// writing its failure count into the sample's own slot; finish() reduces the
// slots serially in sample order (argmax, average, and the argmax assignment
// re-derived from its stream).
class WorstCaseTasks {
 public:
  // Throws like estimate_worst_case_reliability on invalid inputs.
  WorstCaseTasks(const netlist::Circuit& noisy, const netlist::Circuit& golden,
                 double epsilon, const WorstCaseOptions& options);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return sample_failures_.size();
  }
  void run_task(std::size_t sample);
  [[nodiscard]] WorstCaseResult finish() const;

 private:
  double epsilon_;
  WorstCaseOptions options_;
  // Built once per task set and shared read-only by the tasks.
  FlatCircuit noisy_flat_;
  FlatCircuit golden_flat_;
  std::vector<std::uint64_t> sample_failures_;  // one slot per sample
};

}  // namespace enb::sim
