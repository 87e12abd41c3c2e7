// Switching-activity and signal-probability estimation.
//
// The paper's circuit profiles need the average per-gate switching activity
// sw0 under random inputs (Section 6: "average switching activity of a
// generic gate ... obtained considering randomly generated inputs"). Under
// temporally independent vectors, sw(x) = P(x_t != x_{t+1}) = 2 p (1-p);
// the Monte-Carlo estimator below applies independent vector *pairs*, which
// realizes that definition directly; the identity is also exposed so exact
// probabilities (from the BDD package) can be converted.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"
#include "sim/flat_circuit.hpp"
#include "sim/bitpack.hpp"
#include "util/sync.hpp"

namespace enb::sim {

struct ActivityResult {
  std::vector<double> one_probability;   // per node
  std::vector<double> toggle_rate;       // per node: P(value changes)
  double avg_gate_one_probability = 0.0; // mean over counts_as_gate nodes
  double avg_gate_toggle_rate = 0.0;     // the paper's sw0
  std::size_t sample_pairs = 0;
};

struct ActivityOptions {
  std::size_t sample_pairs = 1 << 14;  // vector pairs (64 lanes each)
  std::uint64_t seed = 1;
  double input_one_probability = 0.5;
  // Parallel execution. The pair budget is split into shards of
  // `shard_pairs`; shard i draws all randomness from a counter-based stream
  // seeded by (seed, i), so the estimate is bit-identical for every thread
  // count.
  std::size_t shard_pairs = 256;
};

// Monte-Carlo estimate over random vector pairs, parallelized per `how`
// (results are bit-identical for any thread count).
[[nodiscard]] ActivityResult estimate_activity(
    const netlist::Circuit& circuit, const ActivityOptions& options = {},
    exec::Parallelism how = {});

// The shard decomposition of `options.sample_pairs` into shards of
// `shard_pairs`. Throws std::invalid_argument on a zero sample budget.
[[nodiscard]] exec::ShardPlan activity_shard_plan(
    const ActivityOptions& options);

// Per-node integer accumulators of one or more shards; merge by +.
struct ActivityCounts {
  std::vector<std::uint64_t> ones;     // set lanes per node
  std::vector<std::uint64_t> toggles;  // differing lanes per node pair
  explicit ActivityCounts(std::size_t nodes)
      : ones(nodes, 0), toggles(nodes, 0) {}
  void merge(const ActivityCounts& other);
  // Rates and gate averages over `sample_pairs` pairs of 64-lane vectors,
  // where `ones` counted `vectors_per_pair` vectors of each pair.
  [[nodiscard]] ActivityResult result(const netlist::Circuit& circuit,
                                      std::size_t sample_pairs,
                                      int vectors_per_pair) const;
};

// The estimator as a task set (exec::run_tasks): one task per shard of
// `shard_pairs` vector pairs. Shard i draws from the counter-based stream of
// (seed, i) and its per-node counts merge by integer sum, so
// estimate_activity, a profile extraction and a batched activity job give
// the same bits for any schedule. The inputs a shard sees depend only on
// (seed, i, input count), which is what lets a profile extraction sweep one
// union netlist for many circuits. Each task adds its gate evaluations (two
// full sweeps per pair) to the `sim-activity-gate-evals-total` counter
// (observability only).
class ActivityTasks {
 public:
  // Throws std::invalid_argument on a zero sample budget. `circuit` must
  // outlive the task set.
  ActivityTasks(const netlist::Circuit& circuit,
                const ActivityOptions& options);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return plan_.num_shards();
  }
  void run_task(std::size_t task);
  [[nodiscard]] ActivityResult finish();
  // The merged per-node counts, for a caller that gathers them into another
  // circuit's node order.
  [[nodiscard]] ActivityCounts counts();

 private:
  const netlist::Circuit& circuit_;
  ActivityOptions options_;
  exec::ShardPlan plan_;
  FlatCircuit flat_;  // shared read-only by the tasks
  util::Mutex mutex_;
  ActivityCounts counts_ ENB_GUARDED_BY(mutex_);
};

// Exhaustive (exact) activity for small circuits: one-probabilities from the
// full truth table, toggle rates via sw = 2 p (1-p) (temporal independence).
[[nodiscard]] ActivityResult exact_activity(const netlist::Circuit& circuit);

// Temporal-independence identity sw = 2 p (1 - p).
[[nodiscard]] constexpr double activity_from_probability(double p) noexcept {
  return 2.0 * p * (1.0 - p);
}

}  // namespace enb::sim
