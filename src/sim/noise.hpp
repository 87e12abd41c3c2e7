// Noisy (ε-flip) simulation: the paper's error model in executable form.
//
// Each failure-prone gate is modeled as an error-free gate cascaded with a
// symmetric channel of error probability ε (paper Figure 1): after the gate's
// word is computed, each lane independently flips with probability ε.
// Primary inputs and constants never fail; per-gate ε overrides support
// heterogeneous-noise ablations. The clean gate values come from the shared
// flat kernel (sim/flat_circuit.hpp); error words are drawn in node-id order,
// one per failure-prone gate, so the noise stream is fixed by the seed.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "sim/activity.hpp"
#include "sim/bitpack.hpp"
#include "sim/flat_circuit.hpp"
#include "sim/prng.hpp"
#include "util/sync.hpp"

namespace enb::sim {

class NoisySim {
 public:
  // Uniform gate error probability `epsilon` in [0, 0.5]. Builds (and owns)
  // the flat form of `circuit`.
  NoisySim(const netlist::Circuit& circuit, double epsilon,
           std::uint64_t seed);

  // Shares an existing flat form, which must outlive the simulator; the
  // draws are those of the owning form over the same circuit.
  NoisySim(const FlatCircuit& flat, double epsilon, std::uint64_t seed);

  // Heterogeneous variant: `epsilons` holds one entry per node (entries for
  // inputs/constants are ignored).
  NoisySim(const netlist::Circuit& circuit, std::vector<double> epsilons,
           std::uint64_t seed);

  // Evaluates with fresh error draws. Each call consumes randomness, so two
  // calls with the same inputs model two independent noisy executions.
  void eval(std::span<const Word> input_words);

  [[nodiscard]] Word value(netlist::NodeId id) const { return values_.at(id); }
  [[nodiscard]] std::span<const Word> values() const noexcept { return values_; }
  [[nodiscard]] std::vector<Word> output_values() const;

  // Error words applied on the last eval (bit set == lane flipped), useful
  // for tests and fault-coverage statistics.
  [[nodiscard]] std::span<const Word> last_error_words() const noexcept {
    return errors_;
  }

 private:
  // `shared` when non-null, else `owned` (which must then be non-null).
  NoisySim(std::unique_ptr<const FlatCircuit> owned,
           const FlatCircuit* shared, std::vector<double> epsilons,
           std::uint64_t seed);

  std::unique_ptr<const FlatCircuit> owned_;
  const FlatCircuit* flat_;
  std::vector<double> epsilons_;
  Xoshiro256 rng_;
  std::vector<Word> values_;
  std::vector<Word> errors_;
};

// Monte-Carlo switching activity of the *noisy* circuit: temporally
// independent vector pairs, each evaluated with fresh error draws — the
// executable version of Theorem 1's sw(z). Returns the usual ActivityResult
// (per-node toggle rates, per-gate average = the paper's sw_eps).
[[nodiscard]] ActivityResult estimate_noisy_activity(
    const netlist::Circuit& circuit, double epsilon,
    const ActivityOptions& options = {}, exec::Parallelism how = {});

// estimate_noisy_activity as a task set (exec::run_tasks), sharded exactly
// like ActivityTasks: shard i's inputs and its private noise source both
// derive from the counter-based stream of (seed, i), and per-node counts
// merge by integer sum, so the estimate is bit-identical for any schedule.
// The flat form is built once per task set and shared by its tasks.
class NoisyActivityTasks {
 public:
  // Throws std::invalid_argument on a zero sample budget; an epsilon outside
  // [0, 0.5] throws from the tasks. `circuit` must outlive the task set.
  NoisyActivityTasks(const netlist::Circuit& circuit, double epsilon,
                     const ActivityOptions& options);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return plan_.num_shards();
  }
  void run_task(std::size_t task);
  [[nodiscard]] ActivityResult finish();

 private:
  const netlist::Circuit& circuit_;
  double epsilon_;
  ActivityOptions options_;
  exec::ShardPlan plan_;
  FlatCircuit flat_;  // shared read-only by the tasks
  util::Mutex mutex_;
  // ones counts both vectors of every pair.
  ActivityCounts counts_ ENB_GUARDED_BY(mutex_);
};

}  // namespace enb::sim
