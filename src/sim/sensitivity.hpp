// Boolean sensitivity: the `s` parameter of Theorem 2.
//
// The sensitivity of f at assignment x is the number of inputs whose
// individual flip changes the output (for multi-output functions: changes
// any output — equivalently, the sensitivity of the characteristic function,
// which Corollary 1 uses). s(f) = max over x.
//
// Exact computation enumerates all assignments (bit-parallel, n <= 22 by
// default); beyond that, random sampling yields a lower bound — conservative
// in the right direction for a lower-bound theorem. Per-input influences
// P_x[f(x) != f(x ^ e_i)] come out of the same sweep for free.
//
// Each block of 64 base assignments costs one full sweep of the flat kernel
// (sim/flat_circuit.hpp) plus one event-driven flip per input: the input's
// word is complemented, its fanouts are marked dirty, and only dirty nodes
// are re-evaluated in ascending id order; a node whose word changed marks
// its own fanouts, and the flip stops as soon as no dirty node remains. The
// touched nodes are then restored to the base block. The output difference
// is the OR of (new ^ base) over the changed output nodes, exactly the word
// a full re-sweep would give, so the counts are those of n + 1 full sweeps
// at the cost of the flipped inputs' live fanout cones.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/stream.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"
#include "sim/flat_circuit.hpp"
#include "util/sync.hpp"

namespace enb::sim {

struct SensitivityResult {
  int sensitivity = 0;              // max over evaluated assignments
  bool exact = false;               // true if all 2^n assignments were seen
  std::vector<double> influence;    // per input: P[flip i changes any output]
  double total_influence = 0.0;     // sum of influences (avg sensitivity)
  std::uint64_t assignments = 0;    // number of base assignments evaluated
};

struct SensitivityOptions {
  int max_exact_inputs = 22;        // exhaustive up to this many inputs
  std::uint64_t sample_words = 256; // 64 base assignments per word when sampling
  std::uint64_t seed = 3;
  // Parallel execution. Sampled sweeps shard `sample_words` into groups of
  // `shard_words` with per-shard counter-based streams; exact sweeps shard
  // the truth-table blocks. Influence counts merge by sum and sensitivity by
  // max, so results are thread-count independent.
  std::uint64_t shard_words = 32;
};

[[nodiscard]] SensitivityResult compute_sensitivity(
    const netlist::Circuit& circuit, const SensitivityOptions& options = {},
    exec::Parallelism how = {});

// ---- shard-level building blocks -----------------------------------------
//
// compute_sensitivity is exec::run_tasks over a SensitivityTasks, whose tasks
// are these shard bodies (exhaustive block ranges when exact, sampled word
// ranges otherwise); the shard oracle tests check them one by one.

// Accumulators of one or more shards; influence and lane totals merge by
// sum, sensitivity by max.
struct SensitivityCounts {
  std::vector<std::uint64_t> influence_counts;  // per input
  int sensitivity = 0;
  std::uint64_t lane_total = 0;
  explicit SensitivityCounts(std::size_t num_inputs)
      : influence_counts(num_inputs, 0) {}
  void merge(const SensitivityCounts& other);
};

// True when `options` selects the exhaustive (exact) sweep for `circuit`.
[[nodiscard]] bool sensitivity_is_exact(const netlist::Circuit& circuit,
                                        const SensitivityOptions& options);

// The shard decomposition implied by `options`: exhaustive blocks (exact) or
// sample words (sampled), in groups of shard_words. Degenerate circuits
// (no inputs or no outputs) get an empty plan.
[[nodiscard]] exec::ShardPlan sensitivity_shard_plan(
    const netlist::Circuit& circuit, const SensitivityOptions& options);

// Counts contributed by one shard of the plan; deterministic for exact
// sweeps, a pure function of (options.seed, shard.index) for sampled ones.
// Concurrent shards may share `flat`, the flat form of the planned circuit.
// Adds the shard's gate evaluations to the `sim-sensitivity-gate-evals-total`
// counter (observability only; never part of the counts).
[[nodiscard]] SensitivityCounts sensitivity_shard_counts(
    const FlatCircuit& flat, const SensitivityOptions& options,
    const exec::Shard& shard);

// Turns merged counts into the estimator's result; handles the degenerate
// no-inputs/no-outputs case exactly like compute_sensitivity.
[[nodiscard]] SensitivityResult finalize_sensitivity(
    const netlist::Circuit& circuit, const SensitivityOptions& options,
    const SensitivityCounts& counts);

// The sweep as a task set (exec::run_tasks): one task per shard of
// sensitivity_shard_plan, counts merged under the set's lock. Used by
// compute_sensitivity, profile extraction and the batch engine alike.
class SensitivityTasks {
 public:
  // Throws std::invalid_argument when the sampled sweep is selected with a
  // zero sample budget (which would otherwise divide 0/0 into NaN
  // influence). `circuit` must outlive the task set.
  SensitivityTasks(const netlist::Circuit& circuit,
                   const SensitivityOptions& options);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return plan_.num_shards();
  }
  void run_task(std::size_t task);
  [[nodiscard]] SensitivityResult finish();

 private:
  const netlist::Circuit& circuit_;
  SensitivityOptions options_;
  exec::ShardPlan plan_;
  FlatCircuit flat_;  // shared read-only by the tasks
  util::Mutex mutex_;
  SensitivityCounts counts_ ENB_GUARDED_BY(mutex_);
};

}  // namespace enb::sim
