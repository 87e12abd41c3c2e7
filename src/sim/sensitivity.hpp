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
//
// One sweep can serve several circuits at once (OutputGroups): each group
// watches a set of nodes and ORs their change words into its own
// difference word, with its own counts. The scan ORs every watched change
// into one word, which is the difference of a lone group; with several
// groups, a flip that changed a watched node splits the changes in its undo
// log among them. core::ProfileExtraction sweeps the union netlist of a
// batch's same-input-count circuits this way, one group per distinct set
// of output classes.
#pragma once

#include <cstdint>
#include <span>
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
// (no inputs or no outputs) get an empty plan. Throws std::invalid_argument
// when the sampled sweep is selected with a zero sample budget (which would
// otherwise divide 0/0 into NaN influence).
[[nodiscard]] exec::ShardPlan sensitivity_shard_plan(
    const netlist::Circuit& circuit, const SensitivityOptions& options);

// The watched nodes of a sweep's output groups, indexed by node: group g's
// difference word for a flip is the OR of the change words of the nodes it
// watches. A circuit's own sweep is the one group of its output nodes.
class OutputGroups {
 public:
  // `groups[g]` lists the node ids (< node_count) group g watches; order and
  // repeats do not matter.
  OutputGroups(std::size_t node_count,
               std::span<const std::vector<netlist::NodeId>> groups);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  // True when some group watches `id`.
  [[nodiscard]] bool watched(netlist::NodeId id) const noexcept {
    return watched_[id] != 0;
  }
  // The groups watching `id`, ascending.
  [[nodiscard]] std::span<const std::uint32_t> of(
      netlist::NodeId id) const noexcept {
    return {ids_.data() + offsets_[id], ids_.data() + offsets_[id + 1]};
  }

 private:
  std::size_t size_;
  std::vector<std::uint32_t> offsets_;  // node_count + 1 entries
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint8_t> watched_;
};

// Counts contributed by one shard of the plan, one entry per group;
// deterministic for exact sweeps, a pure function of (options.seed,
// shard.index) for sampled ones. Which sweep runs depends only on the
// input count of `flat`, so only non-degenerate groups may be planned.
// Concurrent shards may share `flat` and `groups`. Adds the shard's gate
// evaluations to the `sim-sensitivity-gate-evals-total` counter
// (observability only; never part of the counts).
[[nodiscard]] std::vector<SensitivityCounts> sensitivity_shard_counts(
    const FlatCircuit& flat, const OutputGroups& groups,
    const SensitivityOptions& options, const exec::Shard& shard);

// The one-group form over `flat`'s own output nodes.
[[nodiscard]] SensitivityCounts sensitivity_shard_counts(
    const FlatCircuit& flat, const SensitivityOptions& options,
    const exec::Shard& shard);

// Turns merged counts into the estimator's result; handles the degenerate
// no-inputs/no-outputs case exactly like compute_sensitivity.
[[nodiscard]] SensitivityResult finalize_sensitivity(
    const netlist::Circuit& circuit, const SensitivityOptions& options,
    const SensitivityCounts& counts);

// The sweep as a task set (exec::run_tasks): one task per shard of the
// plan, counts merged per group under the set's lock. Used by
// compute_sensitivity, profile extraction and the batch engine alike.
class SensitivityTasks {
 public:
  // The sweep of `circuit` for its own outputs. Throws like
  // sensitivity_shard_plan. `circuit` must outlive the task set.
  SensitivityTasks(const netlist::Circuit& circuit,
                   const SensitivityOptions& options);

  // One sweep of `circuit` for several output groups (its own output list
  // is ignored): group g's counts are those of a circuit with the same
  // inputs whose outputs carry the words of the nodes in groups[g]. No
  // groups, or no inputs, plan no tasks.
  SensitivityTasks(const netlist::Circuit& circuit,
                   std::span<const std::vector<netlist::NodeId>> groups,
                   const SensitivityOptions& options);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return plan_.num_shards();
  }
  void run_task(std::size_t task);
  // The result of the single-circuit form.
  [[nodiscard]] SensitivityResult finish();
  // The merged counts, one entry per group, for finalize_sensitivity
  // against the circuit each group stands for.
  [[nodiscard]] std::vector<SensitivityCounts> group_counts();

 private:
  const netlist::Circuit& circuit_;
  SensitivityOptions options_;
  OutputGroups groups_;  // shared read-only by the tasks
  exec::ShardPlan plan_;
  FlatCircuit flat_;     // shared read-only by the tasks
  util::Mutex mutex_;
  std::vector<SensitivityCounts> counts_ ENB_GUARDED_BY(mutex_);
};

}  // namespace enb::sim
