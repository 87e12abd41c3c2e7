#include "sim/sensitivity.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/bitpack.hpp"
#include "sim/exhaustive.hpp"
#include "sim/prng.hpp"

namespace enb::sim {

using netlist::Circuit;
using netlist::NodeId;

namespace {

bool degenerate(std::size_t inputs, std::size_t outputs) {
  return inputs == 0 || outputs == 0;
}

bool is_exact(std::size_t inputs, std::size_t outputs,
              const SensitivityOptions& options) {
  const int n = static_cast<int>(inputs);
  return degenerate(inputs, outputs) ||
         (n <= options.max_exact_inputs && n <= kMaxExhaustiveInputs);
}

// Per-shard worker state: the base block's node words, the dirty set of the
// flip in progress, an undo log of the words it changed, and accumulators.
class ShardState {
 public:
  ShardState(const FlatCircuit& flat, int n)
      : flat_(flat),
        inputs_(static_cast<std::size_t>(n)),
        values_(flat.node_count(), 0),
        dirty_((flat.node_count() + kWordBits - 1) / kWordBits, 0),
        counts_(static_cast<std::size_t>(n)),
        counter_(n) {}

  std::vector<Word>& inputs() noexcept { return inputs_; }
  SensitivityCounts& counts() noexcept { return counts_; }
  std::uint64_t gate_evals() const noexcept { return gate_evals_; }

  // Sweeps the base block in inputs() once, then flips every input in turn.
  void process_block(Word valid) {
    sweep<Word>(flat_, inputs_, values_.data());
    gate_evals_ += flat_.node_count();
    counter_.reset();
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const Word diff = flip_difference(flat_.inputs()[i]) & valid;
      counts_.influence_counts[i] += static_cast<std::uint64_t>(popcount(diff));
      counter_.add(diff);
    }
    counts_.sensitivity =
        std::max(counts_.sensitivity, counter_.max_lane(valid));
    counts_.lane_total += static_cast<std::uint64_t>(popcount(valid));
  }

 private:
  // OR over outputs of (f(x) != f(x ^ e_i)), lane-parallel: complementing
  // the input's word flips it in every lane, whatever assignment each lane
  // holds. Re-evaluates only the nodes whose fanins changed and leaves the
  // base block in values_ on return.
  Word flip_difference(NodeId input) {
    const Word base = values_[input];
    values_[input] = ~base;
    // An input that is itself an output differs in every lane.
    Word diff = flat_.is_output(input) ? kAllOnes : 0;
    // Consumers have larger ids than their fanins and fanouts() ascend, so
    // the scan starts at the input's first consumer and only moves up.
    std::size_t pending = mark_fanouts(input);
    std::size_t word =
        pending == 0 ? 0 : flat_.fanouts(input).front() / kWordBits;
    while (pending != 0) {
      const Word bits = dirty_[word];
      if (bits == 0) {
        ++word;
        continue;
      }
      dirty_[word] = bits & (bits - 1);
      --pending;
      const auto id = static_cast<NodeId>(
          word * kWordBits + static_cast<std::size_t>(std::countr_zero(bits)));
      const Word old = values_[id];
      const Word now = eval_gate(flat_, id, values_.data());
      ++gate_evals_;
      if (now == old) continue;
      values_[id] = now;
      undo_.push_back({id, old});
      if (flat_.is_output(id)) diff |= now ^ old;
      pending += mark_fanouts(id);
    }
    for (const auto& [id, old] : undo_) values_[id] = old;
    undo_.clear();
    values_[input] = base;
    return diff;
  }

  // Marks the consumers of `id` dirty; returns how many were newly marked.
  std::size_t mark_fanouts(NodeId id) {
    std::size_t marked = 0;
    for (const NodeId f : flat_.fanouts(id)) {
      const std::size_t word = f / kWordBits;
      const Word bit = Word{1} << (f % kWordBits);
      if ((dirty_[word] & bit) != 0) continue;
      dirty_[word] |= bit;
      ++marked;
    }
    return marked;
  }

  const FlatCircuit& flat_;
  std::vector<Word> inputs_;
  std::vector<Word> values_;
  std::vector<Word> dirty_;  // bitset over node ids
  std::vector<std::pair<NodeId, Word>> undo_;
  SensitivityCounts counts_;
  LaneCounter counter_;
  std::uint64_t gate_evals_ = 0;
};

// Validates, then plans the shards.
exec::ShardPlan validated_plan(const Circuit& circuit,
                               const SensitivityOptions& options) {
  if (!sensitivity_is_exact(circuit, options) && options.sample_words == 0) {
    throw std::invalid_argument(
        "compute_sensitivity: sample_words must be > 0 for the sampled sweep");
  }
  return sensitivity_shard_plan(circuit, options);
}

obs::Counter& gate_evals_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("sim-sensitivity-gate-evals-total");
  return counter;
}

}  // namespace

void SensitivityCounts::merge(const SensitivityCounts& other) {
  for (std::size_t i = 0; i < influence_counts.size(); ++i) {
    influence_counts[i] += other.influence_counts[i];
  }
  sensitivity = std::max(sensitivity, other.sensitivity);
  lane_total += other.lane_total;
}

bool sensitivity_is_exact(const Circuit& circuit,
                          const SensitivityOptions& options) {
  return is_exact(circuit.num_inputs(), circuit.num_outputs(), options);
}

exec::ShardPlan sensitivity_shard_plan(const Circuit& circuit,
                                       const SensitivityOptions& options) {
  if (degenerate(circuit.num_inputs(), circuit.num_outputs())) {
    return exec::ShardPlan(0, 1);
  }
  const int n = static_cast<int>(circuit.num_inputs());
  const std::size_t total =
      sensitivity_is_exact(circuit, options)
          ? static_cast<std::size_t>(exhaustive_block_count(n))
          : static_cast<std::size_t>(options.sample_words);
  return exec::ShardPlan(total, static_cast<std::size_t>(options.shard_words));
}

SensitivityCounts sensitivity_shard_counts(const FlatCircuit& flat,
                                           const SensitivityOptions& options,
                                           const exec::Shard& shard) {
  const int n = static_cast<int>(flat.num_inputs());
  ShardState state(flat, n);
  if (is_exact(flat.num_inputs(), flat.num_outputs(), options)) {
    // Blocks are pure functions of their index, so the exhaustive sweep
    // shards over block ranges with no randomness involved.
    const Word valid = exhaustive_valid_mask(n);
    for (std::size_t block = shard.begin; block < shard.end; ++block) {
      fill_exhaustive_block(n, static_cast<std::uint64_t>(block),
                            state.inputs());
      state.process_block(valid);
    }
  } else {
    Xoshiro256 rng(exec::stream_seed(options.seed, shard.index));
    for (std::size_t pass = shard.begin; pass < shard.end; ++pass) {
      for (Word& w : state.inputs()) w = rng.next();
      state.process_block(kAllOnes);
    }
  }
  gate_evals_counter().add(state.gate_evals());
  return std::move(state.counts());
}

SensitivityResult finalize_sensitivity(const Circuit& circuit,
                                       const SensitivityOptions& options,
                                       const SensitivityCounts& counts) {
  const std::size_t n = circuit.num_inputs();
  SensitivityResult result;
  result.influence.assign(n, 0.0);
  if (degenerate(n, circuit.num_outputs())) {
    result.exact = true;
    result.assignments = 1;
    return result;
  }
  result.exact = sensitivity_is_exact(circuit, options);
  result.sensitivity = counts.sensitivity;
  result.assignments = counts.lane_total;
  for (std::size_t i = 0; i < n; ++i) {
    result.influence[i] = static_cast<double>(counts.influence_counts[i]) /
                          static_cast<double>(counts.lane_total);
    result.total_influence += result.influence[i];
  }
  return result;
}

SensitivityTasks::SensitivityTasks(const Circuit& circuit,
                                   const SensitivityOptions& options)
    : circuit_(circuit),
      options_(options),
      plan_(validated_plan(circuit, options)),
      flat_(circuit),
      counts_(circuit.num_inputs()) {}

void SensitivityTasks::run_task(std::size_t task) {
  const SensitivityCounts local =
      sensitivity_shard_counts(flat_, options_, plan_.shard(task));
  const util::LockGuard lock(mutex_);
  counts_.merge(local);
}

SensitivityResult SensitivityTasks::finish() {
  const util::LockGuard lock(mutex_);
  return finalize_sensitivity(circuit_, options_, counts_);
}

SensitivityResult compute_sensitivity(const Circuit& circuit,
                                      const SensitivityOptions& options,
                                      exec::Parallelism how) {
  return exec::run_tasks(SensitivityTasks(circuit, options), how);
}

}  // namespace enb::sim
