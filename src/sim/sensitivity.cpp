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

bool exhaustive(std::size_t inputs, const SensitivityOptions& options) {
  const int n = static_cast<int>(inputs);
  return n <= options.max_exact_inputs && n <= kMaxExhaustiveInputs;
}

// The plan of a sweep over `inputs` inputs; empty when degenerate.
exec::ShardPlan sweep_plan(std::size_t inputs, bool is_degenerate,
                           const SensitivityOptions& options) {
  if (is_degenerate) return exec::ShardPlan(0, 1);
  const bool exact = exhaustive(inputs, options);
  if (!exact && options.sample_words == 0) {
    throw std::invalid_argument(
        "compute_sensitivity: sample_words must be > 0 for the sampled sweep");
  }
  const std::size_t total =
      exact ? static_cast<std::size_t>(
                  exhaustive_block_count(static_cast<int>(inputs)))
            : static_cast<std::size_t>(options.sample_words);
  return exec::ShardPlan(total, static_cast<std::size_t>(options.shard_words));
}

// Per-shard worker state: the base block's node words, the dirty set of the
// flip in progress, an undo log of the words it changed, and one difference
// word, accumulator and lane counter per output group.
class ShardState {
 public:
  ShardState(const FlatCircuit& flat, const OutputGroups& groups)
      : flat_(flat),
        groups_(groups),
        inputs_(flat.num_inputs()),
        values_(flat.node_count(), 0),
        dirty_((flat.node_count() + kWordBits - 1) / kWordBits, 0),
        diffs_(groups.size(), 0),
        counts_(groups.size(), SensitivityCounts(flat.num_inputs())),
        counters_(groups.size(), LaneCounter(static_cast<int>(
                                     flat.num_inputs()))) {}

  std::vector<Word>& inputs() noexcept { return inputs_; }
  std::vector<SensitivityCounts>& counts() noexcept { return counts_; }
  std::uint64_t gate_evals() const noexcept { return gate_evals_; }

  // Sweeps the base block in inputs() once, then flips every input in turn.
  void process_block(Word valid) {
    sweep<Word>(flat_, inputs_, values_.data());
    gate_evals_ += flat_.node_count();
    for (LaneCounter& counter : counters_) counter.reset();
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      flip(flat_.inputs()[i]);
      for (std::size_t g = 0; g < diffs_.size(); ++g) {
        const Word diff = diffs_[g] & valid;
        diffs_[g] = 0;
        counts_[g].influence_counts[i] +=
            static_cast<std::uint64_t>(popcount(diff));
        counters_[g].add(diff);
      }
    }
    for (std::size_t g = 0; g < counts_.size(); ++g) {
      counts_[g].sensitivity =
          std::max(counts_[g].sensitivity, counters_[g].max_lane(valid));
      counts_[g].lane_total += static_cast<std::uint64_t>(popcount(valid));
    }
  }

 private:
  // Sets diffs_[g] (zero on entry) to (f_g(x) != f_g(x ^ e_i)) for every
  // group g, lane-parallel: complementing the input's word flips it in every lane,
  // whatever assignment each lane holds. Re-evaluates only the nodes whose
  // fanins changed and leaves the base block in values_ on return.
  void flip(NodeId input) {
    const Word base = values_[input];
    values_[input] = ~base;
    // The OR of every watched change; a watched input differs in every lane.
    Word any = groups_.watched(input) ? kAllOnes : 0;
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
      if (groups_.watched(id)) any |= now ^ old;
      pending += mark_fanouts(id);
    }
    // One group watches every watched node, so `any` is its difference;
    // several split it by walking the changed nodes in the undo log.
    if (diffs_.size() == 1) {
      diffs_[0] = any;
    } else if (any != 0) {
      watch(input, kAllOnes);
      for (const auto& [id, old] : undo_) watch(id, values_[id] ^ old);
    }
    for (const auto& [id, old] : undo_) values_[id] = old;
    undo_.clear();
    values_[input] = base;
  }

  // ORs the change word of `id` into every group watching it.
  void watch(NodeId id, Word change) noexcept {
    for (const std::uint32_t g : groups_.of(id)) diffs_[g] |= change;
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
  const OutputGroups& groups_;
  std::vector<Word> inputs_;
  std::vector<Word> values_;
  std::vector<Word> dirty_;  // bitset over node ids
  std::vector<std::pair<NodeId, Word>> undo_;
  std::vector<Word> diffs_;  // per group, for the flip in progress
  std::vector<SensitivityCounts> counts_;
  std::vector<LaneCounter> counters_;
  std::uint64_t gate_evals_ = 0;
};

obs::Counter& gate_evals_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("sim-sensitivity-gate-evals-total");
  return counter;
}

// The one group of a circuit's own output nodes.
std::vector<std::vector<NodeId>> own_outputs(const Circuit& circuit) {
  return {{circuit.outputs().begin(), circuit.outputs().end()}};
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
  return degenerate(circuit.num_inputs(), circuit.num_outputs()) ||
         exhaustive(circuit.num_inputs(), options);
}

exec::ShardPlan sensitivity_shard_plan(const Circuit& circuit,
                                       const SensitivityOptions& options) {
  return sweep_plan(circuit.num_inputs(),
                    degenerate(circuit.num_inputs(), circuit.num_outputs()),
                    options);
}

OutputGroups::OutputGroups(std::size_t node_count,
                           std::span<const std::vector<NodeId>> groups)
    : size_(groups.size()),
      offsets_(node_count + 1, 0),
      watched_(node_count, 0) {
  // Counting sort by node; `last[id]` drops a node a group lists twice.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> last(node_count, kNone);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const NodeId id : groups[g]) {
      if (last[id] == g) continue;
      last[id] = static_cast<std::uint32_t>(g);
      ++offsets_[id + 1];
      watched_[id] = 1;
    }
  }
  for (std::size_t id = 0; id < node_count; ++id) {
    offsets_[id + 1] += offsets_[id];
  }
  ids_.resize(offsets_[node_count]);
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  std::fill(last.begin(), last.end(), kNone);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const NodeId id : groups[g]) {
      if (last[id] == g) continue;
      last[id] = static_cast<std::uint32_t>(g);
      ids_[fill[id]++] = static_cast<std::uint32_t>(g);
    }
  }
}

std::vector<SensitivityCounts> sensitivity_shard_counts(
    const FlatCircuit& flat, const OutputGroups& groups,
    const SensitivityOptions& options, const exec::Shard& shard) {
  const int n = static_cast<int>(flat.num_inputs());
  ShardState state(flat, groups);
  if (exhaustive(flat.num_inputs(), options)) {
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

SensitivityCounts sensitivity_shard_counts(const FlatCircuit& flat,
                                           const SensitivityOptions& options,
                                           const exec::Shard& shard) {
  const std::vector<std::vector<NodeId>> outputs{
      {flat.outputs().begin(), flat.outputs().end()}};
  return std::move(sensitivity_shard_counts(
      flat, OutputGroups(flat.node_count(), outputs), options, shard)[0]);
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
      groups_(circuit.node_count(), own_outputs(circuit)),
      plan_(sensitivity_shard_plan(circuit, options)),
      flat_(circuit),
      counts_(1, SensitivityCounts(circuit.num_inputs())) {}

SensitivityTasks::SensitivityTasks(
    const Circuit& circuit, std::span<const std::vector<NodeId>> groups,
    const SensitivityOptions& options)
    : circuit_(circuit),
      options_(options),
      groups_(circuit.node_count(), groups),
      plan_(sweep_plan(circuit.num_inputs(),
                       degenerate(circuit.num_inputs(), groups.size()),
                       options)),
      flat_(circuit),
      counts_(groups.size(), SensitivityCounts(circuit.num_inputs())) {}

void SensitivityTasks::run_task(std::size_t task) {
  const std::vector<SensitivityCounts> local =
      sensitivity_shard_counts(flat_, groups_, options_, plan_.shard(task));
  const util::LockGuard lock(mutex_);
  for (std::size_t g = 0; g < counts_.size(); ++g) counts_[g].merge(local[g]);
}

SensitivityResult SensitivityTasks::finish() {
  const util::LockGuard lock(mutex_);
  return finalize_sensitivity(circuit_, options_, counts_[0]);
}

std::vector<SensitivityCounts> SensitivityTasks::group_counts() {
  const util::LockGuard lock(mutex_);
  return counts_;
}

SensitivityResult compute_sensitivity(const Circuit& circuit,
                                      const SensitivityOptions& options,
                                      exec::Parallelism how) {
  return exec::run_tasks(SensitivityTasks(circuit, options), how);
}

}  // namespace enb::sim
