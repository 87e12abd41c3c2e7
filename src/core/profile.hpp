// CircuitProfile: the (s, S0, sw0, k, n, d0) tuple the bounds consume,
// extracted from a gate-level netlist with the simulation / BDD substrates.
// This mirrors the paper's Section 6 flow: map the benchmark, measure average
// switching activity under random inputs, take sensitivity and size from the
// function/netlist, then plug into Theorems 1–4.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "netlist/circuit.hpp"
#include "sim/activity.hpp"
#include "sim/sensitivity.hpp"
#include "util/sync.hpp"

namespace enb::core {

struct CircuitProfile {
  std::string name;
  int num_inputs = 0;
  int num_outputs = 0;
  double size_s0 = 0.0;        // gate count S0
  int depth_d0 = 0;            // logic depth
  double avg_fanin_k = 0.0;    // average gate fanin (the bound's k)
  int max_fanin = 0;
  double avg_activity_sw0 = 0.0;  // mean per-gate toggle rate
  double sensitivity_s = 0.0;     // Boolean sensitivity (>= 1 for nontrivial f)
  bool sensitivity_exact = false; // false => sampled lower bound
};

struct ProfileOptions {
  // Monte-Carlo activity estimation (pairs of 64-lane vectors).
  std::size_t activity_pairs = 1 << 12;
  // Use the BDD engine for exact activity when the input count allows.
  bool prefer_exact_activity = true;
  int exact_activity_max_inputs = 16;
  // Sensitivity: exhaustive up to this many inputs, sampled beyond.
  int sensitivity_exact_max_inputs = 20;
  std::uint64_t sensitivity_sample_words = 256;
  std::uint64_t seed = 17;

  // Every field reaches the profile, so equal options mean equal profiles
  // (the profile caches key on this).
  friend bool operator==(const ProfileOptions&,
                         const ProfileOptions&) = default;
};

// Measures a profile from a (typically mapped) netlist, parallelizing the
// Monte-Carlo substrates per `how`: exec::run_tasks over a one-circuit
// ProfileExtraction. Results are bit-identical for any thread count.
[[nodiscard]] CircuitProfile extract_profile(const netlist::Circuit& circuit,
                                             const ProfileOptions& options = {},
                                             exec::Parallelism how = {});

// Throws std::invalid_argument exactly when extract_profile rejects
// `circuit` under `options`: a gateless circuit, or a zero Monte-Carlo
// budget on the route the circuit takes.
void check_profilable(const netlist::Circuit& circuit,
                      const ProfileOptions& options);

// Profile extraction for one or more circuits with the same input count, as
// a task set (exec::run_tasks). The circuits are hashed into one
// analysis::StructuralHasher, and a union netlist gets one node per class
// some circuit node carries, evaluated with the first carrier's gate type
// over the union nodes of its fanins' classes. Equal classes carry equal
// words for equal input words, and the Monte-Carlo and exhaustive input
// streams depend only on (seed, shard, input count), so one
// sim::ActivityTasks and one sim::SensitivityTasks over the union serve
// every member:
//   - a member's per-node activity counts are the union counts of its
//     nodes' classes, finalized in its own node order;
//   - a member's flip difference is the OR of the change words of its
//     non-constant output classes (members with the same set share one
//     output group); members without inputs or outputs finalize alone.
// On the exact route (inputs <= exact_activity_max_inputs) each member
// keeps its own BDD activity task, with a silent serial Monte-Carlo
// fallback when its BDD blows up. Every task merges commutatively, so any
// schedule — serial, a pool, or interleaved with other jobs' tasks in
// exec::BatchEvaluator — yields each member the bits extract_profile gives
// it alone.
class ProfileExtraction {
 public:
  // Validates every member like check_profilable (and throws
  // std::invalid_argument on no members or unequal input counts), then
  // builds the union and plans the tasks. The circuits must outlive the
  // extraction.
  ProfileExtraction(std::vector<const netlist::Circuit*> circuits,
                    const ProfileOptions& options);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return activity_tasks() + sensitivity_.num_tasks();
  }

  // Runs task `task` in [0, num_tasks()); safe to call concurrently for
  // distinct tasks.
  void run_task(std::size_t task);

  // The members' profiles, in member order, once every task has run.
  [[nodiscard]] std::vector<CircuitProfile> finish();

  // Nodes of the union netlist (for tests and traces).
  [[nodiscard]] std::size_t union_nodes() const noexcept {
    return union_.circuit.node_count();
  }

 private:
  // The members' union netlist: one node per structural class.
  struct Union {
    netlist::Circuit circuit;
    // Per member: the union node of each of its nodes.
    std::vector<std::vector<netlist::NodeId>> node_of;
    // Distinct sets of non-constant output classes, as union nodes.
    std::vector<std::vector<netlist::NodeId>> groups;
    // Per member: its output group, or kNoGroup without inputs or outputs.
    std::vector<std::size_t> group_of;
  };
  static constexpr std::size_t kNoGroup = ~std::size_t{0};

  static Union build_union(const std::vector<const netlist::Circuit*>& members);

  [[nodiscard]] std::size_t activity_tasks() const noexcept {
    return activity_.has_value() ? activity_->num_tasks() : members_.size();
  }

  std::vector<const netlist::Circuit*> members_;
  sim::ActivityOptions activity_options_;
  sim::SensitivityOptions sensitivity_options_;
  Union union_;
  // Monte-Carlo activity over the union; nullopt selects one exact (BDD)
  // task per member.
  std::optional<sim::ActivityTasks> activity_;
  sim::SensitivityTasks sensitivity_;

  util::Mutex mutex_;  // guards the exact tasks' results
  std::vector<double> exact_sw0_ ENB_GUARDED_BY(mutex_);
};

// A profile from explicit numbers (e.g. the paper's s=10, S0=21 parity).
[[nodiscard]] CircuitProfile make_profile(std::string name, double sensitivity,
                                          double size_s0, double sw0,
                                          double fanin_k, int num_inputs);

}  // namespace enb::core
