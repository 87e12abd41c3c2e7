// CircuitProfile: the (s, S0, sw0, k, n, d0) tuple the bounds consume,
// extracted from a gate-level netlist with the simulation / BDD substrates.
// This mirrors the paper's Section 6 flow: map the benchmark, measure average
// switching activity under random inputs, take sensitivity and size from the
// function/netlist, then plug into Theorems 1–4.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

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
// Monte-Carlo substrates per `how`: exec::run_tasks over a
// ProfileExtraction. Results are bit-identical for any thread count.
[[nodiscard]] CircuitProfile extract_profile(const netlist::Circuit& circuit,
                                             const ProfileOptions& options = {},
                                             exec::Parallelism how = {});

// One profile extraction as a task set (exec::run_tasks): either one
// exact-activity task (BDD, with a silent serial Monte-Carlo fallback when
// the BDD blows up) or the tasks of a sim::ActivityTasks, followed by the
// tasks of a sim::SensitivityTasks. Those merge commutatively, so any
// schedule — serial, a pool, or interleaved with other jobs' tasks in
// exec::BatchEvaluator — yields the same profile bits.
class ProfileExtraction {
 public:
  // Validates like extract_profile (std::invalid_argument on a gateless
  // circuit or an invalid Monte-Carlo budget) and plans the tasks. `circuit`
  // must outlive the extraction.
  ProfileExtraction(const netlist::Circuit& circuit,
                    const ProfileOptions& options);

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return activity_tasks() + sensitivity_.num_tasks();
  }

  // Runs task `task` in [0, num_tasks()); safe to call concurrently for
  // distinct tasks.
  void run_task(std::size_t task);

  // Assembles the profile once every task has run.
  [[nodiscard]] CircuitProfile finish();

 private:
  [[nodiscard]] std::size_t activity_tasks() const noexcept {
    return activity_.has_value() ? activity_->num_tasks() : 1;
  }

  const netlist::Circuit& circuit_;
  sim::ActivityOptions activity_options_;
  // Monte-Carlo activity; nullopt selects the one exact (BDD) task.
  std::optional<sim::ActivityTasks> activity_;
  sim::SensitivityTasks sensitivity_;

  util::Mutex mutex_;  // guards the exact task's result
  std::optional<double> exact_sw0_ ENB_GUARDED_BY(mutex_);
};

// A profile from explicit numbers (e.g. the paper's s=10, S0=21 parity).
[[nodiscard]] CircuitProfile make_profile(std::string name, double sensitivity,
                                          double size_s0, double sw0,
                                          double fanin_k, int num_inputs);

}  // namespace enb::core
