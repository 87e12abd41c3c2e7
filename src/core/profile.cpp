#include "core/profile.hpp"

#include <algorithm>
#include <stdexcept>

#include "bdd/bdd_analysis.hpp"
#include "netlist/stats.hpp"

namespace enb::core {

namespace {

sim::ActivityOptions activity_options_of(const ProfileOptions& options) {
  sim::ActivityOptions o;
  o.sample_pairs = options.activity_pairs;
  o.seed = options.seed;
  return o;
}

sim::SensitivityOptions sensitivity_options_of(const ProfileOptions& options) {
  sim::SensitivityOptions o;
  o.max_exact_inputs = options.sensitivity_exact_max_inputs;
  o.sample_words = options.sensitivity_sample_words;
  o.seed = options.seed + 1;
  return o;
}

}  // namespace

ProfileExtraction::ProfileExtraction(const netlist::Circuit& circuit,
                                     const ProfileOptions& options)
    : circuit_(circuit),
      flat_(circuit),
      activity_options_(activity_options_of(options)),
      sensitivity_options_(sensitivity_options_of(options)),
      exact_activity_(options.prefer_exact_activity &&
                      static_cast<int>(circuit.num_inputs()) <=
                          options.exact_activity_max_inputs),
      activity_counts_(exact_activity_ ? 0 : circuit.node_count()),
      sensitivity_counts_(circuit.num_inputs()) {
  if (circuit_.gate_count() == 0) {
    throw std::invalid_argument(
        "extract_profile: circuit has no gates to profile");
  }
  if (!exact_activity_) {
    sim::validate_activity_inputs(activity_options_);
    activity_plan_ = sim::activity_shard_plan(activity_options_);
  }
  sim::validate_sensitivity_inputs(circuit_, sensitivity_options_);
  sensitivity_plan_ =
      sim::sensitivity_shard_plan(circuit_, sensitivity_options_);
}

void ProfileExtraction::run_task(std::size_t task) {
  if (task >= activity_tasks()) {
    const sim::SensitivityCounts local = sim::sensitivity_shard_counts(
        flat_, sensitivity_options_,
        sensitivity_plan_.shard(task - activity_tasks()));
    const util::LockGuard lock(mutex_);
    sensitivity_counts_.merge(local);
  } else if (exact_activity_) {
    // The BDD route can still blow up on worst-case structures; fall back
    // silently to the Monte-Carlo estimate, serially inside this one task.
    double sw0 = 0.0;
    try {
      sw0 = bdd::exact_activity_bdd(circuit_).avg_gate_toggle_rate;
    } catch (const bdd::BddLimitExceeded&) {
      sw0 = sim::estimate_activity(circuit_, activity_options_,
                                   exec::Parallelism::serial())
                .avg_gate_toggle_rate;
    }
    const util::LockGuard lock(mutex_);
    exact_sw0_ = sw0;
  } else {
    const sim::ActivityCounts local = sim::activity_shard_counts(
        flat_, activity_options_, activity_plan_.shard(task));
    const util::LockGuard lock(mutex_);
    activity_counts_.merge(local);
  }
}

CircuitProfile ProfileExtraction::finish() {
  const netlist::CircuitStats stats = netlist::compute_stats(circuit_);
  CircuitProfile p;
  p.name = circuit_.name();
  p.num_inputs = static_cast<int>(stats.num_inputs);
  p.num_outputs = static_cast<int>(stats.num_outputs);
  p.size_s0 = static_cast<double>(stats.num_gates);
  p.depth_d0 = stats.depth;
  p.avg_fanin_k = stats.avg_fanin;
  p.max_fanin = stats.max_fanin;

  const util::LockGuard lock(mutex_);
  p.avg_activity_sw0 =
      exact_activity_ ? exact_sw0_.value()
                      : sim::finalize_activity(circuit_, activity_options_,
                                               activity_counts_)
                            .avg_gate_toggle_rate;
  const sim::SensitivityResult sens = sim::finalize_sensitivity(
      circuit_, sensitivity_options_, sensitivity_counts_);
  p.sensitivity_s = std::max(1, sens.sensitivity);
  p.sensitivity_exact = sens.exact;
  return p;
}

CircuitProfile extract_profile(const netlist::Circuit& circuit,
                               const ProfileOptions& options,
                               exec::Parallelism how) {
  ProfileExtraction extraction(circuit, options);
  exec::for_each_index(
      extraction.num_tasks(),
      [&extraction](std::size_t task) { extraction.run_task(task); }, how);
  return extraction.finish();
}

CircuitProfile make_profile(std::string name, double sensitivity,
                            double size_s0, double sw0, double fanin_k,
                            int num_inputs) {
  if (sensitivity < 1.0 || size_s0 <= 0.0 || fanin_k < 1.0 ||
      num_inputs < 1 || !(sw0 > 0.0 && sw0 < 1.0)) {
    throw std::invalid_argument("make_profile: parameter out of range");
  }
  CircuitProfile p;
  p.name = std::move(name);
  p.num_inputs = num_inputs;
  p.sensitivity_s = sensitivity;
  p.sensitivity_exact = true;
  p.size_s0 = size_s0;
  p.avg_activity_sw0 = sw0;
  p.avg_fanin_k = fanin_k;
  p.max_fanin = static_cast<int>(fanin_k + 0.999);
  return p;
}

}  // namespace enb::core
