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

// The circuit, once checked to have gates to profile.
const netlist::Circuit& profiled(const netlist::Circuit& circuit) {
  if (circuit.gate_count() == 0) {
    throw std::invalid_argument(
        "extract_profile: circuit has no gates to profile");
  }
  return circuit;
}

std::optional<sim::ActivityTasks> monte_carlo_activity(
    const netlist::Circuit& circuit, const ProfileOptions& options) {
  if (options.prefer_exact_activity &&
      static_cast<int>(circuit.num_inputs()) <=
          options.exact_activity_max_inputs) {
    return std::nullopt;
  }
  return std::optional<sim::ActivityTasks>(
      std::in_place, circuit, activity_options_of(options));
}

}  // namespace

ProfileExtraction::ProfileExtraction(const netlist::Circuit& circuit,
                                     const ProfileOptions& options)
    : circuit_(profiled(circuit)),
      activity_options_(activity_options_of(options)),
      activity_(monte_carlo_activity(circuit, options)),
      sensitivity_(circuit, sensitivity_options_of(options)) {}

void ProfileExtraction::run_task(std::size_t task) {
  if (task >= activity_tasks()) {
    sensitivity_.run_task(task - activity_tasks());
  } else if (activity_.has_value()) {
    activity_->run_task(task);
  } else {
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
  if (activity_.has_value()) {
    p.avg_activity_sw0 = activity_->finish().avg_gate_toggle_rate;
  } else {
    const util::LockGuard lock(mutex_);
    p.avg_activity_sw0 = exact_sw0_.value();
  }
  const sim::SensitivityResult sens = sensitivity_.finish();
  p.sensitivity_s = std::max(1, sens.sensitivity);
  p.sensitivity_exact = sens.exact;
  return p;
}

CircuitProfile extract_profile(const netlist::Circuit& circuit,
                               const ProfileOptions& options,
                               exec::Parallelism how) {
  return exec::run_tasks(ProfileExtraction(circuit, options), how);
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
