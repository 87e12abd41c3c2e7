#include "core/profile.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/static_reason.hpp"
#include "bdd/bdd_analysis.hpp"
#include "netlist/stats.hpp"

namespace enb::core {

using netlist::NodeId;

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

bool monte_carlo_route(const netlist::Circuit& circuit,
                       const ProfileOptions& options) {
  return !options.prefer_exact_activity ||
         static_cast<int>(circuit.num_inputs()) >
             options.exact_activity_max_inputs;
}

// The members, once each is checked and their input counts agree.
std::vector<const netlist::Circuit*> validated(
    std::vector<const netlist::Circuit*> circuits,
    const ProfileOptions& options) {
  if (circuits.empty()) {
    throw std::invalid_argument("ProfileExtraction: no circuits to profile");
  }
  for (const netlist::Circuit* circuit : circuits) {
    check_profilable(*circuit, options);
    if (circuit->num_inputs() != circuits.front()->num_inputs()) {
      throw std::invalid_argument(
          "ProfileExtraction: circuits differ in input count");
    }
  }
  return circuits;
}

// Monte-Carlo activity over the union when the members (all of
// `member`'s input count) take that route.
std::optional<sim::ActivityTasks> monte_carlo_activity(
    const netlist::Circuit& members_union, const netlist::Circuit& member,
    const ProfileOptions& options) {
  if (!monte_carlo_route(member, options)) return std::nullopt;
  return std::optional<sim::ActivityTasks>(
      std::in_place, members_union, activity_options_of(options));
}

}  // namespace

void check_profilable(const netlist::Circuit& circuit,
                      const ProfileOptions& options) {
  if (circuit.gate_count() == 0) {
    throw std::invalid_argument(
        "extract_profile: circuit has no gates to profile");
  }
  if (monte_carlo_route(circuit, options)) {
    (void)sim::activity_shard_plan(activity_options_of(options));
  }
  (void)sim::sensitivity_shard_plan(circuit, sensitivity_options_of(options));
}

ProfileExtraction::Union ProfileExtraction::build_union(
    const std::vector<const netlist::Circuit*>& members) {
  const std::size_t inputs = members.front()->num_inputs();
  analysis::StructuralHasher hasher(inputs);
  Union u;
  // Union node per class id; inputs come first, in position order, so the
  // union's input slots are the members' input positions.
  std::vector<NodeId> node_of_class(2 + inputs, netlist::kInvalidNode);
  for (std::size_t i = 0; i < inputs; ++i) {
    node_of_class[hasher.input_id(i)] = u.circuit.add_input();
  }
  std::vector<NodeId> fanins;
  std::vector<NodeId> outputs;
  for (const netlist::Circuit* member : members) {
    const std::vector<std::uint32_t> classes = hasher.hash_circuit(*member);
    node_of_class.resize(hasher.num_values(), netlist::kInvalidNode);
    std::vector<NodeId>& node_of = u.node_of.emplace_back(member->node_count());
    // A class's first carrier comes after the carriers of its fanins'
    // classes, so appending in carrier order keeps the union topological.
    for (NodeId id = 0; id < member->node_count(); ++id) {
      NodeId& node = node_of_class[classes[id]];
      if (node == netlist::kInvalidNode) {
        if (classes[id] <= analysis::StructuralHasher::const_id(true)) {
          node = u.circuit.add_const(
              classes[id] == analysis::StructuralHasher::const_id(true));
        } else {
          fanins.clear();
          for (const NodeId f : member->fanins(id)) {
            fanins.push_back(node_of[f]);
          }
          node = u.circuit.add_gate(member->type(id), fanins);
        }
      }
      node_of[id] = node;
    }
    if (member->num_inputs() == 0 || member->num_outputs() == 0) {
      u.group_of.push_back(kNoGroup);
      continue;
    }
    // Constant outputs never change under a flip, so they drop out.
    outputs.clear();
    for (const NodeId out : member->outputs()) {
      if (classes[out] > analysis::StructuralHasher::const_id(true)) {
        outputs.push_back(node_of[out]);
      }
    }
    std::sort(outputs.begin(), outputs.end());
    outputs.erase(std::unique(outputs.begin(), outputs.end()), outputs.end());
    const auto found = std::find(u.groups.begin(), u.groups.end(), outputs);
    u.group_of.push_back(static_cast<std::size_t>(found - u.groups.begin()));
    if (found == u.groups.end()) u.groups.push_back(outputs);
  }
  return u;
}

ProfileExtraction::ProfileExtraction(
    std::vector<const netlist::Circuit*> circuits,
    const ProfileOptions& options)
    : members_(validated(std::move(circuits), options)),
      activity_options_(activity_options_of(options)),
      sensitivity_options_(sensitivity_options_of(options)),
      union_(build_union(members_)),
      activity_(
          monte_carlo_activity(union_.circuit, *members_.front(), options)),
      sensitivity_(union_.circuit, union_.groups, sensitivity_options_),
      exact_sw0_(members_.size(), 0.0) {}

void ProfileExtraction::run_task(std::size_t task) {
  if (task >= activity_tasks()) {
    sensitivity_.run_task(task - activity_tasks());
  } else if (activity_.has_value()) {
    activity_->run_task(task);
  } else {
    // The BDD route can still blow up on worst-case structures; fall back
    // silently to the member's Monte-Carlo estimate, serially inside this
    // one task.
    const netlist::Circuit& member = *members_[task];
    double sw0 = 0.0;
    try {
      sw0 = bdd::exact_activity_bdd(member).avg_gate_toggle_rate;
    } catch (const bdd::BddLimitExceeded&) {
      sw0 = sim::estimate_activity(member, activity_options_,
                                   exec::Parallelism::serial())
                .avg_gate_toggle_rate;
    }
    const util::LockGuard lock(mutex_);
    exact_sw0_[task] = sw0;
  }
}

std::vector<CircuitProfile> ProfileExtraction::finish() {
  std::optional<sim::ActivityCounts> activity;
  if (activity_.has_value()) activity = activity_->counts();
  const std::vector<sim::SensitivityCounts> sensitivity =
      sensitivity_.group_counts();
  std::vector<CircuitProfile> profiles;
  profiles.reserve(members_.size());
  for (std::size_t m = 0; m < members_.size(); ++m) {
    const netlist::Circuit& member = *members_[m];
    const std::vector<NodeId>& node_of = union_.node_of[m];
    const netlist::CircuitStats stats = netlist::compute_stats(member);
    CircuitProfile& p = profiles.emplace_back();
    p.name = member.name();
    p.num_inputs = static_cast<int>(stats.num_inputs);
    p.num_outputs = static_cast<int>(stats.num_outputs);
    p.size_s0 = static_cast<double>(stats.num_gates);
    p.depth_d0 = stats.depth;
    p.avg_fanin_k = stats.avg_fanin;
    p.max_fanin = stats.max_fanin;
    if (activity.has_value()) {
      // The member's own counts, gathered from its nodes' classes.
      sim::ActivityCounts own(member.node_count());
      for (NodeId id = 0; id < member.node_count(); ++id) {
        own.ones[id] = activity->ones[node_of[id]];
        own.toggles[id] = activity->toggles[node_of[id]];
      }
      p.avg_activity_sw0 =
          own.result(member, activity_options_.sample_pairs, 1)
              .avg_gate_toggle_rate;
    } else {
      const util::LockGuard lock(mutex_);
      p.avg_activity_sw0 = exact_sw0_[m];
    }
    const std::size_t group = union_.group_of[m];
    const sim::SensitivityResult sens = sim::finalize_sensitivity(
        member, sensitivity_options_,
        group == kNoGroup ? sim::SensitivityCounts(member.num_inputs())
                          : sensitivity[group]);
    p.sensitivity_s = std::max(1, sens.sensitivity);
    p.sensitivity_exact = sens.exact;
  }
  return profiles;
}

CircuitProfile extract_profile(const netlist::Circuit& circuit,
                               const ProfileOptions& options,
                               exec::Parallelism how) {
  return std::move(
      exec::run_tasks(ProfileExtraction({&circuit}, options), how).front());
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
