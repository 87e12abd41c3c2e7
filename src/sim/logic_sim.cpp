#include "sim/logic_sim.hpp"

#include <stdexcept>
#include <string>

namespace enb::sim {

using netlist::Circuit;
using netlist::NodeId;

LogicSim::LogicSim(const Circuit& circuit)
    : owned_(std::make_unique<const FlatCircuit>(circuit)),
      flat_(owned_.get()),
      values_(circuit.node_count(), 0) {}

LogicSim::LogicSim(const FlatCircuit& flat)
    : flat_(&flat), values_(flat.node_count(), 0) {}

void LogicSim::eval(std::span<const Word> input_words) {
  if (input_words.size() != flat_->num_inputs()) {
    throw std::invalid_argument(
        "LogicSim::eval: expected " + std::to_string(flat_->num_inputs()) +
        " input words, got " + std::to_string(input_words.size()));
  }
  sweep(*flat_, input_words, values_.data());
}

std::vector<Word> LogicSim::output_values() const {
  std::vector<Word> out;
  out.reserve(flat_->num_outputs());
  for (NodeId id : flat_->outputs()) out.push_back(values_[id]);
  return out;
}

std::vector<bool> eval_single(const Circuit& circuit,
                              const std::vector<bool>& inputs) {
  if (inputs.size() != circuit.num_inputs()) {
    throw std::invalid_argument("eval_single: input count mismatch");
  }
  std::vector<Word> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    words[i] = inputs[i] ? kAllOnes : 0;
  }
  // The scalar oracle: netlist::eval_word per node, sharing nothing with the
  // flat kernel it is used to cross-check.
  std::vector<Word> values(circuit.node_count(), 0);
  std::vector<Word> fanin_words;
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const Circuit::Node& node = circuit.node(id);
    if (node.type == netlist::GateType::kInput) {
      values[id] = words[static_cast<std::size_t>(circuit.input_index(id))];
      continue;
    }
    fanin_words.clear();
    for (NodeId f : node.fanins) fanin_words.push_back(values[f]);
    values[id] = netlist::eval_word(node.type, fanin_words);
  }
  std::vector<bool> out;
  out.reserve(circuit.num_outputs());
  for (NodeId id : circuit.outputs()) out.push_back((values[id] & 1U) != 0);
  return out;
}

}  // namespace enb::sim
