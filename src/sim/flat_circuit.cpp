#include "sim/flat_circuit.hpp"

#include <algorithm>

namespace enb::sim {

using netlist::Circuit;
using netlist::kInvalidNode;
using netlist::NodeId;

FlatCircuit::FlatCircuit(const Circuit& circuit)
    : kind_(circuit.node_count()),
      fanin_offsets_(circuit.node_count() + 1, 0),
      fanout_offsets_(circuit.node_count() + 1, 0),
      input_slot_(circuit.node_count(), -1),
      is_output_(circuit.node_count(), 0),
      inputs_(circuit.inputs().begin(), circuit.inputs().end()),
      outputs_(circuit.outputs().begin(), circuit.outputs().end()) {
  const std::size_t n = circuit.node_count();
  // `last_consumer[f]` is the latest gate that listed f, so a gate naming
  // the same fanin twice contributes one fanout edge.
  std::vector<NodeId> last_consumer(n, kInvalidNode);
  for (NodeId id = 0; id < n; ++id) {
    const Circuit::Node& node = circuit.node(id);
    kind_[id] = node.type;
    fanin_offsets_[id + 1] =
        fanin_offsets_[id] + static_cast<std::uint32_t>(node.fanins.size());
    for (const NodeId f : node.fanins) {
      if (last_consumer[f] == id) continue;
      last_consumer[f] = id;
      ++fanout_offsets_[f + 1];
    }
  }
  for (std::size_t id = 0; id < n; ++id) {
    fanout_offsets_[id + 1] += fanout_offsets_[id];
  }

  fanin_ids_.resize(fanin_offsets_[n]);
  fanout_ids_.resize(fanout_offsets_[n]);
  std::vector<std::uint32_t> fill(fanout_offsets_.begin(),
                                  fanout_offsets_.end() - 1);
  std::fill(last_consumer.begin(), last_consumer.end(), kInvalidNode);
  for (NodeId id = 0; id < n; ++id) {
    const std::vector<NodeId>& fanins = circuit.node(id).fanins;
    std::copy(fanins.begin(), fanins.end(),
              fanin_ids_.begin() + fanin_offsets_[id]);
    for (const NodeId f : fanins) {
      if (last_consumer[f] == id) continue;
      last_consumer[f] = id;
      fanout_ids_[fill[f]++] = id;
    }
  }

  for (std::size_t slot = 0; slot < inputs_.size(); ++slot) {
    input_slot_[inputs_[slot]] = static_cast<std::int32_t>(slot);
  }
  for (const NodeId id : outputs_) is_output_[id] = 1;
}

}  // namespace enb::sim
