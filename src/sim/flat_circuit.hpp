// Flat structure-of-arrays netlist and the one gate evaluator every
// bit-parallel simulator sweeps through.
//
// FlatCircuit is a read-only copy of a netlist::Circuit's structure, built in
// one O(nodes + edges) pass: gate kinds, fanins and fanouts in CSR form
// (offsets plus ids), each node's primary-input slot and an is-output flag.
// Node ids keep the Circuit's order, which is topological by construction,
// so a forward id scan is a valid evaluation order and no level array is
// needed. It is immutable after construction, so concurrent shards may share
// one instance.
//
// eval_gate<V> evaluates one gate on any lane container V — sim::Word or the
// GCC vector types of fault/lanes.hpp — reading its fanin values by index
// straight out of the sweep's value array (no per-node fanin copy). It
// applies the same folds as netlist::eval_word, which stays, together with
// eval_single and fault::ScalarFaultSim, as the scalar oracle the engines
// are tested against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "sim/bitpack.hpp"

namespace enb::sim {

class FlatCircuit {
 public:
  explicit FlatCircuit(const netlist::Circuit& circuit);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return kind_.size();
  }
  [[nodiscard]] netlist::GateType kind(netlist::NodeId id) const noexcept {
    return kind_[id];
  }
  [[nodiscard]] std::span<const netlist::NodeId> fanins(
      netlist::NodeId id) const noexcept {
    return {fanin_ids_.data() + fanin_offsets_[id],
            fanin_ids_.data() + fanin_offsets_[id + 1]};
  }
  // Distinct consumers of `id`, ascending (a gate listing `id` twice appears
  // once).
  [[nodiscard]] std::span<const netlist::NodeId> fanouts(
      netlist::NodeId id) const noexcept {
    return {fanout_ids_.data() + fanout_offsets_[id],
            fanout_ids_.data() + fanout_offsets_[id + 1]};
  }
  // Position of `id` in the circuit's input list, or -1 for other nodes.
  [[nodiscard]] std::int32_t input_slot(netlist::NodeId id) const noexcept {
    return input_slot_[id];
  }
  // True when `id` drives at least one output port.
  [[nodiscard]] bool is_output(netlist::NodeId id) const noexcept {
    return is_output_[id] != 0;
  }

  // Input nodes in declaration order; output ports in port order (a node
  // listed twice is two ports).
  [[nodiscard]] std::span<const netlist::NodeId> inputs() const noexcept {
    return inputs_;
  }
  [[nodiscard]] std::span<const netlist::NodeId> outputs() const noexcept {
    return outputs_;
  }
  [[nodiscard]] std::size_t num_inputs() const noexcept {
    return inputs_.size();
  }
  [[nodiscard]] std::size_t num_outputs() const noexcept {
    return outputs_.size();
  }

 private:
  std::vector<netlist::GateType> kind_;
  std::vector<std::uint32_t> fanin_offsets_;  // node_count + 1 entries
  std::vector<netlist::NodeId> fanin_ids_;
  std::vector<std::uint32_t> fanout_offsets_;  // node_count + 1 entries
  std::vector<netlist::NodeId> fanout_ids_;
  std::vector<std::int32_t> input_slot_;
  std::vector<std::uint8_t> is_output_;
  std::vector<netlist::NodeId> inputs_;
  std::vector<netlist::NodeId> outputs_;
};

// Value of gate `id` given the values of its fanins in `values` (indexed by
// node id). Precondition: `id` is not a primary input — callers load input
// values themselves. Arity is valid by netlist::Circuit's construction.
template <typename V>
[[nodiscard]] inline V eval_gate(const FlatCircuit& flat, netlist::NodeId id,
                                 const V* values) noexcept {
  using netlist::GateType;
  const std::span<const netlist::NodeId> in = flat.fanins(id);
  switch (flat.kind(id)) {
    case GateType::kInput:
    case GateType::kConst0:
      return V{};
    case GateType::kConst1:
      return ~V{};
    case GateType::kBuf:
      return values[in[0]];
    case GateType::kNot:
      return ~values[in[0]];
    case GateType::kAnd:
    case GateType::kNand: {
      V acc = values[in[0]];
      for (std::size_t f = 1; f < in.size(); ++f) acc &= values[in[f]];
      return flat.kind(id) == GateType::kAnd ? acc : ~acc;
    }
    case GateType::kOr:
    case GateType::kNor: {
      V acc = values[in[0]];
      for (std::size_t f = 1; f < in.size(); ++f) acc |= values[in[f]];
      return flat.kind(id) == GateType::kOr ? acc : ~acc;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      V acc = values[in[0]];
      for (std::size_t f = 1; f < in.size(); ++f) acc ^= values[in[f]];
      return flat.kind(id) == GateType::kXor ? acc : ~acc;
    }
    case GateType::kMaj: {
      const V a = values[in[0]];
      const V b = values[in[1]];
      const V c = values[in[2]];
      return (a & b) | (a & c) | (b & c);
    }
  }
  return V{};
}

// One full forward sweep: input nodes load `input_words[slot]`, every other
// node evaluates through eval_gate. `values` holds node_count() entries.
template <typename V>
inline void sweep(const FlatCircuit& flat, std::span<const V> input_words,
                  V* values) noexcept {
  for (netlist::NodeId id = 0; id < flat.node_count(); ++id) {
    values[id] = flat.kind(id) == netlist::GateType::kInput
                     ? input_words[static_cast<std::size_t>(
                           flat.input_slot(id))]
                     : eval_gate(flat, id, values);
  }
}

}  // namespace enb::sim
