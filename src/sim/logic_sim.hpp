// 64-way bit-parallel logic simulator.
//
// One eval() pass computes 64 independent evaluations (one per bit lane) of
// every node in the circuit. The pass is one forward sweep over a
// FlatCircuit (sim/flat_circuit.hpp): node ids are topological by
// construction, and every gate goes through the shared eval_gate kernel,
// which reads fanin words by index.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "sim/bitpack.hpp"
#include "sim/flat_circuit.hpp"

namespace enb::sim {

class LogicSim {
 public:
  // Builds (and owns) the flat form of `circuit`.
  explicit LogicSim(const netlist::Circuit& circuit);
  // Shares an existing flat form, which must outlive the simulator.
  explicit LogicSim(const FlatCircuit& flat);

  // Evaluates all nodes for the given primary-input words (one word per
  // input, in circuit input order). Throws std::invalid_argument on a size
  // mismatch.
  void eval(std::span<const Word> input_words);

  [[nodiscard]] Word value(netlist::NodeId id) const { return values_.at(id); }
  [[nodiscard]] std::span<const Word> values() const noexcept { return values_; }

  // Values of the primary outputs, in output order.
  [[nodiscard]] std::vector<Word> output_values() const;

 private:
  std::unique_ptr<const FlatCircuit> owned_;
  const FlatCircuit* flat_;
  std::vector<Word> values_;
};

// Single-vector convenience: evaluates `circuit` on one boolean assignment
// and returns the output bits.
[[nodiscard]] std::vector<bool> eval_single(const netlist::Circuit& circuit,
                                            const std::vector<bool>& inputs);

}  // namespace enb::sim
