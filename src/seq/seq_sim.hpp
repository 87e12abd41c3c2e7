// Cycle-accurate sequential simulation, clean and noisy, 64 independent
// trials per word pass. The noisy variant measures how state errors
// accumulate over cycles — the quantity the paper's combinational theory
// does not cover and its future-work section points at.
#pragma once

#include <cstdint>
#include <vector>

#include "seq/seq_circuit.hpp"
#include "sim/bitpack.hpp"
#include "sim/flat_circuit.hpp"
#include "sim/prng.hpp"
#include "sim/reliability.hpp"

namespace enb::seq {

// Clean cycle simulator. Lane L of every word is an independent machine.
class SeqSim {
 public:
  explicit SeqSim(const SeqCircuit& seq);

  // Resets all lanes to the latch initial values.
  void reset();

  // Applies one clock cycle with the given free-input words (order =
  // SeqCircuit::free_inputs()). Returns the primary-output words.
  std::vector<sim::Word> step(std::span<const sim::Word> free_input_words);

  // Present-state words, in latch order.
  [[nodiscard]] const std::vector<sim::Word>& state() const noexcept {
    return state_;
  }

 private:
  const SeqCircuit* seq_;
  sim::FlatCircuit core_;  // flat form of seq_->core()
  std::vector<sim::Word> state_;
  std::vector<sim::Word> core_inputs_;
  std::vector<sim::Word> values_;
  bool noisy_ = false;
  double epsilon_ = 0.0;
  std::uint64_t noise_seed_ = 0;

  friend class NoisySeqSim;
  void eval_core(std::span<const sim::Word> free_input_words,
                 sim::Xoshiro256* noise_rng);
};

// Noisy cycle simulator: every core gate output flips with probability ε per
// cycle (latches themselves are assumed reliable; gate errors corrupt the
// values they capture — matching the paper's gate-level error model).
class NoisySeqSim {
 public:
  NoisySeqSim(const SeqCircuit& seq, double epsilon, std::uint64_t seed);

  void reset();
  std::vector<sim::Word> step(std::span<const sim::Word> free_input_words);
  [[nodiscard]] const std::vector<sim::Word>& state() const noexcept {
    return inner_.state_;
  }

 private:
  SeqSim inner_;
  sim::Xoshiro256 rng_;
};

// Multi-cycle reliability: runs golden and noisy machines in lock-step on
// shared random inputs for `cycles` cycles and reports, per cycle, the
// fraction of lanes whose *output* is wrong at that cycle and whose *state*
// diverges. Trials = 64 × `word_passes`.
struct SeqReliabilityPoint {
  int cycle = 0;
  double output_error = 0.0;  // P(any primary output wrong at this cycle)
  double state_error = 0.0;   // P(any latch differs at end of this cycle)
};

struct SeqReliabilityOptions {
  int cycles = 16;
  std::uint64_t word_passes = 64;  // 64 trials each
  std::uint64_t seed = 0xCAFE;
};

[[nodiscard]] std::vector<SeqReliabilityPoint> estimate_seq_reliability(
    const SeqCircuit& seq, double epsilon,
    const SeqReliabilityOptions& options = {});

}  // namespace enb::seq
