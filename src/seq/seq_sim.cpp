#include "seq/seq_sim.hpp"

#include <stdexcept>

#include "sim/prng.hpp"

namespace enb::seq {

using netlist::GateType;
using netlist::NodeId;
using sim::Word;

SeqSim::SeqSim(const SeqCircuit& seq)
    : seq_(&seq),
      core_(seq.core()),
      state_(seq.num_latches(), 0),
      values_(seq.core().node_count(), 0) {
  seq.validate();
  reset();
}

void SeqSim::reset() {
  for (std::size_t l = 0; l < seq_->num_latches(); ++l) {
    state_[l] = seq_->latches()[l].initial_value ? sim::kAllOnes : 0;
  }
}

void SeqSim::eval_core(std::span<const Word> free_input_words,
                       sim::Xoshiro256* noise_rng) {
  const std::vector<NodeId> free = seq_->free_inputs();
  if (free_input_words.size() != free.size()) {
    throw std::invalid_argument("SeqSim::step: free input count mismatch");
  }
  // Scatter input words: latch outputs from state, free inputs from caller.
  core_inputs_.assign(core_.num_inputs(), 0);
  for (std::size_t l = 0; l < seq_->num_latches(); ++l) {
    core_inputs_[static_cast<std::size_t>(
        core_.input_slot(seq_->latches()[l].state_output))] = state_[l];
  }
  for (std::size_t i = 0; i < free.size(); ++i) {
    core_inputs_[static_cast<std::size_t>(core_.input_slot(free[i]))] =
        free_input_words[i];
  }
  for (NodeId id = 0; id < core_.node_count(); ++id) {
    const GateType kind = core_.kind(id);
    if (kind == GateType::kInput) {
      values_[id] =
          core_inputs_[static_cast<std::size_t>(core_.input_slot(id))];
      continue;
    }
    Word v = sim::eval_gate(core_, id, values_.data());
    if (noise_rng != nullptr && counts_as_gate(kind) && epsilon_ > 0.0) {
      v ^= sim::bernoulli_word(*noise_rng, epsilon_);
    }
    values_[id] = v;
  }
  // Latch the next state.
  for (std::size_t l = 0; l < seq_->num_latches(); ++l) {
    state_[l] = values_[seq_->latches()[l].next_state];
  }
}

std::vector<Word> SeqSim::step(std::span<const Word> free_input_words) {
  eval_core(free_input_words, nullptr);
  std::vector<Word> outs;
  outs.reserve(seq_->core().num_outputs());
  for (NodeId id : seq_->core().outputs()) outs.push_back(values_[id]);
  return outs;
}

NoisySeqSim::NoisySeqSim(const SeqCircuit& seq, double epsilon,
                         std::uint64_t seed)
    : inner_(seq), rng_(seed) {
  if (epsilon < 0.0 || epsilon > 0.5) {
    throw std::invalid_argument("NoisySeqSim: epsilon must be in [0, 0.5]");
  }
  inner_.epsilon_ = epsilon;
}

void NoisySeqSim::reset() { inner_.reset(); }

std::vector<Word> NoisySeqSim::step(std::span<const Word> free_input_words) {
  inner_.eval_core(free_input_words, &rng_);
  std::vector<Word> outs;
  outs.reserve(inner_.seq_->core().num_outputs());
  for (NodeId id : inner_.seq_->core().outputs()) {
    outs.push_back(inner_.values_[id]);
  }
  return outs;
}

std::vector<SeqReliabilityPoint> estimate_seq_reliability(
    const SeqCircuit& seq, double epsilon,
    const SeqReliabilityOptions& options) {
  if (options.cycles < 1 || options.word_passes < 1) {
    throw std::invalid_argument(
        "estimate_seq_reliability: cycles and word_passes must be >= 1");
  }
  const std::size_t free_count = seq.free_inputs().size();
  std::vector<std::uint64_t> output_failures(
      static_cast<std::size_t>(options.cycles), 0);
  std::vector<std::uint64_t> state_failures(
      static_cast<std::size_t>(options.cycles), 0);

  sim::Xoshiro256 rng(options.seed);
  for (std::uint64_t pass = 0; pass < options.word_passes; ++pass) {
    SeqSim golden(seq);
    NoisySeqSim noisy(seq, epsilon, rng.next());
    std::vector<Word> inputs(free_count);
    for (int cycle = 0; cycle < options.cycles; ++cycle) {
      for (Word& w : inputs) w = rng.next();
      const auto out_g = golden.step(inputs);
      const auto out_n = noisy.step(inputs);
      Word out_wrong = 0;
      for (std::size_t o = 0; o < out_g.size(); ++o) {
        out_wrong |= out_g[o] ^ out_n[o];
      }
      Word state_wrong = 0;
      for (std::size_t l = 0; l < seq.num_latches(); ++l) {
        state_wrong |= golden.state()[l] ^ noisy.state()[l];
      }
      output_failures[static_cast<std::size_t>(cycle)] +=
          static_cast<std::uint64_t>(sim::popcount(out_wrong));
      state_failures[static_cast<std::size_t>(cycle)] +=
          static_cast<std::uint64_t>(sim::popcount(state_wrong));
    }
  }

  const double trials =
      static_cast<double>(options.word_passes) * sim::kWordBits;
  std::vector<SeqReliabilityPoint> points;
  points.reserve(static_cast<std::size_t>(options.cycles));
  for (int cycle = 0; cycle < options.cycles; ++cycle) {
    SeqReliabilityPoint p;
    p.cycle = cycle;
    p.output_error =
        static_cast<double>(output_failures[static_cast<std::size_t>(cycle)]) /
        trials;
    p.state_error =
        static_cast<double>(state_failures[static_cast<std::size_t>(cycle)]) /
        trials;
    points.push_back(p);
  }
  return points;
}

}  // namespace enb::seq
