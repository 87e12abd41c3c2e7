// bound-wide: the paper's pipeline on the largest inputs. One caller; each
// op is a full energy-bound request on a netlist parsed fresh from .bench
// text: parse -> map (K=3) -> compile -> profile extraction (activity,
// sensitivity) -> Theorems 1-4 at (eps, delta) = (0.01, 0.01).
//
// The op calls the sim layer's estimators itself, the way
// core::extract_profile does, so the trace can split activity from
// sensitivity. Verification re-evaluates a sample op per circuit through the
// library's own front door (analysis::evaluate, one thread) and requires
// byte-identical result JSON, which also proves the split faithful.

#include <algorithm>
#include <iterator>
#include <exception>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyze.hpp"
#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "common.hpp"
#include "core/analyzer.hpp"
#include "core/profile.hpp"
#include "exec/batch.hpp"
#include "gen/suite.hpp"
#include "netlist/bench_io.hpp"
#include "obs/trace.hpp"
#include "sim/activity.hpp"
#include "sim/sensitivity.hpp"
#include "synth/library.hpp"
#include "synth/mapper.hpp"

namespace perfbench {
namespace {

using namespace enb;

// The kilo-net scale suite minus c432 (which harden-sweep covers). All four
// have more inputs than ProfileOptions::exact_activity_max_inputs, so
// core::extract_profile takes the Monte-Carlo activity path for them too.
constexpr const char* kCircuits[] = {"rca256", "csel64", "mult16", "alu64"};
constexpr std::size_t kNumCircuits = std::size(kCircuits);
// A round runs every circuit once in a seeded order, and alu64 a second
// time: with ops taking ~0.14 s (csel64, mult16), ~0.24 s (alu64) and ~1 s
// (rca256), five ops per round put the median op inside alu64's cluster
// instead of on the gap between two clusters, where it would jump with
// noise.
constexpr std::size_t kRound[] = {0, 1, 2, 3, 3};
constexpr double kEpsilon = 0.01;
constexpr double kDelta = 0.01;
constexpr int kMaxFanin = 3;

core::ProfileOptions profile_options(std::uint64_t seed) {
  core::ProfileOptions options;
  options.seed = seed;
  return options;
}

std::string result_json(const analysis::AnalysisResult& result) {
  std::ostringstream out;
  exec::write_result_json(out, result);
  return out.str();
}

struct OpRecord {
  std::size_t circuit = 0;
  std::uint64_t profile_seed = 0;
  std::string json;
};

class BoundWide final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    seed_ = seed;
    for (const char* name : kCircuits) {
      texts_.push_back(
          netlist::write_bench_string(gen::find_benchmark(name).build()));
    }
  }

  PhaseResult run(const PhaseLimit& limit, CountWindow* window) override {
    PhaseResult phase;
    Draw draw(seed_);
    flips_ = 0;
    std::vector<std::size_t> order;
    const Clock::time_point start = Clock::now();
    for (std::size_t round = 0; !limit.done(start, round); ++round) {
      order.assign(std::begin(kRound), std::end(kRound));
      draw.shuffle(order);
      for (const std::size_t circuit : order) {
        OpRecord record{circuit, draw.next(), {}};
        const Clock::time_point op_start = Clock::now();
        try {
          record.json = run_op(record, round == 0 ? window : nullptr);
        } catch (const std::exception&) {
          phase.failed += 1;
        }
        phase.op_seconds.push_back(seconds_since(op_start));
        ops_.push_back(std::move(record));
      }
      if (round == 0 && window != nullptr) window->close();
    }
    phase.wall_seconds = seconds_since(start);
    return phase;
  }

  std::size_t verify() override {
    std::size_t failed = 0;
    Draw draw(seed_ ^ 0x5A3D1E5ull);
    for (std::size_t circuit = 0; circuit < kNumCircuits; ++circuit) {
      std::vector<const OpRecord*> mine;
      for (const OpRecord& op : ops_) {
        if (op.circuit == circuit) mine.push_back(&op);
      }
      if (mine.empty()) continue;
      const OpRecord& sample = *mine[draw.below(mine.size())];
      const obs::Span root("replay");
      netlist::Circuit parsed =
          netlist::read_bench_string(texts_[circuit], kCircuits[circuit]);
      analysis::AnalysisRequest request;
      request.name = kCircuits[circuit];
      request.circuit = analysis::compile(std::move(parsed)).mapped(kMaxFanin);
      analysis::EnergyBoundRequest spec;
      spec.epsilon = kEpsilon;
      spec.delta = kDelta;
      spec.profile = profile_options(sample.profile_seed);
      request.options = spec;
      const analysis::AnalysisResult reference =
          analysis::evaluate(request, exec::Parallelism::serial());
      if (!reference.ok || result_json(reference) != sample.json) {
        failed += mine.size();
      }
    }
    return failed;
  }

  void layer_values(Values& values) override {
    values["sim.sensitivity_flips"] = static_cast<double>(flips_);
  }

 private:
  // One op; returns its write_result_json bytes.
  std::string run_op(const OpRecord& record, CountWindow* window) {
    const char* name = kCircuits[record.circuit];
    const obs::Span op("op");

    netlist::Circuit parsed;
    {
      const obs::Span span("netlist.parse", op.handle());
      parsed = netlist::read_bench_string(texts_[record.circuit], name);
    }
    synth::MapResult mapped;
    {
      const obs::Span span("synth.map", op.handle());
      synth::MapOptions options;
      options.library = synth::Library::generic(kMaxFanin);
      mapped = synth::map_to_library(parsed, options);
    }
    analysis::CompiledCircuit compiled;
    {
      const obs::Span span("analysis.compile", op.handle());
      compiled = analysis::compile(std::move(mapped.circuit));
    }

    const core::ProfileOptions options = profile_options(record.profile_seed);
    const netlist::Circuit& circuit = compiled.circuit();
    core::CircuitProfile profile;
    sim::ActivityResult activity;
    sim::SensitivityResult sensitivity;
    {
      const obs::Span extract("core.extract_profile", op.handle());
      const netlist::CircuitStats& stats = compiled.stats();
      profile.name = circuit.name();
      profile.num_inputs = static_cast<int>(stats.num_inputs);
      profile.num_outputs = static_cast<int>(stats.num_outputs);
      profile.size_s0 = static_cast<double>(stats.num_gates);
      profile.depth_d0 = stats.depth;
      profile.avg_fanin_k = stats.avg_fanin;
      profile.max_fanin = stats.max_fanin;
      {
        const obs::Span span("sim.activity", extract.handle());
        sim::ActivityOptions activity_options;
        activity_options.sample_pairs = options.activity_pairs;
        activity_options.seed = options.seed;
        activity = sim::estimate_activity(circuit, activity_options, {});
      }
      {
        const obs::Span span("sim.sensitivity", extract.handle());
        sim::SensitivityOptions sensitivity_options;
        sensitivity_options.max_exact_inputs =
            options.sensitivity_exact_max_inputs;
        sensitivity_options.sample_words = options.sensitivity_sample_words;
        sensitivity_options.seed = options.seed + 1;
        sensitivity =
            sim::compute_sensitivity(circuit, sensitivity_options, {});
      }
      profile.avg_activity_sw0 = activity.avg_gate_toggle_rate;
      profile.sensitivity_s = std::max(1, sensitivity.sensitivity);
      profile.sensitivity_exact = sensitivity.exact;
    }
    core::BoundReport report;
    {
      const obs::Span span("core.theorems", op.handle());
      report = core::analyze(profile, kEpsilon, kDelta);
    }

    flips_ += sensitivity.assignments * circuit.num_inputs();
    if (window != nullptr) {
      window->add("netlist.parsed_nodes", parsed.node_count());
      window->add("synth.mapped_gates", circuit.gate_count());
      window->add("sim.activity_pairs", activity.sample_pairs);
      window->add("sim.sensitivity_assignments", sensitivity.assignments);
    }
    return result_json(analysis::make_result(name, std::move(report)));
  }

  std::uint64_t seed_ = 0;
  std::vector<std::string> texts_;
  std::vector<OpRecord> ops_;
  std::uint64_t flips_ = 0;  // sensitivity input flips in the last phase
};

}  // namespace

std::unique_ptr<Workload> make_bound_wide() {
  return std::make_unique<BoundWide>();
}

}  // namespace perfbench
