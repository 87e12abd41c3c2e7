// harden-sweep: the only workload where fault campaigns, CEC, lint and
// redundancy transforms do real work. One caller; each op is one full
// harden::pareto_sweep (every style x granularity x K) over a freshly
// compiled base handle, alternating c432 and rca16, with a fixed campaign
// pattern budget and one campaign seed drawn from the run seed.
//
// Verification: every op on a circuit must return the same ParetoResult,
// every candidate must be equivalent and lint-clean, and a replay of the
// sweep's build/prove/lint calls (with the same ranking evidence) must
// rebuild each candidate with the sweep's gate count. The replay is where
// the trace times the transform and lint layers, which the sweep runs
// internally.

#include <cstdint>
#include <exception>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/lint.hpp"
#include "analysis/static_reason.hpp"
#include "common.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_model.hpp"
#include "gen/suite.hpp"
#include "harden/pareto.hpp"
#include "harden/transform.hpp"
#include "harden/types.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

using namespace enb;

constexpr const char* kCircuits[] = {"c432", "rca16"};
constexpr std::size_t kNumCircuits = std::size(kCircuits);
constexpr int kMaxFanin = 3;
constexpr std::uint64_t kCampaignPatterns = 256;

struct OpRecord {
  std::size_t circuit = 0;
  std::optional<harden::ParetoResult> result;
};

class HardenSweep final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    options_.campaign.patterns = kCampaignPatterns;
    options_.campaign.seed = Draw(seed).next();
    options_.campaign.drop = true;
    for (const char* name : kCircuits) {
      bases_.push_back(analysis::compile(gen::find_benchmark(name).build())
                           .mapped(kMaxFanin)
                           .circuit());
    }
  }

  PhaseResult run(const PhaseLimit& limit, CountWindow* window) override {
    PhaseResult phase;
    const Clock::time_point start = Clock::now();
    for (std::size_t round = 0; !limit.done(start, round); ++round) {
      for (std::size_t circuit = 0; circuit < kNumCircuits; ++circuit) {
        netlist::Circuit copy = bases_[circuit];
        OpRecord record{circuit, std::nullopt};
        const Clock::time_point op_start = Clock::now();
        try {
          const obs::Span op("op");
          analysis::CompiledCircuit base;
          {
            const obs::Span span("analysis.compile", op.handle());
            base = analysis::compile(std::move(copy));
          }
          const obs::Span span("harden.sweep", op.handle());
          record.result = harden::pareto_sweep(base, options_);
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
    classes_sampled_ = 0;
    for (std::size_t circuit = 0; circuit < kNumCircuits; ++circuit) {
      const harden::ParetoResult* first = nullptr;
      std::size_t ops = 0;
      for (const OpRecord& op : ops_) {
        if (op.circuit != circuit || !op.result.has_value()) continue;
        ops += 1;
        if (first == nullptr) first = &*op.result;
        if (*op.result != *first || !all_proved(*op.result)) failed += 1;
      }
      if (first != nullptr && !replay(circuit, *first)) failed += ops;
    }
    return failed;
  }

  void verified_counts(Counts& counts) const override {
    counts["fault.classes_sampled"] += classes_sampled_;
  }

 private:
  static bool all_proved(const harden::ParetoResult& result) {
    for (const harden::Candidate& candidate : result.candidates) {
      if (!candidate.equivalent || !candidate.lint_clean) return false;
    }
    return result.refuted == 0 && result.lint_errors == 0 &&
           !result.frontier.empty();
  }

  // Rebuilds, proves and lints every candidate of `expected` the way the
  // sweep does, and counts the fault classes one sweep grades. Returns
  // false on any disagreement with the sweep.
  bool replay(std::size_t circuit, const harden::ParetoResult& expected) {
    const netlist::Circuit& base = bases_[circuit];
    const obs::Span root("replay");
    const std::vector<std::size_t> ranking = harden::rank_output_cones(
        base, fault::run_campaign(base, nullptr, options_.campaign));
    const std::vector<harden::TransformOptions> configs =
        harden::enumerate_candidates(base.num_outputs(), options_);
    if (configs.size() + 1 != expected.candidates.size()) return false;
    classes_sampled_ += graded_classes(base);
    bool ok = true;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      harden::HardenedCircuit variant;
      {
        const obs::Span span("harden.transform", root.handle());
        variant = harden::harden_transform(base, configs[i], ranking);
      }
      analysis::CecResult proof;
      {
        const obs::Span span("analysis.cec", root.handle());
        proof = harden::verify_hardened(base, variant, options_.cec);
      }
      analysis::LintReport lint;
      {
        const obs::Span span("analysis.lint", root.handle());
        lint = harden::lint_hardened(variant);
      }
      ok = ok && proof.equivalent && lint.clean() &&
           variant.circuit.gate_count() == expected.candidates[i + 1].gates;
      classes_sampled_ += graded_classes(variant.circuit);
    }
    return ok;
  }

  // Fault classes a campaign over `circuit` grades with the sweep's options.
  std::uint64_t graded_classes(const netlist::Circuit& circuit) const {
    const fault::FaultUniverse universe = fault::FaultUniverse::build(
        circuit, options_.campaign.collapse, options_.campaign.prune_untestable);
    return fault::sampled_classes(universe, options_.campaign).size();
  }

  harden::SweepOptions options_;
  std::vector<netlist::Circuit> bases_;  // mapped, in kCircuits order
  std::vector<OpRecord> ops_;
  std::uint64_t classes_sampled_ = 0;  // over one sweep per circuit
};

}  // namespace

std::unique_ptr<Workload> make_harden_sweep() {
  return std::make_unique<HardenSweep>();
}

}  // namespace perfbench
