#include "analysis/analyze.hpp"

#include "exec/batch.hpp"

namespace enb::analysis {

core::BoundReport analyze(const CompiledCircuit& circuit, double epsilon,
                          double delta, const core::EnergyModelOptions& energy,
                          const core::ProfileOptions& profile_options,
                          exec::Parallelism how) {
  return core::analyze(circuit.profile(profile_options, how), epsilon, delta,
                       energy);
}

AnalysisResult evaluate(const AnalysisRequest& request, exec::Parallelism how) {
  return exec::evaluate_requests({request}, how).front();
}

}  // namespace enb::analysis
