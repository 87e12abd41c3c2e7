// The analysis layer's front door for single requests: analyze() for the
// Theorem 1-4 bounds of a handle, and evaluate() for one typed request.
//
// evaluate() is a batch of one — exec::BatchEvaluator is the only code that
// dispatches on AnalysisKind — so a single evaluation returns exactly what
// the same request returns inside any batch. For one kind on its own, call
// the engine directly (sim::estimate_reliability, CompiledCircuit::profile,
// fault::run_campaign, ...).
#pragma once

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "core/analyzer.hpp"

namespace enb::analysis {

// Theorem 1-4 bounds at (epsilon, delta) for the handle's cached profile
// (extracting it on first use).
[[nodiscard]] core::BoundReport analyze(
    const CompiledCircuit& circuit, double epsilon, double delta,
    const core::EnergyModelOptions& energy = {},
    const core::ProfileOptions& profile_options = {},
    exec::Parallelism how = {});

// Evaluates one request as a batch of one. Never throws for per-request
// problems: invalid options or a throwing evaluation produce ok = false with
// the error text, exactly like a batch job. result.index is 0.
[[nodiscard]] AnalysisResult evaluate(const AnalysisRequest& request,
                                      exec::Parallelism how = {});

}  // namespace enb::analysis
