// BatchEvaluator contract tests over the typed analysis::AnalysisRequest
// API (the circuit-by-value BatchJob shims were removed after PR 3; see
// test_analysis.cpp for the handle-sharing coverage).
//
// The acceptance bar: a batch of >= 16 mixed requests (reliability,
// worst-case, activity, sensitivity, energy-bound, profile) produces
// bit-identical per-request results for threads in {1, 0 (global pool), 64
// (oversubscribed dedicated pool)} and for shuffled submission order — and
// every batched result equals the standalone estimator run with the same
// options, because the batch runs the estimators' own task sets.
#include "exec/batch.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "core/profile.hpp"
#include "fault/lanes.hpp"
#include "ft/nmr.hpp"
#include "gen/adders.hpp"
#include "gen/iscas.hpp"
#include "gen/suite.hpp"
#include "sim/reliability.hpp"

namespace enb::exec {
namespace {

using analysis::AnalysisKind;
using analysis::AnalysisRequest;
using analysis::AnalysisResult;
using analysis::CompiledCircuit;

netlist::Circuit suite_circuit(const std::string& name) {
  return gen::find_benchmark(name).build();
}

CompiledCircuit compile_suite(const std::string& name) {
  return analysis::compile(suite_circuit(name));
}

AnalysisRequest make_request(std::string name, CompiledCircuit circuit,
                             analysis::RequestOptions options) {
  AnalysisRequest request;
  request.name = std::move(name);
  request.circuit = std::move(circuit);
  request.options = std::move(options);
  return request;
}

// A 20-request mixed workload over small suite circuits, with budgets
// chosen so every kind produces several shards (and both sensitivity sweeps
// — exact and sampled — are exercised). Each call compiles fresh handles,
// so repeated runs start from cold artifact caches.
std::vector<AnalysisRequest> mixed_requests() {
  std::vector<AnalysisRequest> requests;
  const char* circuits[] = {"c17", "parity8", "rca8", "mult4"};
  for (const char* name : circuits) {
    const CompiledCircuit circuit = compile_suite(name);
    {
      analysis::ReliabilityRequest spec;
      spec.epsilon = 0.02;
      spec.options.trials = 2048;
      spec.options.shard_passes = 8;
      requests.push_back(
          make_request(std::string(name) + "/rel", circuit, spec));
    }
    {
      analysis::WorstCaseRequest spec;
      spec.epsilon = 0.05;
      spec.options.num_inputs = 16;
      spec.options.trials_per_input = 256;
      requests.push_back(
          make_request(std::string(name) + "/worst", circuit, spec));
    }
    {
      analysis::ActivityRequest spec;
      spec.options.sample_pairs = 256;
      spec.options.shard_pairs = 32;
      requests.push_back(
          make_request(std::string(name) + "/act", circuit, spec));
    }
    {
      analysis::SensitivityRequest spec;
      spec.options.max_exact_inputs = 8;  // rca8 (17 inputs) samples
      spec.options.sample_words = 64;
      spec.options.shard_words = 8;
      requests.push_back(
          make_request(std::string(name) + "/sens", circuit, spec));
    }
  }
  {
    // Redundant implementation vs its golden reference.
    const CompiledCircuit golden =
        analysis::compile(gen::ripple_carry_adder(4));
    analysis::ReliabilityRequest spec;
    spec.epsilon = 0.01;
    spec.options.trials = 2048;
    spec.options.shard_passes = 8;
    AnalysisRequest request = make_request(
        "tmr-rca4/rel",
        analysis::compile(ft::nmr_transform(golden.circuit()).circuit), spec);
    request.golden = golden;
    requests.push_back(std::move(request));
  }
  {
    analysis::EnergyBoundRequest spec;
    spec.epsilon = 0.01;
    spec.delta = 0.01;
    spec.profile.activity_pairs = 256;
    spec.profile.sensitivity_exact_max_inputs = 8;
    requests.push_back(
        make_request("mult4/bound", compile_suite("mult4"), spec));
  }
  {
    // 17 inputs: Monte-Carlo activity shards + sampled sensitivity shards.
    analysis::ProfileRequest spec;
    spec.options.activity_pairs = 256;
    spec.options.sensitivity_exact_max_inputs = 8;
    requests.push_back(
        make_request("rca8/profile", compile_suite("rca8"), spec));
  }
  {
    // 8 inputs: exact (BDD) activity route + exact sensitivity sweep.
    requests.push_back(make_request("parity8/profile",
                                    compile_suite("parity8"),
                                    analysis::ProfileRequest{}));
  }
  return requests;
}

std::map<std::string, AnalysisResult> by_name(
    std::vector<AnalysisResult> results) {
  std::map<std::string, AnalysisResult> map;
  for (AnalysisResult& r : results) {
    map.emplace(r.name, std::move(r));
  }
  return map;
}

void expect_identical(const std::map<std::string, AnalysisResult>& reference,
                      const std::map<std::string, AnalysisResult>& candidate,
                      const std::string& label) {
  ASSERT_EQ(reference.size(), candidate.size()) << label;
  for (const auto& [name, ref] : reference) {
    const auto it = candidate.find(name);
    ASSERT_NE(it, candidate.end()) << label << ": missing request " << name;
    EXPECT_EQ(ref.ok, it->second.ok) << label << ": " << name;
    // Bit-identical: exact double equality on every metric, no tolerance.
    EXPECT_EQ(ref.metrics, it->second.metrics) << label << ": " << name;
  }
}

TEST(Batch, MixedRequestsBitIdenticalAcrossThreadCountsAndOrder) {
  const auto reference =
      by_name(evaluate_requests(mixed_requests(), Parallelism{1}));
  ASSERT_GE(reference.size(), 16u);
  for (const auto& [name, r] : reference) {
    EXPECT_TRUE(r.ok) << name << ": " << r.error;
  }

  // Global pool and a heavily oversubscribed dedicated pool.
  for (unsigned threads : {0u, 64u}) {
    const auto parallel =
        by_name(evaluate_requests(mixed_requests(), Parallelism{threads}));
    expect_identical(reference, parallel,
                     "threads=" + std::to_string(threads));
  }

  // Shuffled submission order (fixed permutation: stride 7 is coprime with
  // the request count, so it visits every index).
  std::vector<AnalysisRequest> requests = mixed_requests();
  std::vector<AnalysisRequest> shuffled;
  const std::size_t n = requests.size();
  ASSERT_EQ(std::gcd(n, std::size_t{7}), 1u);  // stride must stay coprime
  for (std::size_t i = 0; i < n; ++i) {
    shuffled.push_back(std::move(requests[(i * 7) % n]));
  }
  const auto reordered =
      by_name(evaluate_requests(std::move(shuffled), Parallelism{64}));
  expect_identical(reference, reordered, "shuffled order");
}

TEST(Batch, ReliabilityRequestMatchesDirectEstimatorCall) {
  const CompiledCircuit circuit = compile_suite("c17");
  analysis::ReliabilityRequest spec;
  spec.epsilon = 0.03;
  spec.options.trials = 2000;  // not a multiple of 64 on purpose
  spec.options.shard_passes = 4;
  spec.options.seed = 99;
  const sim::ReliabilityResult direct = sim::estimate_reliability(
      circuit.circuit(), spec.epsilon, spec.options, Parallelism::serial());

  std::vector<AnalysisRequest> requests;
  requests.push_back(make_request("rel", circuit, spec));
  const auto results = evaluate_requests(std::move(requests));
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].metric("delta_hat"), direct.delta_hat);
  EXPECT_EQ(results[0].metric("ci_low"), direct.ci_low);
  EXPECT_EQ(results[0].metric("ci_high"), direct.ci_high);
  EXPECT_EQ(results[0].metric("failures"),
            static_cast<double>(direct.failures));
  EXPECT_EQ(results[0].metric("trials"), 2048.0);
  EXPECT_EQ(results[0].metric("requested_trials"), 2000.0);
}

TEST(Batch, WorstCaseRequestMatchesDirectEstimatorCall) {
  const CompiledCircuit circuit = compile_suite("c17");
  analysis::WorstCaseRequest spec;
  spec.epsilon = 0.05;
  spec.options.num_inputs = 24;
  spec.options.trials_per_input = 300;
  const sim::WorstCaseResult direct = sim::estimate_worst_case_reliability(
      circuit.circuit(), circuit.circuit(), spec.epsilon, spec.options,
      Parallelism::serial());

  std::vector<AnalysisRequest> requests;
  requests.push_back(make_request("worst", circuit, spec));
  const auto results = evaluate_requests(std::move(requests));
  ASSERT_TRUE(results[0].ok) << results[0].error;
  EXPECT_EQ(results[0].metric("worst_delta_hat"), direct.worst.delta_hat);
  EXPECT_EQ(results[0].metric("worst_failures"),
            static_cast<double>(direct.worst.failures));
  EXPECT_EQ(results[0].metric("average_delta"), direct.average_delta);
  EXPECT_EQ(results[0].metric("trials_per_input"), 320.0);
  EXPECT_EQ(results[0].metric("requested_trials_per_input"), 300.0);
}

TEST(Batch, ProfileRequestMatchesExtractProfile) {
  core::ProfileOptions options;
  options.activity_pairs = 256;
  options.sensitivity_exact_max_inputs = 8;

  for (const char* name : {"rca8", "parity8"}) {  // sampled and BDD routes
    const netlist::Circuit circuit = suite_circuit(name);
    const core::CircuitProfile direct =
        core::extract_profile(circuit, options, Parallelism::serial());

    std::vector<AnalysisRequest> requests;
    requests.push_back(make_request(name, analysis::compile(suite_circuit(name)),
                                    analysis::ProfileRequest{options}));
    const auto results = evaluate_requests(std::move(requests));
    ASSERT_TRUE(results[0].ok) << results[0].error;
    ASSERT_TRUE(results[0].profile.has_value());
    const core::CircuitProfile& p = *results[0].profile;
    EXPECT_EQ(p.num_inputs, direct.num_inputs) << name;
    EXPECT_EQ(p.size_s0, direct.size_s0) << name;
    EXPECT_EQ(p.depth_d0, direct.depth_d0) << name;
    EXPECT_EQ(p.avg_fanin_k, direct.avg_fanin_k) << name;
    EXPECT_EQ(p.avg_activity_sw0, direct.avg_activity_sw0) << name;
    EXPECT_EQ(p.sensitivity_s, direct.sensitivity_s) << name;
    EXPECT_EQ(p.sensitivity_exact, direct.sensitivity_exact) << name;
  }
}

// Profile consumers whose profile is not cached share one extraction per
// (profile options, input count): a batch mixing input counts, a cache hit
// and a gateless circuit gives every request the JSON it gets alone, and
// extracts each handle's profile exactly once.
TEST(Batch, GroupedExtractionsMatchOneRequestAtATime) {
  core::ProfileOptions options;
  options.activity_pairs = 256;
  options.sensitivity_exact_max_inputs = 8;
  const auto fresh_handles = [] {
    netlist::Circuit gateless("no-gates");
    for (int i = 0; i < 5; ++i) gateless.add_output(gateless.add_input());
    return std::vector<CompiledCircuit>{
        analysis::compile(gen::c17()),
        analysis::compile(ft::nmr_transform(gen::c17()).circuit),
        compile_suite("parity8"),
        compile_suite("mult4"),
        compile_suite("rca8"),
        analysis::compile(std::move(gateless))};
  };
  const auto requests_for = [&](const std::vector<CompiledCircuit>& handles) {
    std::vector<AnalysisRequest> requests;
    for (std::size_t h = 0; h < handles.size(); ++h) {
      const std::string name = "h" + std::to_string(h);
      requests.push_back(make_request(name + "/profile", handles[h],
                                      analysis::ProfileRequest{options}));
      analysis::EnergyBoundRequest bound;
      bound.profile = options;
      requests.push_back(make_request(name + "/bound", handles[h], bound));
    }
    return requests;
  };
  const auto json_of = [](const AnalysisResult& result) {
    std::ostringstream out;
    write_result_json(out, result);
    return out.str();
  };

  std::vector<std::string> alone;
  for (AnalysisRequest& request : requests_for(fresh_handles())) {
    std::vector<AnalysisRequest> one;
    one.push_back(std::move(request));
    alone.push_back(json_of(evaluate_requests(std::move(one))[0]));
  }
  EXPECT_NE(alone.back().find("no gates to profile"), std::string::npos)
      << alone.back();

  for (const Parallelism how :
       {Parallelism::serial(), Parallelism::global_pool(),
        Parallelism::dedicated(3)}) {
    const std::vector<CompiledCircuit> handles = fresh_handles();
    (void)handles[3].profile(options);  // a cache hit in the batch
    const std::vector<AnalysisResult> results =
        evaluate_requests(requests_for(handles), how);
    ASSERT_EQ(results.size(), alone.size());
    for (std::size_t r = 0; r < results.size(); ++r) {
      EXPECT_EQ(json_of(results[r]), alone[r]) << "threads " << how.threads;
    }
    for (std::size_t h = 0; h < handles.size(); ++h) {
      EXPECT_EQ(handles[h].profile_extractions(),
                h + 1 == handles.size() ? 0u : 1u)
          << "handle " << h << ", threads " << how.threads;
    }
  }
}

TEST(Batch, EnergyBoundRequestMatchesAnalyze) {
  core::ProfileOptions options;
  options.activity_pairs = 256;
  options.sensitivity_exact_max_inputs = 8;
  const netlist::Circuit circuit = suite_circuit("mult4");
  const core::CircuitProfile profile =
      core::extract_profile(circuit, options, Parallelism::serial());
  const core::BoundReport direct = core::analyze(profile, 0.02, 0.05);

  // Once via extraction, once via the profile-override shortcut (empty
  // circuit handle).
  std::vector<AnalysisRequest> requests;
  {
    analysis::EnergyBoundRequest spec;
    spec.epsilon = 0.02;
    spec.delta = 0.05;
    spec.profile = options;
    requests.push_back(make_request("extracted",
                                    analysis::compile(suite_circuit("mult4")),
                                    spec));
  }
  {
    analysis::EnergyBoundRequest spec;
    spec.epsilon = 0.02;
    spec.delta = 0.05;
    spec.profile_override = profile;
    requests.push_back(make_request("override", CompiledCircuit{}, spec));
  }
  const auto results = evaluate_requests(std::move(requests));
  for (const AnalysisResult& r : results) {
    ASSERT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_EQ(r.metric("total_factor"), direct.energy.total_factor) << r.name;
    EXPECT_EQ(r.metric("size_factor"), direct.size_factor) << r.name;
    EXPECT_EQ(r.metric("delay_factor"), direct.metrics.delay) << r.name;
  }
}

TEST(Batch, FailedRequestIsIsolated) {
  std::vector<AnalysisRequest> requests;
  {
    analysis::ReliabilityRequest spec;
    AnalysisRequest request =
        make_request("bad", analysis::compile(gen::c17()), spec);  // 5 inputs
    request.golden =
        analysis::compile(gen::ripple_carry_adder(4));  // 9 inputs: mismatch
    requests.push_back(std::move(request));
  }
  {
    requests.push_back(make_request(
        "empty", analysis::compile(netlist::Circuit("no-gates")),
        analysis::ProfileRequest{}));  // nothing to profile
  }
  {
    analysis::ActivityRequest spec;
    spec.options.sample_pairs = 64;
    requests.push_back(make_request("good", analysis::compile(gen::c17()),
                                    spec));
  }
  const auto results = evaluate_requests(std::move(requests));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("mismatch"), std::string::npos)
      << results[0].error;
  EXPECT_FALSE(results[1].ok);
  EXPECT_TRUE(results[2].ok) << results[2].error;
  EXPECT_TRUE(results[2].metric("avg_gate_toggle_rate").has_value());
}

TEST(Batch, EmptyQueueYieldsEmptyResults) {
  BatchEvaluator evaluator;
  EXPECT_EQ(evaluator.pending(), 0u);
  EXPECT_TRUE(evaluator.run().empty());
}

TEST(Batch, RunClearsTheQueue) {
  BatchEvaluator evaluator;
  analysis::ActivityRequest spec;
  spec.options.sample_pairs = 64;
  evaluator.submit(make_request("act", analysis::compile(gen::c17()), spec));
  EXPECT_EQ(evaluator.pending(), 1u);
  EXPECT_EQ(evaluator.run().size(), 1u);
  EXPECT_EQ(evaluator.pending(), 0u);
  EXPECT_TRUE(evaluator.run().empty());
}

TEST(Batch, JobKindRoundTrips) {
  for (std::size_t i = 0; i < std::variant_size_v<analysis::RequestOptions>;
       ++i) {
    const auto kind = static_cast<AnalysisKind>(i);
    const auto parsed = analysis::parse_analysis_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(analysis::parse_analysis_kind("worst_case"),
            AnalysisKind::kWorstCase);
  EXPECT_EQ(analysis::parse_analysis_kind("energy_bound"),
            AnalysisKind::kEnergyBound);
  EXPECT_EQ(analysis::parse_analysis_kind("fault_campaign"),
            AnalysisKind::kFaultCampaign);
  EXPECT_FALSE(analysis::parse_analysis_kind("bogus").has_value());
  EXPECT_FALSE(analysis::parse_analysis_kind("cecx").has_value());
  EXPECT_FALSE(analysis::parse_analysis_kind("ce").has_value());
  EXPECT_FALSE(analysis::parse_analysis_kind("").has_value());
}

// Memoized handle resolution, like the CLI and the server use.
std::function<CompiledCircuit(const std::string&)> memoized_resolver(
    std::map<std::string, CompiledCircuit>& handles) {
  return [&handles](const std::string& spec) {
    const auto it = handles.find(spec);
    if (it != handles.end()) return it->second;
    return handles.emplace(spec, compile_suite(spec)).first->second;
  };
}

TEST(Manifest, ParsesRequestsWithCommentsAndDefaults) {
  std::istringstream in(
      "# comment line\n"
      "\n"
      "r1 kind=reliability circuit=c17 eps=0.02 budget=4096 seed=5\n"
      "w1 kind=worst-case circuit=parity8 budget=512\n"
      "e1 kind=energy-bound circuit=mult4 delta=0.1 leakage=0.25\n"
      "p1 circuit=rca8 kind=profile\n");
  std::map<std::string, CompiledCircuit> handles;
  const auto requests = parse_manifest_requests(in, memoized_resolver(handles));
  ASSERT_EQ(requests.size(), 4u);
  EXPECT_EQ(requests[0].name, "r1");
  EXPECT_EQ(requests[0].kind(), AnalysisKind::kReliability);
  const auto& rel =
      std::get<analysis::ReliabilityRequest>(requests[0].options);
  EXPECT_DOUBLE_EQ(rel.epsilon, 0.02);
  EXPECT_EQ(rel.options.trials, 4096u);
  EXPECT_EQ(rel.options.seed, 5u);
  EXPECT_EQ(requests[1].kind(), AnalysisKind::kWorstCase);
  EXPECT_EQ(std::get<analysis::WorstCaseRequest>(requests[1].options)
                .options.trials_per_input,
            512u);
  const auto& bound =
      std::get<analysis::EnergyBoundRequest>(requests[2].options);
  EXPECT_DOUBLE_EQ(bound.delta, 0.1);
  EXPECT_DOUBLE_EQ(bound.energy.leakage_fraction, 0.25);
  EXPECT_EQ(requests[3].kind(), AnalysisKind::kProfile);  // key order is free
  EXPECT_GT(requests[3].circuit.circuit().gate_count(), 0u);
}

TEST(Manifest, SharedSpecsShareHandles) {
  std::istringstream in(
      "a kind=activity circuit=c17 budget=64\n"
      "b kind=sensitivity circuit=c17\n"
      "c kind=profile circuit=rca8\n");
  std::map<std::string, CompiledCircuit> handles;
  const auto requests = parse_manifest_requests(in, memoized_resolver(handles));
  ASSERT_EQ(requests.size(), 3u);
  EXPECT_TRUE(requests[0].circuit.same_handle(requests[1].circuit));
  EXPECT_FALSE(requests[0].circuit.same_handle(requests[2].circuit));
}

// ---- the manifest grammar, pinned ----------------------------------------
//
// One line per kind x each key the kind takes (empty = the kind's defaults),
// and the canonical spec it yields. A changed row means a manifest line now
// asks for a different analysis (and has a different cache key).
struct SpecRow {
  const char* kind;
  const char* setting;
  const char* spec;
};
constexpr SpecRow kSpecTable[] = {
    {"reliability", "",
     "reliability eps=0x1.47ae147ae147bp-7 trials=65536 seed=7 p1=0x1p-1 shard_passes=32"},
    {"reliability", "eps=0.02",
     "reliability eps=0x1.47ae147ae147bp-6 trials=65536 seed=7 p1=0x1p-1 shard_passes=32"},
    {"reliability", "delta=0.2",
     "reliability eps=0x1.47ae147ae147bp-7 trials=65536 seed=7 p1=0x1p-1 shard_passes=32"},
    {"reliability", "leakage=0.25",
     "reliability eps=0x1.47ae147ae147bp-7 trials=65536 seed=7 p1=0x1p-1 shard_passes=32"},
    {"reliability", "budget=77",
     "reliability eps=0x1.47ae147ae147bp-7 trials=77 seed=7 p1=0x1p-1 shard_passes=32"},
    {"reliability", "seed=9",
     "reliability eps=0x1.47ae147ae147bp-7 trials=65536 seed=9 p1=0x1p-1 shard_passes=32"},
    {"reliability", "golden=c17",
     "reliability eps=0x1.47ae147ae147bp-7 trials=65536 seed=7 p1=0x1p-1 shard_passes=32"},
    {"worst-case", "",
     "worst-case eps=0x1.47ae147ae147bp-7 num_inputs=64 trials_per_input=4096 seed=47825"},
    {"worst-case", "eps=0.02",
     "worst-case eps=0x1.47ae147ae147bp-6 num_inputs=64 trials_per_input=4096 seed=47825"},
    {"worst-case", "delta=0.2",
     "worst-case eps=0x1.47ae147ae147bp-7 num_inputs=64 trials_per_input=4096 seed=47825"},
    {"worst-case", "leakage=0.25",
     "worst-case eps=0x1.47ae147ae147bp-7 num_inputs=64 trials_per_input=4096 seed=47825"},
    {"worst-case", "budget=77",
     "worst-case eps=0x1.47ae147ae147bp-7 num_inputs=64 trials_per_input=77 seed=47825"},
    {"worst-case", "seed=9",
     "worst-case eps=0x1.47ae147ae147bp-7 num_inputs=64 trials_per_input=4096 seed=9"},
    {"worst-case", "golden=c17",
     "worst-case eps=0x1.47ae147ae147bp-7 num_inputs=64 trials_per_input=4096 seed=47825"},
    {"activity", "",
     "activity sample_pairs=16384 seed=1 p1=0x1p-1 shard_pairs=256"},
    {"activity", "eps=0.02",
     "activity sample_pairs=16384 seed=1 p1=0x1p-1 shard_pairs=256"},
    {"activity", "delta=0.2",
     "activity sample_pairs=16384 seed=1 p1=0x1p-1 shard_pairs=256"},
    {"activity", "leakage=0.25",
     "activity sample_pairs=16384 seed=1 p1=0x1p-1 shard_pairs=256"},
    {"activity", "budget=77",
     "activity sample_pairs=77 seed=1 p1=0x1p-1 shard_pairs=256"},
    {"activity", "seed=9",
     "activity sample_pairs=16384 seed=9 p1=0x1p-1 shard_pairs=256"},
    {"activity", "golden=c17",
     "activity sample_pairs=16384 seed=1 p1=0x1p-1 shard_pairs=256"},
    {"sensitivity", "",
     "sensitivity max_exact_inputs=22 sample_words=256 seed=3 shard_words=32"},
    {"sensitivity", "eps=0.02",
     "sensitivity max_exact_inputs=22 sample_words=256 seed=3 shard_words=32"},
    {"sensitivity", "delta=0.2",
     "sensitivity max_exact_inputs=22 sample_words=256 seed=3 shard_words=32"},
    {"sensitivity", "leakage=0.25",
     "sensitivity max_exact_inputs=22 sample_words=256 seed=3 shard_words=32"},
    {"sensitivity", "budget=77",
     "sensitivity max_exact_inputs=22 sample_words=77 seed=3 shard_words=32"},
    {"sensitivity", "seed=9",
     "sensitivity max_exact_inputs=22 sample_words=256 seed=9 shard_words=32"},
    {"sensitivity", "golden=c17",
     "sensitivity max_exact_inputs=22 sample_words=256 seed=3 shard_words=32"},
    {"energy-bound", "",
     "energy-bound eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 couple_leakage_to_delay=0 activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"energy-bound", "eps=0.02",
     "energy-bound eps=0x1.47ae147ae147bp-6 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 couple_leakage_to_delay=0 activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"energy-bound", "delta=0.2",
     "energy-bound eps=0x1.47ae147ae147bp-7 delta=0x1.999999999999ap-3 leakage_fraction=0x1p-1 couple_leakage_to_delay=0 activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"energy-bound", "leakage=0.25",
     "energy-bound eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-2 couple_leakage_to_delay=0 activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"energy-bound", "budget=77",
     "energy-bound eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 couple_leakage_to_delay=0 activity_pairs=77 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"energy-bound", "seed=9",
     "energy-bound eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 couple_leakage_to_delay=0 activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=9"},
    {"energy-bound", "golden=c17",
     "energy-bound eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 couple_leakage_to_delay=0 activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"profile", "",
     "profile activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"profile", "eps=0.02",
     "profile activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"profile", "delta=0.2",
     "profile activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"profile", "leakage=0.25",
     "profile activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"profile", "budget=77",
     "profile activity_pairs=77 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"profile", "seed=9",
     "profile activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=9"},
    {"profile", "golden=c17",
     "profile activity_pairs=4096 prefer_exact_activity=1 exact_activity_max_inputs=16 sensitivity_exact_max_inputs=20 sensitivity_sample_words=256 profile_seed=17"},
    {"fault-campaign", "",
     "fault-campaign patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=0"},
    {"fault-campaign", "eps=0.02",
     "fault-campaign patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=0"},
    {"fault-campaign", "delta=0.2",
     "fault-campaign patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=0"},
    {"fault-campaign", "leakage=0.25",
     "fault-campaign patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=0"},
    {"fault-campaign", "budget=77",
     "fault-campaign patterns=77 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=0"},
    {"fault-campaign", "seed=9",
     "fault-campaign patterns=256 exhaustive=0 seed=9 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=0"},
    {"fault-campaign", "golden=c17",
     "fault-campaign patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=0"},
    {"fault-campaign", "mode=exhaustive",
     "fault-campaign patterns=256 exhaustive=1 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=0"},
    {"fault-campaign", "drop=1",
     "fault-campaign patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=1 sample=0 prune=0"},
    {"fault-campaign", "sample=5",
     "fault-campaign patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=5 prune=0"},
    {"fault-campaign", "prune=1",
     "fault-campaign patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1"},
    {"lint", "",
     "lint exhaustive_cap=20 allow_voter_replicas=0"},
    {"lint", "eps=0.02",
     "lint exhaustive_cap=20 allow_voter_replicas=0"},
    {"lint", "delta=0.2",
     "lint exhaustive_cap=20 allow_voter_replicas=0"},
    {"lint", "leakage=0.25",
     "lint exhaustive_cap=20 allow_voter_replicas=0"},
    {"lint", "budget=77",
     "lint exhaustive_cap=20 allow_voter_replicas=0"},
    {"lint", "seed=9",
     "lint exhaustive_cap=20 allow_voter_replicas=0"},
    {"lint", "golden=c17",
     "lint exhaustive_cap=20 allow_voter_replicas=0"},
    {"cec", "",
     "cec seed=52933 signature_words=8 bdd_node_limit=4194304"},
    {"cec", "eps=0.02",
     "cec seed=52933 signature_words=8 bdd_node_limit=4194304"},
    {"cec", "delta=0.2",
     "cec seed=52933 signature_words=8 bdd_node_limit=4194304"},
    {"cec", "leakage=0.25",
     "cec seed=52933 signature_words=8 bdd_node_limit=4194304"},
    {"cec", "budget=77",
     "cec seed=52933 signature_words=77 bdd_node_limit=4194304"},
    {"cec", "seed=9",
     "cec seed=9 signature_words=8 bdd_node_limit=4194304"},
    {"cec", "golden=c17",
     "cec seed=52933 signature_words=8 bdd_node_limit=4194304"},
    {"harden", "",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "eps=0.02",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-6 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "delta=0.2",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.999999999999ap-3 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "leakage=0.25",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-2 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "budget=77",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=77 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "seed=9",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=9 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "golden=c17",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "mode=exhaustive",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=1 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "drop=1",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=1 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "sample=5",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=5 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "prune=1",
     "harden style=3:all granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "style=dwc",
     "harden style=3:dwc granularity=3:all top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "granularity=cone",
     "harden style=3:all granularity=4:cone top_k=0 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
    {"harden", "top_k=3",
     "harden style=3:all granularity=3:all top_k=3 voter=0 eps=0x1.47ae147ae147bp-7 delta=0x1.47ae147ae147bp-7 leakage_fraction=0x1p-1 patterns=256 exhaustive=0 seed=64023 shard_patterns=64 bundle_width=1 collapse=1 drop=0 sample=0 prune=1 cec_seed=52933 cec_signature_words=8 cec_bdd_node_limit=4194304"},
};

std::vector<AnalysisRequest> parse_text(const std::string& text) {
  std::istringstream in(text);
  std::map<std::string, CompiledCircuit> handles;
  return parse_manifest_requests(in, memoized_resolver(handles));
}

TEST(ManifestGrammar, EveryKeyOfEveryKindGivesThePinnedCanonicalSpec) {
  for (const SpecRow& row : kSpecTable) {
    const std::string line = std::string("j kind=") + row.kind +
                             " circuit=c17 " + row.setting + "\n";
    const std::vector<AnalysisRequest> requests = parse_text(line);
    ASSERT_EQ(requests.size(), 1u) << line;
    EXPECT_EQ(analysis::canonical_spec(requests[0].options), row.spec)
        << line;
  }
  // lanes= is execution policy and stays out of the spec.
  const auto campaign = parse_text(
      "f kind=fault-campaign circuit=c17 lanes=256\n"
      "h kind=harden circuit=c17 lanes=512\n");
  EXPECT_EQ(std::get<analysis::FaultCampaignRequest>(campaign[0].options)
                .options.lanes,
            fault::LaneWidth::k256);
  EXPECT_EQ(std::get<analysis::HardenRequest>(campaign[1].options)
                .options.campaign.lanes,
            fault::LaneWidth::k512);
}

// Rejected lines and their error texts.
struct RejectedLine {
  const char* text;
  const char* error;
};
constexpr RejectedLine kRejectedLines[] = {
    {"j kind=reliability circuit=c17 mode=random",
     "manifest line 1: keys 'mode', 'drop', 'lanes', 'sample', and 'prune' only apply to kind=fault-campaign and kind=harden"},
    {"j kind=lint circuit=c17 drop=1",
     "manifest line 1: keys 'mode', 'drop', 'lanes', 'sample', and 'prune' only apply to kind=fault-campaign and kind=harden"},
    {"j kind=cec circuit=c17 lanes=64",
     "manifest line 1: keys 'mode', 'drop', 'lanes', 'sample', and 'prune' only apply to kind=fault-campaign and kind=harden"},
    {"j kind=profile circuit=c17 sample=3",
     "manifest line 1: keys 'mode', 'drop', 'lanes', 'sample', and 'prune' only apply to kind=fault-campaign and kind=harden"},
    {"j kind=activity circuit=c17 prune=0",
     "manifest line 1: keys 'mode', 'drop', 'lanes', 'sample', and 'prune' only apply to kind=fault-campaign and kind=harden"},
    {"j kind=fault-campaign circuit=c17 style=tmr",
     "manifest line 1: keys 'style', 'granularity', and 'top_k' only apply to kind=harden"},
    {"j kind=reliability circuit=c17 granularity=gate",
     "manifest line 1: keys 'style', 'granularity', and 'top_k' only apply to kind=harden"},
    {"j kind=energy-bound circuit=c17 top_k=2",
     "manifest line 1: keys 'style', 'granularity', and 'top_k' only apply to kind=harden"},
    {"j kind=reliability circuit=c17 top_k=2 mode=random",
     "manifest line 1: keys 'mode', 'drop', 'lanes', 'sample', and 'prune' only apply to kind=fault-campaign and kind=harden"},
    {"j kind=fault-campaign circuit=c17 drop=2",
     "manifest line 1: drop must be 0 or 1"},
    {"j kind=fault-campaign circuit=c17 lanes=96",
     "manifest line 1: lanes must be 64, 128, 256, or 512"},
    {"j kind=fault-campaign circuit=c17 prune=2",
     "manifest line 1: prune must be 0 or 1"},
    {"j kind=fault-campaign circuit=c17 mode=x",
     "manifest line 1: mode must be 'random' or 'exhaustive', got 'x'"},
    {"j kind=harden circuit=c17 mode=x",
     "manifest line 1: mode must be 'random' or 'exhaustive', got 'x'"},
    {"j kind=harden circuit=c17 style=x",
     "manifest line 1: style must be tmr, dwc, or selective"},
    {"j kind=harden circuit=c17 granularity=x",
     "manifest line 1: granularity must be gate, cone, or output"},
    {"j kind=harden circuit=c17 top_k=x",
     "manifest line 1: value for key 'top_k' must be a non-negative integer, got 'x'"},
    {"j kind=fault-campaign circuit=c17 sample=-1",
     "manifest line 1: value for key 'sample' must be a non-negative integer, got '-1'"},
    {"j kind=reliability circuit=c17 drop=2",
     "manifest line 1: drop must be 0 or 1"},
    {"j kind=lint circuit=c17 mode=x",
     "manifest line 1: keys 'mode', 'drop', 'lanes', 'sample', and 'prune' only apply to kind=fault-campaign and kind=harden"},
    {"j kind=bogus circuit=c17",
     "manifest line 1: unknown kind 'bogus'"},
    {"j circuit=c17",
     "manifest line 1: missing kind="},
    {"j kind=reliability",
     "manifest line 1: missing circuit="},
    {"j kind=reliability circuit=c17 eps=abc",
     "manifest line 1: non-numeric value 'abc' for key 'eps'"},
    {"j kind=reliability circuit=c17 leakage=x",
     "manifest line 1: non-numeric value 'x' for key 'leakage'"},
    {"j kind=reliability circuit=c17 budget=12x",
     "manifest line 1: value for key 'budget' must be a non-negative integer, got '12x'"},
    // std::stoull would wrap "-1" to 2^64-1, whose rounded-up pass count
    // overflows to zero — a silent empty job reporting ok.
    {"j kind=reliability circuit=c17 budget=-1",
     "manifest line 1: value for key 'budget' must be a non-negative integer, got '-1'"},
    {"j kind=reliability circuit=c17 seed=-7",
     "manifest line 1: value for key 'seed' must be a non-negative integer, got '-7'"},
    {"j kind=reliability circuit=c17 frobnicate=1",
     "manifest line 1: unknown key 'frobnicate'"},
    {"j kind=reliability circuit=c17 noequals",
     "manifest line 1: expected key=value, got 'noequals'"},
    {"j kind=reliability circuit=c17 eps=",
     "manifest line 1: expected key=value, got 'eps='"},
    {"a kind=lint circuit=c17 drop=1\nb kind=fault-campaign circuit=c17 drop=5",
     "manifest line 2: drop must be 0 or 1"},
    {"a kind=lint circuit=c17\nb kind=lint circuit=c17 drop=1",
     "manifest line 2: keys 'mode', 'drop', 'lanes', 'sample', and 'prune' only apply to kind=fault-campaign and kind=harden"},
    {"a kind=lint circuit=c17\nb kind=reliability circuit=c17 eps=0.o1",
     "manifest line 2: non-numeric value '0.o1' for key 'eps'"},
};

TEST(Manifest, RejectsMalformedLines) {
  for (const RejectedLine& rejected : kRejectedLines) {
    try {
      (void)parse_text(std::string(rejected.text) + "\n");
      ADD_FAILURE() << "accepted: " << rejected.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), rejected.error) << rejected.text;
    }
  }
}

TEST(KindDescriptor, HeadlineIsARowOfEveryKindsSmokeManifestJob) {
  const std::filesystem::path manifest =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "examples" / "batch_smoke.manifest";
  std::ifstream in(manifest);
  ASSERT_TRUE(in.is_open()) << manifest;
  std::map<std::string, CompiledCircuit> handles;
  const auto results = evaluate_requests(
      parse_manifest_requests(in, memoized_resolver(handles)));
  std::set<AnalysisKind> kinds;
  for (const AnalysisResult& result : results) {
    ASSERT_TRUE(result.ok) << result.name << ": " << result.error;
    const char* headline = analysis::descriptor(result.kind).headline;
    EXPECT_TRUE(result.metric(headline).has_value())
        << result.name << " has no '" << headline << "' row";
    kinds.insert(result.kind);
  }
  EXPECT_EQ(kinds.size(), std::variant_size_v<analysis::RequestOptions>);
}

TEST(Batch, ZeroSampledSensitivityBudgetFailsTheRequest) {
  // 17 inputs with max_exact_inputs=8 selects the sampled sweep; a zero
  // sample budget must fail the request, not report ok with NaN influence.
  analysis::SensitivityRequest spec;
  spec.options.max_exact_inputs = 8;
  spec.options.sample_words = 0;
  std::vector<AnalysisRequest> requests;
  requests.push_back(make_request("sens0", compile_suite("rca8"), spec));
  const auto results = evaluate_requests(std::move(requests));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_NE(results[0].error.find("sample_words"), std::string::npos)
      << results[0].error;
}

TEST(BatchOutput, JsonEmitsNullForNonFiniteMetrics) {
  // delay_factor is legitimately +inf past the Theorem 4 feasibility limit;
  // "inf"/"nan" are not JSON literals and must render as null.
  AnalysisResult r;
  r.name = "edge";
  r.kind = AnalysisKind::kEnergyBound;
  r.ok = true;
  r.metrics = {{"total_factor", 2.5},
               {"delay_factor", std::numeric_limits<double>::infinity()},
               {"avg_power_factor", std::numeric_limits<double>::quiet_NaN()}};
  std::ostringstream json;
  write_batch_json(json, {r});
  EXPECT_NE(json.str().find("\"total_factor\": 2.5"), std::string::npos);
  EXPECT_NE(json.str().find("\"delay_factor\": null"), std::string::npos);
  EXPECT_NE(json.str().find("\"avg_power_factor\": null"), std::string::npos);
  EXPECT_EQ(json.str().find("inf"), std::string::npos);
  EXPECT_EQ(json.str().find("nan"), std::string::npos);
}

TEST(BatchOutput, ResultJsonObjectMatchesBatchArrayLine) {
  // The per-result writer is the server's framing unit; the array writer
  // must be exactly "[\n  <object>(,\n  <object>)*\n]\n" around it.
  AnalysisResult r;
  r.name = "one";
  r.kind = AnalysisKind::kActivity;
  r.ok = true;
  r.metrics = {{"avg_gate_toggle_rate", 0.25}};
  std::ostringstream object;
  write_result_json(object, r);
  std::ostringstream array;
  write_batch_json(array, {r});
  EXPECT_EQ(array.str(), "[\n  " + object.str() + "\n]\n");
}

TEST(BatchOutput, CsvAndJsonShapes) {
  std::vector<AnalysisRequest> requests;
  {
    analysis::ActivityRequest spec;
    spec.options.sample_pairs = 64;
    requests.push_back(make_request("act", analysis::compile(gen::c17()),
                                    spec));
  }
  {
    AnalysisRequest request = make_request(
        "bad", analysis::compile(gen::c17()), analysis::ReliabilityRequest{});
    request.golden = analysis::compile(gen::ripple_carry_adder(4));
    requests.push_back(std::move(request));
  }
  const auto results = evaluate_requests(std::move(requests));

  std::ostringstream csv;
  write_batch_csv(csv, results);
  EXPECT_NE(csv.str().find("job,kind,ok,metric,value"), std::string::npos);
  EXPECT_NE(csv.str().find("act,activity,1,avg_gate_toggle_rate,"),
            std::string::npos);
  EXPECT_NE(csv.str().find("bad,reliability,0,error,"), std::string::npos);

  std::ostringstream json;
  write_batch_json(json, results);
  EXPECT_NE(json.str().find("\"name\": \"act\""), std::string::npos);
  EXPECT_NE(json.str().find("\"ok\": true"), std::string::npos);
  EXPECT_NE(json.str().find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.str().find("mismatch"), std::string::npos);
}

}  // namespace
}  // namespace enb::exec
