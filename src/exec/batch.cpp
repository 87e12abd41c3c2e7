#include "exec/batch.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <iomanip>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/lint.hpp"
#include "exec/thread_pool.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_model.hpp"
#include "fault/lanes.hpp"
#include "harden/pareto.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/csv.hpp"
#include "util/numeric.hpp"
#include "util/sync.hpp"

namespace enb::exec {

namespace {

using analysis::AnalysisKind;
using analysis::AnalysisRequest;
using analysis::AnalysisResult;
using analysis::CompiledCircuit;
using netlist::Circuit;

const Circuit& golden_of(const AnalysisRequest& request) {
  return request.golden.has_value() ? request.golden->circuit()
                                    : request.circuit.circuit();
}

// One profile extraction shared by every request in the batch that names the
// same (handle, profile options): the core::ProfileExtraction's tasks enter
// the flat task space exactly once and the finished profile lands in the
// handle's cache. The group only adds the batch's bookkeeping.
struct ExtractionGroup {
  // Validates exactly like core::extract_profile (the extraction's
  // constructor throws).
  ExtractionGroup(CompiledCircuit handle, const core::ProfileOptions& opts)
      : circuit(std::move(handle)),
        options(opts),
        extraction(circuit.circuit(), options),
        remaining(extraction.num_tasks()) {}

  CompiledCircuit circuit;
  core::ProfileOptions options;
  core::ProfileExtraction extraction;

  std::atomic<std::size_t> remaining;
  std::atomic<bool> failed{false};
  // Stamped at group creation; assemble() observes the extraction histogram
  // and trace span from it, so the span covers the sharded extraction
  // wall-clock (queueing included) like the serial path's span does.
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  util::Mutex mutex;  // guards error and the profile
  std::string error ENB_GUARDED_BY(mutex);
  // Set once by assemble(); dependents read it under the lock in finalize.
  std::optional<core::CircuitProfile> profile ENB_GUARDED_BY(mutex);
  std::vector<std::size_t> dependents;  // request indices

  void record_error(const std::string& message) {
    const util::LockGuard lock(mutex);
    if (!failed.load(std::memory_order_relaxed)) error = message;
    failed.store(true, std::memory_order_relaxed);
  }

  std::string error_text() {
    const util::LockGuard lock(mutex);
    return error;
  }

  // Run by whichever worker finishes the last task; the profile is stored
  // both here (for this batch's dependents) and in the handle's cache (for
  // every later consumer of the handle).
  void assemble() {
    core::CircuitProfile p = extraction.finish();
    circuit.store_profile(options, p);
    {
      const util::LockGuard lock(mutex);
      profile = std::move(p);
    }

    const auto end = std::chrono::steady_clock::now();
    static obs::Histogram& seconds =
        obs::Registry::global().histogram("analysis-extraction-seconds");
    seconds.observe(std::chrono::duration<double>(end - started).count());
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
      recorder.record("profile-extraction",
                      obs::SpanHandle{recorder.new_id()}, obs::SpanHandle{},
                      started, end, circuit.name());
    }
  }
};

// All per-request mutable state for one batch run. Accumulators merge
// commutatively (sums, max, slot-per-shard writes), so shard completion
// order never reaches the result.
struct JobState {
  const AnalysisRequest* request = nullptr;
  // Prepare-time stamp; emission computes the job's wall-clock elapsed from
  // it (observability only — never part of the result's serialized bytes).
  std::chrono::steady_clock::time_point start{};
  std::size_t num_tasks = 0;  // own tasks (excludes the extraction group's)
  std::function<void(JobState&, std::size_t)> run_task;
  std::function<void(JobState&, AnalysisResult&)> finalize;
  // Shared extraction this request waits on (one completion unit).
  ExtractionGroup* extraction = nullptr;
  // Completion units left: own tasks + (extraction ? 1 : 0). The thread that
  // takes this to zero finalizes and emits the result.
  std::atomic<std::size_t> pending{0};

  // Error isolation: the first failing task records the message and the
  // request's remaining tasks turn into no-ops; other requests are
  // unaffected.
  std::atomic<bool> failed{false};
  util::Mutex mutex;  // guards error and non-atomic accumulators
  std::string error ENB_GUARDED_BY(mutex);

  // kReliability
  std::atomic<std::uint64_t> failures{0};
  // kWorstCase: slot per sample (disjoint writes; no lock needed)
  std::vector<std::uint64_t> sample_failures;
  // kActivity
  std::unique_ptr<sim::ActivityCounts> activity_counts
      ENB_PT_GUARDED_BY(mutex);
  // kSensitivity
  std::unique_ptr<sim::SensitivityCounts> sensitivity_counts
      ENB_PT_GUARDED_BY(mutex);
  // kEnergyBound via override or cached profile: single writer (task 0).
  std::optional<core::BoundReport> report;
  // Profile found in the handle's cache at prepare time.
  std::optional<core::CircuitProfile> cached_profile;
  // kFaultCampaign: the universe is built once at prepare time and shared
  // (read-only) by every pattern shard; counts merge commutatively.
  std::shared_ptr<const fault::FaultUniverse> fault_universe;
  std::unique_ptr<fault::CampaignCounts> campaign_counts
      ENB_PT_GUARDED_BY(mutex);
  // kLint: single task, single writer.
  std::optional<analysis::LintReport> lint ENB_GUARDED_BY(mutex);
  // kCec: single task, single writer.
  std::optional<analysis::CecResult> cec ENB_GUARDED_BY(mutex);
  // kHarden: single task, single writer — the sweep drives its own nested
  // batch, which runs inline on this worker (pool reentrancy contract).
  std::optional<harden::ParetoResult> harden ENB_GUARDED_BY(mutex);

  void record_error(const std::string& message) {
    const util::LockGuard lock(mutex);
    if (!failed.load(std::memory_order_relaxed)) error = message;
    failed.store(true, std::memory_order_relaxed);
  }

  std::string error_text() {
    const util::LockGuard lock(mutex);
    return error;
  }
};

void finish_with_payload(AnalysisResult& result,
                         analysis::ResultPayload payload) {
  analysis::set_payload(result, std::move(payload));
}

// ---- per-kind preparation -------------------------------------------------
//
// Each prepare_* validates the request spec (throwing like the standalone
// estimator would), sizes the task space, and installs the task body and
// the finalize reduction. Task bodies only call the estimators' shard-level
// building blocks, which is what makes batched results bit-identical to
// direct calls.

void prepare_reliability(const AnalysisRequest& request,
                         const analysis::ReliabilityRequest& spec,
                         JobState& state) {
  sim::validate_reliability_inputs(request.circuit.circuit(),
                                   golden_of(request), spec.options);
  const ShardPlan plan = sim::reliability_shard_plan(spec.options);
  state.num_tasks = plan.num_shards();
  state.run_task = [plan, &spec](JobState& s, std::size_t shard) {
    s.failures.fetch_add(
        sim::reliability_shard_failures(
            s.request->circuit.circuit(), golden_of(*s.request), spec.epsilon,
            spec.options, plan.shard(shard)),
        std::memory_order_relaxed);
  };
  state.finalize = [plan, &spec](JobState& s, AnalysisResult& r) {
    sim::ReliabilityResult rel =
        sim::wilson_interval(s.failures.load(), plan.total() * sim::kWordBits);
    rel.requested_trials = spec.options.trials;
    finish_with_payload(r, std::move(rel));
  };
}

void prepare_worst_case(const AnalysisRequest& request,
                        const analysis::WorstCaseRequest& spec,
                        JobState& state) {
  sim::validate_worst_case_inputs(request.circuit.circuit(),
                                  golden_of(request), spec.options);
  state.sample_failures.assign(
      static_cast<std::size_t>(spec.options.num_inputs), 0);
  state.num_tasks = state.sample_failures.size();
  state.run_task = [&spec](JobState& s, std::size_t sample) {
    s.sample_failures[sample] = sim::worst_case_sample_failures(
        s.request->circuit.circuit(), golden_of(*s.request), spec.epsilon,
        spec.options, sample);
  };
  state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    finish_with_payload(
        r, sim::finalize_worst_case(s.request->circuit.circuit(), spec.options,
                                    s.sample_failures));
  };
}

void prepare_activity(const AnalysisRequest& request,
                      const analysis::ActivityRequest& spec, JobState& state) {
  sim::validate_activity_inputs(spec.options);
  const ShardPlan plan = sim::activity_shard_plan(spec.options);
  state.activity_counts = std::make_unique<sim::ActivityCounts>(
      request.circuit.circuit().node_count());
  state.num_tasks = plan.num_shards();
  auto flat =
      std::make_shared<const sim::FlatCircuit>(request.circuit.circuit());
  state.run_task = [plan, flat, &spec](JobState& s, std::size_t shard) {
    const sim::ActivityCounts local =
        sim::activity_shard_counts(*flat, spec.options, plan.shard(shard));
    const util::LockGuard lock(s.mutex);
    s.activity_counts->merge(local);
  };
  state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(
        r, sim::finalize_activity(s.request->circuit.circuit(), spec.options,
                                  *s.activity_counts));
  };
}

void prepare_sensitivity(const AnalysisRequest& request,
                         const analysis::SensitivityRequest& spec,
                         JobState& state) {
  sim::validate_sensitivity_inputs(request.circuit.circuit(), spec.options);
  const ShardPlan plan =
      sim::sensitivity_shard_plan(request.circuit.circuit(), spec.options);
  state.sensitivity_counts = std::make_unique<sim::SensitivityCounts>(
      request.circuit.circuit().num_inputs());
  state.num_tasks = plan.num_shards();
  auto flat =
      std::make_shared<const sim::FlatCircuit>(request.circuit.circuit());
  state.run_task = [plan, flat, &spec](JobState& s, std::size_t shard) {
    const sim::SensitivityCounts local =
        sim::sensitivity_shard_counts(*flat, spec.options, plan.shard(shard));
    const util::LockGuard lock(s.mutex);
    s.sensitivity_counts->merge(local);
  };
  state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(
        r, sim::finalize_sensitivity(s.request->circuit.circuit(), spec.options,
                                     *s.sensitivity_counts));
  };
}

void prepare_fault_campaign(const AnalysisRequest& request,
                            const analysis::FaultCampaignRequest& spec,
                            JobState& state) {
  const Circuit& circuit = request.circuit.circuit();
  const Circuit& golden = golden_of(request);
  fault::validate_campaign_inputs(circuit, golden, spec.options);
  state.fault_universe = std::make_shared<const fault::FaultUniverse>(
      fault::FaultUniverse::build(circuit, spec.options.collapse,
                                  spec.options.prune_untestable));
  state.campaign_counts = std::make_unique<fault::CampaignCounts>(
      state.fault_universe->num_classes());
  const ShardPlan plan = fault::campaign_shard_plan(golden, spec.options);
  state.num_tasks = plan.num_shards();
  state.run_task = [plan, &spec](JobState& s, std::size_t shard) {
    const fault::CampaignCounts local = fault::campaign_shard_counts(
        s.request->circuit.circuit(), golden_of(*s.request),
        *s.fault_universe, spec.options, plan.shard(shard));
    const util::LockGuard lock(s.mutex);
    s.campaign_counts->merge(local);
  };
  state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(
        r, fault::finalize_campaign(s.request->circuit.circuit(),
                                    golden_of(*s.request), *s.fault_universe,
                                    spec.options, *s.campaign_counts));
  };
}

void prepare_lint(const AnalysisRequest& request,
                  const analysis::LintRequest& spec, JobState& state) {
  (void)request.circuit.circuit();  // throws on an empty handle, like the rest
  state.num_tasks = 1;
  state.run_task = [&spec](JobState& s, std::size_t) {
    analysis::LintReport report =
        analysis::lint_circuit(s.request->circuit.circuit(), spec.options);
    const util::LockGuard lock(s.mutex);
    s.lint = std::move(report);
  };
  state.finalize = [](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(r, std::move(*s.lint));
  };
}

void prepare_cec(const AnalysisRequest& request,
                 const analysis::CecRequest& spec, JobState& state) {
  (void)request.circuit.circuit();  // throws on an empty handle
  if (!request.golden.has_value()) {
    throw std::invalid_argument(
        "cec requires a golden circuit to compare against");
  }
  state.num_tasks = 1;
  state.run_task = [&spec](JobState& s, std::size_t) {
    analysis::CecResult result = analysis::check_equivalence(
        s.request->circuit.circuit(), s.request->golden->circuit(),
        spec.options);
    const util::LockGuard lock(s.mutex);
    s.cec = std::move(result);
  };
  state.finalize = [](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(r, std::move(*s.cec));
  };
}

// The sweep's nested batch runs serially when this batch is serial and on
// the global pool otherwise — never on a dedicated pool, which would start
// a pool per concurrent harden job.
void prepare_harden(const AnalysisRequest& request,
                    const analysis::HardenRequest& spec, JobState& state,
                    Parallelism how) {
  (void)request.circuit.circuit();  // throws on an empty handle
  const Parallelism nested = how.threads == 1 ? Parallelism::serial()
                                              : Parallelism::global_pool();
  state.num_tasks = 1;
  state.run_task = [&spec, nested](JobState& s, std::size_t) {
    harden::ParetoResult result =
        harden::pareto_sweep(s.request->circuit, spec.options, nested);
    const util::LockGuard lock(s.mutex);
    s.harden = std::move(result);
  };
  state.finalize = [](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    finish_with_payload(r, std::move(*s.harden));
  };
}

// Finds or creates the extraction group for (request.circuit, options).
ExtractionGroup& join_extraction_group(
    std::size_t job_index, const AnalysisRequest& request,
    const core::ProfileOptions& options, std::deque<ExtractionGroup>& groups) {
  for (ExtractionGroup& group : groups) {
    if (group.circuit.same_handle(request.circuit) &&
        group.options == options) {
      group.dependents.push_back(job_index);
      return group;
    }
  }
  ExtractionGroup& group = groups.emplace_back(request.circuit, options);
  group.dependents.push_back(job_index);
  return group;
}

void prepare_energy_bound(std::size_t job_index, const AnalysisRequest& request,
                          const analysis::EnergyBoundRequest& spec,
                          JobState& state,
                          std::deque<ExtractionGroup>& groups) {
  const auto analyze_metrics = [](JobState& s, AnalysisResult& r) {
    finish_with_payload(r, *s.report);
    if (s.cached_profile.has_value()) r.profile = std::move(s.cached_profile);
  };

  if (spec.profile_override.has_value()) {
    state.num_tasks = 1;
    state.run_task = [&spec](JobState& s, std::size_t) {
      s.report = core::analyze(*spec.profile_override, spec.epsilon, spec.delta,
                               spec.energy);
    };
    state.finalize = analyze_metrics;
    return;
  }
  if (auto cached = request.circuit.cached_profile(spec.profile);
      cached.has_value()) {
    state.cached_profile = std::move(cached);
    state.num_tasks = 1;
    state.run_task = [&spec](JobState& s, std::size_t) {
      s.report = core::analyze(*s.cached_profile, spec.epsilon, spec.delta,
                               spec.energy);
    };
    state.finalize = analyze_metrics;
    return;
  }
  state.extraction = &join_extraction_group(job_index, request, spec.profile,
                                            groups);
  state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.extraction->mutex);
    const core::CircuitProfile& profile = *s.extraction->profile;
    finish_with_payload(
        r, core::analyze(profile, spec.epsilon, spec.delta, spec.energy));
    r.profile = profile;
  };
}

void prepare_profile(std::size_t job_index, const AnalysisRequest& request,
                     const analysis::ProfileRequest& spec, JobState& state,
                     std::deque<ExtractionGroup>& groups) {
  if (auto cached = request.circuit.cached_profile(spec.options);
      cached.has_value()) {
    state.cached_profile = std::move(cached);
    state.finalize = [](JobState& s, AnalysisResult& r) {
      finish_with_payload(r, std::move(*s.cached_profile));
    };
    return;
  }
  state.extraction =
      &join_extraction_group(job_index, request, spec.options, groups);
  state.finalize = [](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.extraction->mutex);
    finish_with_payload(r, *s.extraction->profile);
  };
}

void prepare(std::size_t job_index, const AnalysisRequest& request,
             JobState& state, std::deque<ExtractionGroup>& groups,
             Parallelism how) {
  std::visit(
      [&](const auto& spec) {
        using Spec = std::decay_t<decltype(spec)>;
        if constexpr (std::is_same_v<Spec, analysis::ReliabilityRequest>) {
          prepare_reliability(request, spec, state);
        } else if constexpr (std::is_same_v<Spec, analysis::WorstCaseRequest>) {
          prepare_worst_case(request, spec, state);
        } else if constexpr (std::is_same_v<Spec, analysis::ActivityRequest>) {
          prepare_activity(request, spec, state);
        } else if constexpr (std::is_same_v<Spec,
                                            analysis::SensitivityRequest>) {
          prepare_sensitivity(request, spec, state);
        } else if constexpr (std::is_same_v<Spec,
                                            analysis::EnergyBoundRequest>) {
          prepare_energy_bound(job_index, request, spec, state, groups);
        } else if constexpr (std::is_same_v<Spec, analysis::ProfileRequest>) {
          prepare_profile(job_index, request, spec, state, groups);
        } else if constexpr (std::is_same_v<Spec,
                                            analysis::FaultCampaignRequest>) {
          prepare_fault_campaign(request, spec, state);
        } else if constexpr (std::is_same_v<Spec, analysis::LintRequest>) {
          prepare_lint(request, spec, state);
        } else if constexpr (std::is_same_v<Spec, analysis::CecRequest>) {
          prepare_cec(request, spec, state);
        } else {
          static_assert(std::is_same_v<Spec, analysis::HardenRequest>);
          prepare_harden(request, spec, state, how);
        }
      },
      request.options);
}

}  // namespace

std::size_t BatchEvaluator::submit(analysis::AnalysisRequest request) {
  requests_.push_back(std::move(request));
  return requests_.size() - 1;
}

void BatchEvaluator::run(const ResultSink& sink) {
  const std::size_t num_jobs = requests_.size();
  std::vector<JobState> states(num_jobs);
  std::deque<ExtractionGroup> groups;  // stable addresses
  const obs::Span batch_span("batch-run", {},
                             "jobs=" + std::to_string(num_jobs));
  static obs::Counter& jobs_total =
      obs::Registry::global().counter("batch-jobs-total");
  static obs::Counter& jobs_failed =
      obs::Registry::global().counter("batch-job-failures-total");

  // Phase 1 (serial, cheap): validate every request, size its task space,
  // and group shared profile extractions. A request that fails validation is
  // isolated into an error result and contributes no tasks.
  for (std::size_t j = 0; j < num_jobs; ++j) {
    states[j].request = &requests_[j];
    states[j].start = std::chrono::steady_clock::now();
    try {
      prepare(j, requests_[j], states[j], groups, how_);
    } catch (const std::exception& e) {
      states[j].record_error(e.what());
      states[j].num_tasks = 0;
      states[j].extraction = nullptr;
    }
  }
  for (std::size_t j = 0; j < num_jobs; ++j) {
    states[j].pending.store(
        states[j].num_tasks + (states[j].extraction != nullptr ? 1 : 0),
        std::memory_order_relaxed);
  }

  // Emission: build the result (finalize or error), then hand it to the
  // sink under one lock — the sink sees results serially, in completion
  // order, from unspecified threads. A throwing sink must not cancel the
  // rest of the batch (per-request isolation extends to delivery): the
  // first sink exception is captured here and rethrown after every request
  // has been evaluated and offered to the sink.
  struct Delivery {
    util::Mutex mutex;
    std::exception_ptr error ENB_GUARDED_BY(mutex);
  } delivery;
  const auto emit = [&](std::size_t j) {
    JobState& state = states[j];
    AnalysisResult result;
    result.index = j;
    result.name = requests_[j].name;
    result.kind = requests_[j].kind();
    const bool group_failed =
        state.extraction != nullptr && state.extraction->failed.load();
    if (state.failed.load() || group_failed) {
      result.ok = false;
      result.error = state.failed.load() ? state.error_text()
                                         : state.extraction->error_text();
    } else {
      try {
        state.finalize(state, result);
        result.ok = true;
      } catch (const std::exception& e) {
        result.ok = false;
        result.error = e.what();
        result.metrics.clear();
        result.profile.reset();
        result.payload = std::monostate{};
      }
    }
    // Per-job wall-clock and trace event. Observational only: elapsed rides
    // a field the JSON/CSV writers never serialize, and the trace event is
    // recorded outside the result entirely.
    const auto end = std::chrono::steady_clock::now();
    result.elapsed_seconds =
        std::chrono::duration<double>(end - state.start).count();
    jobs_total.add(1);
    if (!result.ok) jobs_failed.add(1);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
      recorder.record("batch-job", obs::SpanHandle{recorder.new_id()},
                      batch_span.handle(), state.start, end, result.name);
    }
    const util::LockGuard lock(delivery.mutex);
    try {
      sink(std::move(result));
    } catch (...) {
      if (delivery.error == nullptr) delivery.error = std::current_exception();
    }
  };
  const auto complete_unit = [&](std::size_t j) {
    if (states[j].pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      emit(j);
    }
  };

  // Requests with no pending work (validation failures, cache-hit profiles)
  // emit before the parallel phase.
  for (std::size_t j = 0; j < num_jobs; ++j) {
    if (states[j].pending.load(std::memory_order_relaxed) == 0) emit(j);
  }

  // Phase 2 (parallel): every request's own tasks plus every extraction
  // group's shards flattened into one task space over the pool. A worker
  // that completes a request's (or group's) last unit finalizes and emits
  // right there — that is what makes the sink stream.
  std::vector<std::size_t> job_offsets(num_jobs + 1, 0);
  for (std::size_t j = 0; j < num_jobs; ++j) {
    job_offsets[j + 1] = job_offsets[j] + states[j].num_tasks;
  }
  const std::size_t job_total = job_offsets[num_jobs];
  std::vector<std::size_t> group_offsets(groups.size() + 1, 0);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    group_offsets[g + 1] =
        group_offsets[g] + groups[g].extraction.num_tasks();
  }
  const std::size_t total = job_total + group_offsets[groups.size()];

  for_each_index(
      total,
      [&](std::size_t flat) {
        if (flat < job_total) {
          const std::size_t j = static_cast<std::size_t>(
              std::upper_bound(job_offsets.begin(), job_offsets.end(), flat) -
              job_offsets.begin() - 1);
          JobState& state = states[j];
          if (!state.failed.load(std::memory_order_relaxed)) {
            try {
              state.run_task(state, flat - job_offsets[j]);
            } catch (const std::exception& e) {
              state.record_error(e.what());
            } catch (...) {
              state.record_error("unknown error");
            }
          }
          complete_unit(j);
          return;
        }
        const std::size_t offset = flat - job_total;
        const std::size_t g = static_cast<std::size_t>(
            std::upper_bound(group_offsets.begin(), group_offsets.end(),
                             offset) -
            group_offsets.begin() - 1);
        ExtractionGroup& group = groups[g];
        if (!group.failed.load(std::memory_order_relaxed)) {
          try {
            group.extraction.run_task(offset - group_offsets[g]);
          } catch (const std::exception& e) {
            group.record_error(e.what());
          } catch (...) {
            group.record_error("unknown error");
          }
        }
        if (group.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          if (!group.failed.load()) {
            try {
              group.assemble();
            } catch (const std::exception& e) {
              group.record_error(e.what());
            }
          }
          for (const std::size_t dependent : group.dependents) {
            complete_unit(dependent);
          }
        }
      },
      how_);

  requests_.clear();
  std::exception_ptr sink_error;
  {
    const util::LockGuard lock(delivery.mutex);
    sink_error = delivery.error;
  }
  if (sink_error != nullptr) std::rethrow_exception(sink_error);
}

std::vector<analysis::AnalysisResult> BatchEvaluator::run() {
  std::vector<analysis::AnalysisResult> results(requests_.size());
  run([&results](analysis::AnalysisResult result) {
    results[result.index] = std::move(result);
  });
  return results;
}

std::vector<analysis::AnalysisResult> evaluate_requests(
    std::vector<analysis::AnalysisRequest> requests, Parallelism how) {
  BatchEvaluator evaluator(how);
  for (analysis::AnalysisRequest& request : requests) {
    evaluator.submit(std::move(request));
  }
  return evaluator.run();
}

// ---- manifest / output plumbing ------------------------------------------

namespace {

double parse_manifest_double(const std::string& key, const std::string& value) {
  double parsed = 0.0;
  if (!util::parse_double(value, parsed)) {
    throw std::invalid_argument("manifest: non-numeric value '" + value +
                                "' for key '" + key + "'");
  }
  return parsed;
}

std::uint64_t parse_manifest_count(const std::string& key,
                                   const std::string& value) {
  std::uint64_t parsed = 0;
  if (!util::parse_uint64(value, parsed)) {
    throw std::invalid_argument("manifest: value for key '" + key +
                                "' must be a non-negative integer, got '" +
                                value + "'");
  }
  return parsed;
}

// Everything a manifest line can say, before the kind-specific request spec
// is materialized (budget/seed apply once the kind is known, so key order in
// the line is free).
struct ManifestLine {
  std::string name;
  JobKind kind = JobKind::kReliability;
  std::string circuit_spec;
  std::string golden_spec;
  double epsilon = 0.01;
  double delta = 0.01;
  double leakage = 0.5;
  bool has_leakage = false;
  std::optional<std::uint64_t> budget;
  std::optional<std::uint64_t> seed;
  std::string mode;  // fault-campaign pattern source: "random" | "exhaustive"
  // Fault-campaign scale knobs (campaign.hpp): drop=0|1, lanes=64|128|256|512,
  // sample=N classes (0 = full universe), prune=0|1 untestable pruning.
  std::optional<std::uint64_t> drop;
  std::optional<std::uint64_t> lanes;
  std::optional<std::uint64_t> sample;
  std::optional<std::uint64_t> prune;
  // Harden-only keys (types.hpp): style=tmr|dwc|selective,
  // granularity=gate|cone|output, top_k=N (all optional — absent means
  // sweep the full axis).
  std::optional<harden::Style> style;
  std::optional<harden::Granularity> granularity;
  std::optional<std::uint64_t> top_k;
};

std::vector<ManifestLine> parse_manifest_lines(std::istream& in) {
  std::vector<ManifestLine> lines;
  std::string text;
  std::size_t line_number = 0;
  while (std::getline(in, text)) {
    ++line_number;
    std::istringstream tokens(text);
    std::string name;
    if (!(tokens >> name) || name.front() == '#') continue;

    const auto fail = [&](const std::string& message) -> std::invalid_argument {
      return std::invalid_argument("manifest line " +
                                   std::to_string(line_number) + ": " +
                                   message);
    };

    ManifestLine line;
    line.name = name;
    std::optional<JobKind> kind;
    std::string token;
    while (tokens >> token) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
        throw fail("expected key=value, got '" + token + "'");
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "kind") {
        kind = parse_job_kind(value);
        if (!kind.has_value()) throw fail("unknown kind '" + value + "'");
      } else if (key == "circuit") {
        line.circuit_spec = value;
      } else if (key == "golden") {
        line.golden_spec = value;
      } else if (key == "eps") {
        line.epsilon = parse_manifest_double(key, value);
      } else if (key == "delta") {
        line.delta = parse_manifest_double(key, value);
      } else if (key == "budget") {
        line.budget = parse_manifest_count(key, value);
      } else if (key == "seed") {
        line.seed = parse_manifest_count(key, value);
      } else if (key == "leakage") {
        line.leakage = parse_manifest_double(key, value);
        line.has_leakage = true;
      } else if (key == "mode") {
        line.mode = value;
      } else if (key == "drop") {
        line.drop = parse_manifest_count(key, value);
        if (*line.drop > 1) throw fail("drop must be 0 or 1");
      } else if (key == "lanes") {
        line.lanes = parse_manifest_count(key, value);
        if (!fault::parse_lane_width(*line.lanes).has_value()) {
          throw fail("lanes must be 64, 128, 256, or 512");
        }
      } else if (key == "sample") {
        line.sample = parse_manifest_count(key, value);
      } else if (key == "prune") {
        line.prune = parse_manifest_count(key, value);
        if (*line.prune > 1) throw fail("prune must be 0 or 1");
      } else if (key == "style") {
        line.style = harden::parse_style(value);
        if (!line.style.has_value()) {
          throw fail("style must be tmr, dwc, or selective");
        }
      } else if (key == "granularity") {
        line.granularity = harden::parse_granularity(value);
        if (!line.granularity.has_value()) {
          throw fail("granularity must be gate, cone, or output");
        }
      } else if (key == "top_k") {
        line.top_k = parse_manifest_count(key, value);
      } else {
        throw fail("unknown key '" + key + "'");
      }
    }
    if (!kind.has_value()) throw fail("missing kind=");
    if (line.circuit_spec.empty()) throw fail("missing circuit=");
    line.kind = *kind;
    lines.push_back(std::move(line));
  }
  return lines;
}

analysis::RequestOptions manifest_options(const ManifestLine& line) {
  if ((!line.mode.empty() || line.drop.has_value() || line.lanes.has_value() ||
       line.sample.has_value() || line.prune.has_value()) &&
      line.kind != JobKind::kFaultCampaign && line.kind != JobKind::kHarden) {
    throw std::invalid_argument(
        "manifest: keys 'mode', 'drop', 'lanes', 'sample', and 'prune' only "
        "apply to kind=fault-campaign and kind=harden");
  }
  if ((line.style.has_value() || line.granularity.has_value() ||
       line.top_k.has_value()) &&
      line.kind != JobKind::kHarden) {
    throw std::invalid_argument(
        "manifest: keys 'style', 'granularity', and 'top_k' only apply to "
        "kind=harden");
  }
  switch (line.kind) {
    case JobKind::kReliability: {
      analysis::ReliabilityRequest spec;
      spec.epsilon = line.epsilon;
      if (line.budget.has_value()) spec.options.trials = *line.budget;
      if (line.seed.has_value()) spec.options.seed = *line.seed;
      return spec;
    }
    case JobKind::kWorstCase: {
      analysis::WorstCaseRequest spec;
      spec.epsilon = line.epsilon;
      if (line.budget.has_value()) spec.options.trials_per_input = *line.budget;
      if (line.seed.has_value()) spec.options.seed = *line.seed;
      return spec;
    }
    case JobKind::kActivity: {
      analysis::ActivityRequest spec;
      if (line.budget.has_value()) {
        spec.options.sample_pairs = static_cast<std::size_t>(*line.budget);
      }
      if (line.seed.has_value()) spec.options.seed = *line.seed;
      return spec;
    }
    case JobKind::kSensitivity: {
      analysis::SensitivityRequest spec;
      if (line.budget.has_value()) spec.options.sample_words = *line.budget;
      if (line.seed.has_value()) spec.options.seed = *line.seed;
      return spec;
    }
    case JobKind::kEnergyBound: {
      analysis::EnergyBoundRequest spec;
      spec.epsilon = line.epsilon;
      spec.delta = line.delta;
      if (line.has_leakage) spec.energy.leakage_fraction = line.leakage;
      if (line.budget.has_value()) {
        spec.profile.activity_pairs = static_cast<std::size_t>(*line.budget);
      }
      if (line.seed.has_value()) spec.profile.seed = *line.seed;
      return spec;
    }
    case JobKind::kProfile: {
      analysis::ProfileRequest spec;
      if (line.budget.has_value()) {
        spec.options.activity_pairs = static_cast<std::size_t>(*line.budget);
      }
      if (line.seed.has_value()) spec.options.seed = *line.seed;
      return spec;
    }
    case JobKind::kFaultCampaign: {
      analysis::FaultCampaignRequest spec;
      if (line.budget.has_value()) spec.options.patterns = *line.budget;
      if (line.seed.has_value()) spec.options.seed = *line.seed;
      if (!line.mode.empty()) {
        if (line.mode == "exhaustive") {
          spec.options.exhaustive = true;
        } else if (line.mode != "random") {
          throw std::invalid_argument(
              "manifest: mode must be 'random' or 'exhaustive', got '" +
              line.mode + "'");
        }
      }
      if (line.drop.has_value()) spec.options.drop = (*line.drop != 0);
      if (line.lanes.has_value()) {
        spec.options.lanes = *fault::parse_lane_width(*line.lanes);
      }
      if (line.sample.has_value()) spec.options.sample = *line.sample;
      if (line.prune.has_value()) {
        spec.options.prune_untestable = (*line.prune != 0);
      }
      return spec;
    }
    case JobKind::kLint:
      // Structural linting takes no tuning keys; eps/budget/seed are ignored
      // the same way eps is for activity or sensitivity.
      return analysis::LintRequest{};
    case JobKind::kCec: {
      // The comparison reference rides golden=, like every vs-reference kind.
      analysis::CecRequest spec;
      if (line.seed.has_value()) spec.options.seed = *line.seed;
      if (line.budget.has_value()) {
        spec.options.signature_words = static_cast<int>(*line.budget);
      }
      return spec;
    }
    case JobKind::kHarden: {
      // The campaign keys tune the grading campaign every candidate shares;
      // style/granularity/top_k pin sweep axes (absent = full axis).
      analysis::HardenRequest spec;
      spec.options.epsilon = line.epsilon;
      spec.options.delta = line.delta;
      if (line.has_leakage) spec.options.leakage_fraction = line.leakage;
      if (line.budget.has_value()) spec.options.campaign.patterns = *line.budget;
      if (line.seed.has_value()) spec.options.campaign.seed = *line.seed;
      if (!line.mode.empty()) {
        if (line.mode == "exhaustive") {
          spec.options.campaign.exhaustive = true;
        } else if (line.mode != "random") {
          throw std::invalid_argument(
              "manifest: mode must be 'random' or 'exhaustive', got '" +
              line.mode + "'");
        }
      }
      if (line.drop.has_value()) spec.options.campaign.drop = (*line.drop != 0);
      if (line.lanes.has_value()) {
        spec.options.campaign.lanes = *fault::parse_lane_width(*line.lanes);
      }
      if (line.sample.has_value()) spec.options.campaign.sample = *line.sample;
      if (line.prune.has_value()) {
        spec.options.campaign.prune_untestable = (*line.prune != 0);
      }
      if (line.style.has_value()) spec.options.style = *line.style;
      if (line.granularity.has_value()) {
        spec.options.granularity = *line.granularity;
      }
      if (line.top_k.has_value()) {
        spec.options.top_k = static_cast<std::uint32_t>(*line.top_k);
      }
      return spec;
    }
  }
  throw std::invalid_argument("manifest: unknown job kind");
}

void json_escape(std::ostream& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
}

}  // namespace

std::vector<analysis::AnalysisRequest> parse_manifest_requests(
    std::istream& in,
    const std::function<CompiledCircuit(const std::string&)>& resolve) {
  std::vector<analysis::AnalysisRequest> requests;
  for (const ManifestLine& line : parse_manifest_lines(in)) {
    analysis::AnalysisRequest request;
    request.name = line.name;
    request.options = manifest_options(line);
    request.circuit = resolve(line.circuit_spec);
    if (!line.golden_spec.empty()) request.golden = resolve(line.golden_spec);
    requests.push_back(std::move(request));
  }
  return requests;
}

void write_batch_csv(std::ostream& out,
                     const std::vector<analysis::AnalysisResult>& results) {
  report::write_csv_row(out, {"job", "kind", "ok", "metric", "value"});
  std::ostringstream value;
  value << std::setprecision(17);
  for (const analysis::AnalysisResult& r : results) {
    if (!r.ok) {
      report::write_csv_row(out, {r.name, to_string(r.kind), "0", "error", ""});
      continue;
    }
    for (const auto& [metric, metric_value] : r.metrics) {
      value.str("");
      value << metric_value;
      report::write_csv_row(
          out, {r.name, to_string(r.kind), "1", metric, value.str()});
    }
  }
}

void write_result_json(std::ostream& out, const analysis::AnalysisResult& r) {
  out << std::setprecision(17) << "{\"name\": \"";
  json_escape(out, r.name);
  out << "\", \"kind\": \"" << to_string(r.kind) << "\", \"ok\": "
      << (r.ok ? "true" : "false") << ", \"error\": \"";
  json_escape(out, r.error);
  out << "\", \"metrics\": {";
  for (std::size_t m = 0; m < r.metrics.size(); ++m) {
    out << (m == 0 ? "" : ", ") << "\"" << r.metrics[m].first << "\": ";
    // NaN/inf are not valid JSON literals; emit null rather than a file
    // every parser rejects.
    if (std::isfinite(r.metrics[m].second)) {
      out << r.metrics[m].second;
    } else {
      out << "null";
    }
  }
  out << "}}";
}

void write_batch_json(std::ostream& out,
                      const std::vector<analysis::AnalysisResult>& results) {
  out << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "  ";
    write_result_json(out, results[i]);
    out << (i + 1 == results.size() ? "" : ",") << "\n";
  }
  out << "]\n";
}

}  // namespace enb::exec
