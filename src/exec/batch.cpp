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
#include "harden/pareto.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/csv.hpp"
#include "util/json.hpp"
#include "util/sync.hpp"

namespace enb::exec {

namespace {

using analysis::AnalysisRequest;
using analysis::AnalysisResult;
using analysis::CompiledCircuit;
using netlist::Circuit;

const Circuit& golden_of(const AnalysisRequest& request) {
  return request.golden.has_value() ? request.golden->circuit()
                                    : request.circuit.circuit();
}

// Error isolation for a unit of work (a request or an extraction group): the
// first failing task records its message and the unit's remaining tasks
// turn into no-ops; other units are unaffected.
struct FailureSlot {
  std::atomic<bool> failed{false};
  util::Mutex mutex;  // guards error and the unit's shared results
  std::string error ENB_GUARDED_BY(mutex);

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

// One profile extraction shared by every request in the batch that names the
// same (handle, profile options): the core::ProfileExtraction's tasks enter
// the flat task space exactly once and the finished profile lands in the
// handle's cache. The group only adds the batch's bookkeeping.
struct ExtractionGroup : FailureSlot {
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
  // Stamped at group creation; assemble() observes the extraction histogram
  // and trace span from it, so the span covers the sharded extraction
  // wall-clock (queueing included) like the serial path's span does.
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
  // Set once by assemble(); dependents read it under the lock in finalize.
  std::optional<core::CircuitProfile> profile ENB_GUARDED_BY(mutex);
  std::vector<std::size_t> dependents;  // request indices

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

// All per-request mutable state for one batch run. A request's shard
// accumulators live in its task closures and merge commutatively (sums,
// slot-per-shard writes) under the state's lock, so shard completion order
// never reaches the result.
struct JobState : FailureSlot {
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
  // Profile consumers: the profile found in the handle's cache at prepare
  // time (else `extraction` supplies it).
  std::optional<core::CircuitProfile> cached_profile;
  // Requests evaluated whole by one task (run_once): its payload.
  std::optional<analysis::ResultPayload> payload ENB_GUARDED_BY(mutex);
};

// ---- per-kind preparation -------------------------------------------------
//
// One prepare overload per request struct validates the spec (throwing like
// the standalone estimator would), sizes the task space, and installs the
// task body and the finalize reduction. Task bodies only call the
// estimators' shard-level building blocks, which is what makes batched
// results bit-identical to direct calls.

struct Preparation {
  const AnalysisRequest& request;
  JobState& state;
  Parallelism how;  // the batch's
};

// A sharded request: shard i's counts (`shard(request, i)`) merge into one
// total that `finish(request, total)` turns into the payload.
template <typename Counts>
void merge_into(Counts& total, const Counts& shard) {
  total.merge(shard);
}
void merge_into(std::uint64_t& total, std::uint64_t shard) { total += shard; }

template <typename Counts, typename Shard, typename Finish>
void run_sharded(JobState& state, std::size_t shards, Counts total,
                 Shard shard, Finish finish) {
  auto counts = std::make_shared<Counts>(std::move(total));
  state.num_tasks = shards;
  state.run_task = [counts, shard = std::move(shard)](JobState& s,
                                                     std::size_t i) {
    const Counts local = shard(*s.request, i);
    const util::LockGuard lock(s.mutex);
    merge_into(*counts, local);
  };
  state.finalize = [counts, finish = std::move(finish)](JobState& s,
                                                       AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    analysis::set_payload(r, finish(*s.request, *counts));
  };
}

void prepare(const analysis::ReliabilityRequest& spec, const Preparation& p) {
  sim::validate_reliability_inputs(p.request.circuit.circuit(),
                                   golden_of(p.request), spec.options);
  const ShardPlan plan = sim::reliability_shard_plan(spec.options);
  run_sharded(
      p.state, plan.num_shards(), std::uint64_t{0},
      [plan, &spec](const AnalysisRequest& request, std::size_t shard) {
        return sim::reliability_shard_failures(
            request.circuit.circuit(), golden_of(request), spec.epsilon,
            spec.options, plan.shard(shard));
      },
      [plan, &spec](const AnalysisRequest&, std::uint64_t failures) {
        sim::ReliabilityResult rel =
            sim::wilson_interval(failures, plan.total() * sim::kWordBits);
        rel.requested_trials = spec.options.trials;
        return rel;
      });
}

void prepare(const analysis::WorstCaseRequest& spec, const Preparation& p) {
  sim::validate_worst_case_inputs(p.request.circuit.circuit(),
                                  golden_of(p.request), spec.options);
  // One slot per sampled input: disjoint writes, no lock needed.
  auto failures = std::make_shared<std::vector<std::uint64_t>>(
      static_cast<std::size_t>(spec.options.num_inputs), 0);
  p.state.num_tasks = failures->size();
  p.state.run_task = [failures, &spec](JobState& s, std::size_t sample) {
    (*failures)[sample] = sim::worst_case_sample_failures(
        s.request->circuit.circuit(), golden_of(*s.request), spec.epsilon,
        spec.options, sample);
  };
  p.state.finalize = [failures, &spec](JobState& s, AnalysisResult& r) {
    analysis::set_payload(
        r, sim::finalize_worst_case(s.request->circuit.circuit(), spec.options,
                                    *failures));
  };
}

void prepare(const analysis::ActivityRequest& spec, const Preparation& p) {
  sim::validate_activity_inputs(spec.options);
  const ShardPlan plan = sim::activity_shard_plan(spec.options);
  const Circuit& circuit = p.request.circuit.circuit();
  auto flat = std::make_shared<const sim::FlatCircuit>(circuit);
  run_sharded(
      p.state, plan.num_shards(), sim::ActivityCounts(circuit.node_count()),
      [plan, flat, &spec](const AnalysisRequest&, std::size_t shard) {
        return sim::activity_shard_counts(*flat, spec.options,
                                          plan.shard(shard));
      },
      [&spec](const AnalysisRequest& request,
              const sim::ActivityCounts& counts) {
        return sim::finalize_activity(request.circuit.circuit(), spec.options,
                                      counts);
      });
}

void prepare(const analysis::SensitivityRequest& spec, const Preparation& p) {
  const Circuit& circuit = p.request.circuit.circuit();
  sim::validate_sensitivity_inputs(circuit, spec.options);
  const ShardPlan plan = sim::sensitivity_shard_plan(circuit, spec.options);
  auto flat = std::make_shared<const sim::FlatCircuit>(circuit);
  run_sharded(
      p.state, plan.num_shards(),
      sim::SensitivityCounts(circuit.num_inputs()),
      [plan, flat, &spec](const AnalysisRequest&, std::size_t shard) {
        return sim::sensitivity_shard_counts(*flat, spec.options,
                                             plan.shard(shard));
      },
      [&spec](const AnalysisRequest& request,
              const sim::SensitivityCounts& counts) {
        return sim::finalize_sensitivity(request.circuit.circuit(),
                                         spec.options, counts);
      });
}

// The profile a profile consumer analyzes: the handle's cached copy, or the
// one its extraction group assembled.
core::CircuitProfile profile_of(JobState& s) {
  if (s.cached_profile.has_value()) return *s.cached_profile;
  const util::LockGuard lock(s.extraction->mutex);
  return *s.extraction->profile;
}

// Profile consumers add no tasks of their own: prepare() has already found
// their profile in the handle's cache or joined them to an extraction group.
void prepare(const analysis::EnergyBoundRequest& spec, const Preparation& p) {
  p.state.finalize = [&spec](JobState& s, AnalysisResult& r) {
    if (spec.profile_override.has_value()) {
      analysis::set_payload(r, core::analyze(*spec.profile_override,
                                             spec.epsilon, spec.delta,
                                             spec.energy));
      return;
    }
    core::CircuitProfile profile = profile_of(s);
    analysis::set_payload(
        r, core::analyze(profile, spec.epsilon, spec.delta, spec.energy));
    r.profile = std::move(profile);
  };
}

void prepare(const analysis::ProfileRequest&, const Preparation& p) {
  p.state.finalize = [](JobState& s, AnalysisResult& r) {
    analysis::set_payload(r, profile_of(s));
  };
}

// The fault universe is built once at prepare time and shared (read-only)
// by every pattern shard.
void prepare(const analysis::FaultCampaignRequest& spec,
             const Preparation& p) {
  const Circuit& circuit = p.request.circuit.circuit();
  const Circuit& golden = golden_of(p.request);
  fault::validate_campaign_inputs(circuit, golden, spec.options);
  auto universe = std::make_shared<const fault::FaultUniverse>(
      fault::FaultUniverse::build(circuit, spec.options.collapse,
                                  spec.options.prune_untestable));
  const ShardPlan plan = fault::campaign_shard_plan(golden, spec.options);
  run_sharded(
      p.state, plan.num_shards(),
      fault::CampaignCounts(universe->num_classes()),
      [plan, universe, &spec](const AnalysisRequest& request,
                              std::size_t shard) {
        return fault::campaign_shard_counts(
            request.circuit.circuit(), golden_of(request), *universe,
            spec.options, plan.shard(shard));
      },
      [universe, &spec](const AnalysisRequest& request,
                        const fault::CampaignCounts& counts) {
        return fault::finalize_campaign(request.circuit.circuit(),
                                        golden_of(request), *universe,
                                        spec.options, counts);
      });
}

// A request evaluated whole by one task: `compute` maps the request to its
// payload, which finalize installs.
template <typename Compute>
void run_once(JobState& state, Compute compute) {
  (void)state.request->circuit.circuit();  // throws on an empty handle
  state.num_tasks = 1;
  state.run_task = [compute = std::move(compute)](JobState& s, std::size_t) {
    analysis::ResultPayload payload = compute(*s.request);
    const util::LockGuard lock(s.mutex);
    s.payload = std::move(payload);
  };
  state.finalize = [](JobState& s, AnalysisResult& r) {
    const util::LockGuard lock(s.mutex);
    analysis::set_payload(r, std::move(*s.payload));
  };
}

void prepare(const analysis::LintRequest& spec, const Preparation& p) {
  run_once(p.state, [&spec](const AnalysisRequest& request) {
    return analysis::lint_circuit(request.circuit.circuit(), spec.options);
  });
}

void prepare(const analysis::CecRequest& spec, const Preparation& p) {
  run_once(p.state, [&spec](const AnalysisRequest& request) {
    return analysis::check_equivalence(request.circuit.circuit(),
                                       request.golden->circuit(), spec.options);
  });
  if (!p.request.golden.has_value()) {
    throw std::invalid_argument(
        "cec requires a golden circuit to compare against");
  }
}

// The sweep drives its own nested batch, inline on this worker (pool
// reentrancy contract): serially when this batch is serial and on the global
// pool otherwise — never on a dedicated pool, which would start a pool per
// concurrent harden job.
void prepare(const analysis::HardenRequest& spec, const Preparation& p) {
  const Parallelism nested = p.how.threads == 1 ? Parallelism::serial()
                                                : Parallelism::global_pool();
  run_once(p.state, [&spec, nested](const AnalysisRequest& request) {
    return harden::pareto_sweep(request.circuit, spec.options, nested);
  });
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

void prepare(std::size_t job_index, const AnalysisRequest& request,
             JobState& state, std::deque<ExtractionGroup>& groups,
             Parallelism how) {
  if (const core::ProfileOptions* profile =
          analysis::profile_options(request.options)) {
    state.cached_profile = request.circuit.cached_profile(*profile);
    if (!state.cached_profile.has_value()) {
      state.extraction =
          &join_extraction_group(job_index, request, *profile, groups);
    }
  }
  const Preparation preparation{request, state, how};
  std::visit([&](const auto& spec) { prepare(spec, preparation); },
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

std::vector<analysis::AnalysisRequest> parse_manifest_requests(
    std::istream& in,
    const std::function<CompiledCircuit(const std::string&)>& resolve) {
  // Every line is parsed before any is applied, so a malformed line is
  // reported ahead of a key misplaced on an earlier one.
  std::vector<analysis::ManifestLine> lines;
  std::string text;
  for (std::size_t number = 1; std::getline(in, text); ++number) {
    if (auto line = analysis::parse_manifest_line(text, number)) {
      lines.push_back(std::move(*line));
    }
  }
  std::vector<analysis::AnalysisRequest> requests;
  for (const analysis::ManifestLine& line : lines) {
    analysis::AnalysisRequest request;
    request.name = line.name;
    request.options = analysis::request_options(line);
    request.circuit = resolve(line.circuit);
    if (!line.settings.golden.empty()) {
      request.golden = resolve(line.settings.golden);
    }
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
  util::json_escape(out, r.name);
  out << "\", \"kind\": \"" << to_string(r.kind) << "\", \"ok\": "
      << (r.ok ? "true" : "false") << ", \"error\": \"";
  util::json_escape(out, r.error);
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
