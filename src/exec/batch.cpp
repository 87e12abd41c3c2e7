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
using analysis::ResultPayload;
using netlist::Circuit;

const Circuit& golden_of(const AnalysisRequest& request) {
  return request.golden.has_value() ? request.golden->circuit()
                                    : request.circuit.circuit();
}

// A unit's work: a task set (exec::run_tasks's shape), type-erased, whose
// finish() yields the unit's result payload.
struct TaskSet {
  std::size_t num_tasks = 0;
  std::function<void(std::size_t)> run_task;
  std::function<ResultPayload()> finish;
};

template <typename Tasks, typename... Args>
TaskSet erase(Args&&... args) {
  const auto tasks = std::make_shared<Tasks>(std::forward<Args>(args)...);
  return {tasks->num_tasks(),
          [tasks](std::size_t task) { tasks->run_task(task); },
          [tasks]() -> ResultPayload { return tasks->finish(); }};
}

// A request evaluated whole by its one task.
template <typename Compute>
TaskSet one_task(Compute compute) {
  const auto payload = std::make_shared<ResultPayload>();
  return {1, [payload, compute](std::size_t) { *payload = compute(); },
          [payload] { return std::move(*payload); }};
}

// One profile extraction shared by every request in the batch whose profile
// is not cached and that has the same (profile options, input count): its
// members are the distinct handles those requests name, and its tasks enter
// the flat task space once. finish() lands each member's profile in its
// handle's cache.
class SharedExtraction {
 public:
  // The members are validated (core::check_profilable) at prepare time.
  SharedExtraction(std::vector<CompiledCircuit> members,
                   const core::ProfileOptions& options)
      : members_(std::move(members)),
        options_(options),
        extraction_(circuits_of(members_), options_) {}

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return extraction_.num_tasks();
  }
  void run_task(std::size_t task) { extraction_.run_task(task); }

  [[nodiscard]] std::vector<core::CircuitProfile> finish() {
    std::vector<core::CircuitProfile> profiles = extraction_.finish();
    for (std::size_t m = 0; m < members_.size(); ++m) {
      members_[m].store_profile(options_, profiles[m]);
    }
    const auto end = std::chrono::steady_clock::now();
    static obs::Histogram& seconds =
        obs::Registry::global().histogram("analysis-extraction-seconds");
    seconds.observe(std::chrono::duration<double>(end - started_).count());
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
      recorder.record("profile-extraction",
                      obs::SpanHandle{recorder.new_id()}, obs::SpanHandle{},
                      started_, end,
                      "members=" + std::to_string(members_.size()) +
                          " union_nodes=" +
                          std::to_string(extraction_.union_nodes()));
    }
    return profiles;
  }

 private:
  static std::vector<const Circuit*> circuits_of(
      const std::vector<CompiledCircuit>& members) {
    std::vector<const Circuit*> circuits;
    circuits.reserve(members.size());
    for (const CompiledCircuit& member : members) {
      circuits.push_back(&member.circuit());
    }
    return circuits;
  }

  std::vector<CompiledCircuit> members_;
  core::ProfileOptions options_;
  core::ProfileExtraction extraction_;
  // Stamped at creation, so the extraction histogram and trace span cover
  // the sharded extraction's wall clock, queueing included.
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

// One unit of a batch run: a request, or a shared extraction that its
// profile consumers wait on. A unit whose task fails records the first
// message and its remaining tasks turn into no-ops; other units are
// unaffected.
struct Unit {
  TaskSet tasks;  // released once the unit has finished
  // The request the unit answers and its submission index; none for an
  // extraction, which hands its profile to its dependents instead.
  const AnalysisRequest* request = nullptr;
  std::size_t index = 0;
  Unit* extraction = nullptr;     // the extraction a profile consumer awaits
  std::size_t member = 0;         // the consumer's handle among its members
  std::vector<Unit*> dependents;  // an extraction's profile consumers
  // An extraction's profiles, one per member, once it has finished.
  std::vector<core::CircuitProfile> profiles;
  // A profile consumer's profile: the handle's cached copy found at prepare
  // time, or the one its extraction produced.
  std::optional<core::CircuitProfile> profile;
  // Own tasks, the awaited extraction, and one count the run releases once
  // every unit is planned; the thread that takes this to zero finishes the
  // unit.
  std::atomic<std::size_t> pending{0};
  // Prepare-time stamp; emission computes the job's wall-clock elapsed from
  // it (observability only — never part of the result's serialized bytes).
  std::chrono::steady_clock::time_point start{};

  std::atomic<bool> failed{false};
  util::Mutex mutex;  // guards error
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

// ---- per-kind task sets ---------------------------------------------------
//
// One overload per request struct validates the spec (throwing like the
// standalone estimator would) and returns the unit's task set — the same
// task set the estimator runs, which is what makes batched results
// bit-identical to direct calls.

struct Preparation {
  const AnalysisRequest& request;
  Unit& unit;
  Parallelism how;  // the batch's
};

TaskSet make_tasks(const analysis::ReliabilityRequest& spec,
                   const Preparation& p) {
  return erase<sim::ReliabilityTasks>(p.request.circuit.circuit(),
                                      golden_of(p.request), spec.epsilon,
                                      spec.options);
}

TaskSet make_tasks(const analysis::WorstCaseRequest& spec,
                   const Preparation& p) {
  return erase<sim::WorstCaseTasks>(p.request.circuit.circuit(),
                                    golden_of(p.request), spec.epsilon,
                                    spec.options);
}

TaskSet make_tasks(const analysis::ActivityRequest& spec,
                   const Preparation& p) {
  return erase<sim::ActivityTasks>(p.request.circuit.circuit(), spec.options);
}

TaskSet make_tasks(const analysis::SensitivityRequest& spec,
                   const Preparation& p) {
  return erase<sim::SensitivityTasks>(p.request.circuit.circuit(),
                                      spec.options);
}

TaskSet make_tasks(const analysis::FaultCampaignRequest& spec,
                   const Preparation& p) {
  return erase<fault::CampaignTasks>(p.request.circuit.circuit(),
                                     golden_of(p.request), spec.options);
}

// Profile consumers add no tasks of their own: prepare() has already found
// their profile in the handle's cache or made them wait on an extraction.
TaskSet make_tasks(const analysis::EnergyBoundRequest& spec,
                   const Preparation& p) {
  return {0, {}, [&spec, &unit = p.unit]() -> ResultPayload {
            return core::analyze(spec.profile_override.has_value()
                                     ? *spec.profile_override
                                     : *unit.profile,
                                 spec.epsilon, spec.delta, spec.energy);
          }};
}

TaskSet make_tasks(const analysis::ProfileRequest&, const Preparation& p) {
  return {0, {}, [&unit = p.unit]() -> ResultPayload { return *unit.profile; }};
}

TaskSet make_tasks(const analysis::LintRequest& spec, const Preparation& p) {
  return one_task([&spec, &circuit = p.request.circuit.circuit()] {
    return analysis::lint_circuit(circuit, spec.options);
  });
}

TaskSet make_tasks(const analysis::CecRequest& spec, const Preparation& p) {
  const Circuit& circuit = p.request.circuit.circuit();
  if (!p.request.golden.has_value()) {
    throw std::invalid_argument(
        "cec requires a golden circuit to compare against");
  }
  const Circuit& golden = p.request.golden->circuit();
  return one_task([&spec, &circuit, &golden] {
    return analysis::check_equivalence(circuit, golden, spec.options);
  });
}

// The sweep drives its own nested batch, inline on this worker (pool
// reentrancy contract): serially when this batch is serial and on the global
// pool otherwise — never on a dedicated pool, which would start a pool per
// concurrent harden job.
TaskSet make_tasks(const analysis::HardenRequest& spec, const Preparation& p) {
  (void)p.request.circuit.circuit();  // throws on an empty handle
  const Parallelism nested = p.how.threads == 1 ? Parallelism::serial()
                                                : Parallelism::global_pool();
  return one_task([&spec, &request = p.request, nested] {
    return harden::pareto_sweep(request.circuit, spec.options, nested);
  });
}

// The shared extractions of a batch run, keyed by (profile options, input
// count); the task set is built once every request is prepared.
struct ExtractionGroup {
  core::ProfileOptions options;
  std::size_t inputs = 0;
  std::vector<CompiledCircuit> members;
  Unit* unit = nullptr;
};

// Builds `unit`'s task set; a profile consumer whose profile is not cached
// first joins (or creates) the extraction of its (options, input count), as
// a new member unless its handle already is one.
void prepare(Unit& unit, std::deque<Unit>& units,
             std::vector<ExtractionGroup>& groups, Parallelism how) {
  const AnalysisRequest& request = *unit.request;
  if (const core::ProfileOptions* options =
          analysis::profile_options(request.options)) {
    unit.profile = request.circuit.cached_profile(*options);
    if (!unit.profile.has_value()) {
      // Validated before joining, so a failing member fails alone.
      const Circuit& circuit = request.circuit.circuit();
      core::check_profilable(circuit, *options);
      auto group = std::find_if(
          groups.begin(), groups.end(), [&](const ExtractionGroup& g) {
            return g.options == *options && g.inputs == circuit.num_inputs();
          });
      if (group == groups.end()) {
        Unit& extraction = units.emplace_back();
        group = groups.insert(groups.end(), {*options, circuit.num_inputs(),
                                             {}, &extraction});
      }
      const auto member = std::find_if(
          group->members.begin(), group->members.end(),
          [&](const CompiledCircuit& m) {
            return m.same_handle(request.circuit);
          });
      unit.member = static_cast<std::size_t>(member - group->members.begin());
      if (member == group->members.end()) {
        group->members.push_back(request.circuit);
      }
      unit.extraction = group->unit;
      group->unit->dependents.push_back(&unit);
    }
  }
  const Preparation preparation{request, unit, how};
  unit.tasks = std::visit(
      [&](const auto& spec) { return make_tasks(spec, preparation); },
      request.options);
}

// The task set of a group's extraction unit: finish() hands the members'
// profiles to the unit, for its dependents.
TaskSet extraction_tasks(ExtractionGroup& group) {
  const auto tasks = std::make_shared<SharedExtraction>(
      std::move(group.members), group.options);
  return {tasks->num_tasks(),
          [tasks](std::size_t task) { tasks->run_task(task); },
          [tasks, &unit = *group.unit]() -> ResultPayload {
            unit.profiles = tasks->finish();
            return {};
          }};
}

}  // namespace

std::size_t BatchEvaluator::submit(analysis::AnalysisRequest request) {
  requests_.push_back(std::move(request));
  return requests_.size() - 1;
}

void BatchEvaluator::run(const ResultSink& sink) {
  const std::size_t num_jobs = requests_.size();
  // Requests first, then the shared extractions; a deque keeps addresses
  // stable as extractions are appended.
  std::deque<Unit> units(num_jobs);
  std::vector<ExtractionGroup> groups;
  const obs::Span batch_span("batch-run", {},
                             "jobs=" + std::to_string(num_jobs));
  static obs::Counter& jobs_total =
      obs::Registry::global().counter("batch-jobs-total");
  static obs::Counter& jobs_failed =
      obs::Registry::global().counter("batch-job-failures-total");

  // Phase 1 (serial, cheap): validate every request and build its task set,
  // grouping shared profile extractions. A request that fails validation is
  // isolated into an error result and contributes no tasks. Then each
  // extraction builds its union over the members its consumers named.
  for (std::size_t j = 0; j < num_jobs; ++j) {
    Unit& unit = units[j];
    unit.request = &requests_[j];
    unit.index = j;
    unit.start = std::chrono::steady_clock::now();
    try {
      prepare(unit, units, groups, how_);
    } catch (const std::exception& e) {
      unit.record_error(e.what());
      unit.tasks = {};
    }
  }
  for (ExtractionGroup& group : groups) {
    try {
      group.unit->tasks = extraction_tasks(group);
    } catch (const std::exception& e) {
      group.unit->record_error(e.what());
    }
  }
  std::vector<std::size_t> offsets(units.size() + 1, 0);
  for (std::size_t u = 0; u < units.size(); ++u) {
    const std::size_t tasks = units[u].tasks.num_tasks;
    offsets[u + 1] = offsets[u] + tasks;
    units[u].pending.store(
        tasks + (units[u].extraction != nullptr ? 1 : 0) + 1,
        std::memory_order_relaxed);
  }

  // Emission: build the result (payload or error), then hand it to the
  // sink under one lock — the sink sees results serially, in completion
  // order, from unspecified threads. A throwing sink must not cancel the
  // rest of the batch (per-request isolation extends to delivery): the
  // first sink exception is captured here and rethrown after every request
  // has been evaluated and offered to the sink.
  struct Delivery {
    util::Mutex mutex;
    std::exception_ptr error ENB_GUARDED_BY(mutex);
  } delivery;
  const auto emit = [&](Unit& unit, ResultPayload payload) {
    AnalysisResult result;
    result.index = unit.index;
    result.name = unit.request->name;
    result.kind = unit.request->kind();
    result.ok = !unit.failed.load();
    if (result.ok) {
      analysis::set_payload(result, std::move(payload));
      if (unit.profile.has_value()) result.profile = std::move(unit.profile);
    } else {
      result.error = unit.error_text();
    }
    // Per-job wall-clock and trace event. Observational only: elapsed rides
    // a field the JSON/CSV writers never serialize, and the trace event is
    // recorded outside the result entirely.
    const auto end = std::chrono::steady_clock::now();
    result.elapsed_seconds =
        std::chrono::duration<double>(end - unit.start).count();
    jobs_total.add(1);
    if (!result.ok) jobs_failed.add(1);
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    if (recorder.enabled()) {
      recorder.record("batch-job", obs::SpanHandle{recorder.new_id()},
                      batch_span.handle(), unit.start, end, result.name);
    }
    const util::LockGuard lock(delivery.mutex);
    try {
      sink(std::move(result));
    } catch (...) {
      if (delivery.error == nullptr) delivery.error = std::current_exception();
    }
  };
  // Finishes a unit whose tasks and extraction are done, releases its task
  // set, and either emits its result or completes its dependents.
  std::function<void(Unit&)> complete;
  const auto finish = [&](Unit& unit) {
    ResultPayload payload;
    if (!unit.failed.load()) {
      try {
        payload = unit.tasks.finish();
      } catch (const std::exception& e) {
        unit.record_error(e.what());
      }
    }
    unit.tasks = {};
    if (unit.request != nullptr) emit(unit, std::move(payload));
    for (Unit* dependent : unit.dependents) {
      if (unit.failed.load()) {
        dependent->record_error(unit.error_text());
      } else {
        dependent->profile = unit.profiles[dependent->member];
      }
      complete(*dependent);
    }
  };
  complete = [&](Unit& unit) {
    if (unit.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish(unit);
    }
  };

  // Units with no other pending work (validation failures, cache-hit
  // profiles) finish here, before the parallel phase.
  for (Unit& unit : units) complete(unit);

  // Phase 2 (parallel): every unit's tasks flattened into one task space
  // over the pool. A worker that completes a unit's last task finishes it
  // right there — that is what makes the sink stream.
  for_each_index(
      offsets.back(),
      [&](std::size_t flat) {
        const std::size_t u = static_cast<std::size_t>(
            std::upper_bound(offsets.begin(), offsets.end(), flat) -
            offsets.begin() - 1);
        Unit& unit = units[u];
        if (!unit.failed.load(std::memory_order_relaxed)) {
          try {
            unit.tasks.run_task(flat - offsets[u]);
          } catch (const std::exception& e) {
            unit.record_error(e.what());
          } catch (...) {
            unit.record_error("unknown error");
          }
        }
        complete(unit);
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
