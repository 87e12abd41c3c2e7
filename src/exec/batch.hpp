// Batched multi-request evaluation: the server-workload front end of the
// parallel engine.
//
// A BatchEvaluator accepts a queue of typed analysis::AnalysisRequests —
// each a CompiledCircuit handle plus per-kind options — and runs them as
// units of one kind: a task set (exec::run_tasks's shape) whose finish()
// yields the result payload. A sharded request holds its engine's task set
// (sim::ReliabilityTasks, sim::ActivityTasks, fault::CampaignTasks, ...);
// lint, cec and harden are one-task sets; and requests whose profile is not
// cached wait on one shared core::ProfileExtraction unit per (profile
// options, input count). Its members are the distinct handles they name:
// one union netlist of their structural classes is simulated once for all
// of them, and each member's profile lands in its handle's cache.
// Every unit's tasks are flattened into one task space over the shared
// ThreadPool, so a long request's shards interleave with short requests
// instead of serializing behind them, and a unit's task set (simulator
// state, accumulators) is released as soon as the unit has finished.
// Requests hold shared handles, so a hundred-point sweep over one design
// never clones the netlist.
//
// Results can be consumed two ways:
//   run()            — blocking; results indexed by submission order.
//   run(ResultSink)  — streaming; each AnalysisResult is delivered as its
//                      request finishes. Completion order is unspecified,
//                      but every payload is bit-identical to the blocking
//                      form (and to a direct estimator call): which thread
//                      finishes first never reaches the numbers.
//
// Determinism contract: a request's result is a pure function of its own
// spec. A unit runs the same task set the standalone estimator runs, every
// shard draws its randomness from the counter-based stream of (request
// seed, shard index), and task sets merge through order-insensitive
// reductions (integer sums, max, or slot-per-shard writes). Results are
// therefore bit-identical to a direct estimator call, and independent of the
// thread count, the submission order, and whatever else is co-scheduled. A
// unit whose task throws fails alone: its remaining tasks become no-ops and
// its dependents report its error.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "exec/thread_pool.hpp"

namespace enb::exec {

// Streaming consumer: invoked once per request, serially (an internal lock),
// from an unspecified thread, as each request finishes. result.index is the
// submission index. A throwing sink does not cancel the batch: every request
// is still evaluated and offered to the sink, and the first sink exception
// is rethrown from run() after the queue drains (and clears).
using ResultSink = std::function<void(analysis::AnalysisResult)>;

class BatchEvaluator {
 public:
  explicit BatchEvaluator(Parallelism how = {}) : how_(how) {}

  // Enqueues a request; returns its index (== result.index).
  std::size_t submit(analysis::AnalysisRequest request);

  [[nodiscard]] std::size_t pending() const noexcept {
    return requests_.size();
  }

  // Streaming form: evaluates every submitted request over the flattened
  // shard space and delivers each result through `sink` as its request
  // finishes, then clears the queue. Completion order is unspecified;
  // payloads are deterministic.
  void run(const ResultSink& sink);

  // Blocking form: thin wrapper over the streaming form that collects into
  // submission order.
  [[nodiscard]] std::vector<analysis::AnalysisResult> run();

 private:
  Parallelism how_;
  std::vector<analysis::AnalysisRequest> requests_;
};

// Convenience: submit + run in one call.
[[nodiscard]] std::vector<analysis::AnalysisResult> evaluate_requests(
    std::vector<analysis::AnalysisRequest> requests, Parallelism how = {});

// ---- manifest / output plumbing ------------------------------------------

// Parses a job-manifest stream: one request per non-blank, non-comment line,
//   <name> kind=<kind> circuit=<spec> [golden=<spec>] [eps=E] [delta=D]
//          [budget=N] [seed=S] [leakage=L] [mode=M] [drop=0|1]
//          [lanes=64|128|256|512] [sample=N] [prune=0|1]
//          [style=tmr|dwc|selective] [granularity=gate|cone|output] [top_k=N]
// (the keys are analysis::ManifestSettings; which kinds take which is in
// their analysis::KindDescriptor). `resolve` maps a circuit spec (suite name
// or .bench path) to a compiled handle — memoize it to share handles (and
// profile extractions) across jobs naming the same spec. kind=cec compares
// circuit= against golden= (required). Throws std::invalid_argument on
// malformed lines, unknown kinds/keys, keys the kind does not take, or
// bad values.
[[nodiscard]] std::vector<analysis::AnalysisRequest> parse_manifest_requests(
    std::istream& in,
    const std::function<analysis::CompiledCircuit(const std::string&)>&
        resolve);

// Long-format CSV: header "job,kind,ok,metric,value"; failed jobs emit a
// single row with metric "error" and an empty value (the message itself
// goes to the JSON writer).
void write_batch_csv(std::ostream& out,
                     const std::vector<analysis::AnalysisResult>& results);

// One result as a single-line JSON object {"name", "kind", "ok", "error",
// "metrics": {...}} — exactly the bytes write_batch_json places on the
// result's array line. The server daemon streams these objects per result
// and the client reassembles the array, which is what makes served batch
// output bit-identical to the offline writer by construction. Non-finite
// metric values render as null (not valid JSON literals). Sets the stream's
// precision (17 digits).
void write_result_json(std::ostream& out, const analysis::AnalysisResult& r);

// JSON array of write_result_json objects, in `results` order.
void write_batch_json(std::ostream& out,
                      const std::vector<analysis::AnalysisResult>& results);

}  // namespace enb::exec
