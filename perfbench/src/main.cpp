// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload bound-wide|harden-sweep|serve-mixed --seed N
//             [--seconds S | --rounds R] [--trace 0|1]
//             [--trace-file PATH] [--work-dir DIR]
//
// Untraced (--trace 0): set up several times (inputs plus one round of
// ops), run one timed phase, verify every op, print the end-to-end record.
// Traced (--trace 1): split the time between an untraced and a traced phase
// of the same op sequence, record spans and registry counters in the traced
// one, verify, write the Chrome trace to --trace-file, and print the
// per-layer record. The last stdout
// line is one JSON object; perfbench/run.py turns it into the benchmark's
// result.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRuns = 3;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t rounds = 0;
  bool trace = false;
  std::string trace_file = "perfbench-trace.json";
  std::string work_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--rounds") {
      args.rounds = std::stoull(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-file") {
      args.trace_file = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "bound-wide") return make_bound_wide();
  if (args.workload == "harden-sweep") return make_harden_sweep();
  if (args.workload == "serve-mixed") return make_serve_mixed(args.work_dir);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Minimal JSON object writer: keys are plain identifiers, values numbers,
// strings without escapes, or nested objects.
class JsonObject {
 public:
  JsonObject& number(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return raw(key, buffer);
  }
  JsonObject& integer(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& string(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  JsonObject& object(const std::string& key, const JsonObject& value) {
    return raw(key, value.str());
  }
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

JsonObject timing(double value, std::size_t samples) {
  JsonObject out;
  out.number("value", value).integer("samples", samples);
  return out;
}

JsonObject phase_record(const PhaseResult& phase) {
  const std::size_t ops = phase.op_seconds.size();
  JsonObject out;
  out.integer("ops", ops).number("wall_s", phase.wall_seconds);
  out.number("ops_per_s",
             ops == 0 ? 0.0 : static_cast<double>(ops) / phase.wall_seconds);
  if (ops > 0) {
    out.number("op_p50_s", median(phase.op_seconds));
    out.number("op_p90_s", quantile(phase.op_seconds, 0.9));
  }
  return out;
}

// Per-layer values derived from registry deltas over the traced phase.
void registry_values(const RegistrySnapshot& delta, const PhaseResult& phase,
                     unsigned pool_threads, Values& values) {
  const double ops = static_cast<double>(phase.op_seconds.size());
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double hits = delta.get("analysis-profile-cache-hits-total");
  const double extractions = delta.get("analysis-profile-extractions-total");
  values["analysis.profile_cache_hit_ratio"] =
      ratio(hits, hits + extractions);
  values["analysis.cec_s"] = ratio(delta.get("harden-cec-seconds:sum"), ops);
  values["fault.lane_occupancy"] =
      ratio(delta.get("fault-lane-slots-active-total"),
            delta.get("fault-lane-slots-total"));
  values["exec.tasks"] = ratio(delta.get("exec-tasks-total"), ops);
  values["exec.steals"] = ratio(delta.get("exec-steal-tasks-total"), ops);
  // parallel_for runs tasks on the pool's workers plus its (one, as calls
  // serialize) calling thread, so that is the capacity busy time fills.
  values["exec.pool_busy_share"] =
      ratio(delta.get("exec-task-seconds:sum"),
            phase.wall_seconds * static_cast<double>(pool_threads + 1));
}

int run(const Args& args) {
  const unsigned pool_threads = enb::exec::ThreadPool::global().size();

  // Set-up is everything before the timed phase: building the inputs and
  // one round of ops, so that lazy allocation and first-touch costs land in
  // neither timed phase. The round also keeps setup_s from being a few
  // milliseconds of single-threaded work that moves with the core the main
  // thread happens to run on.
  // Each repetition sets up a fresh workload; tearing down the previous one
  // (stopping its server) happens before the clock starts.
  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> workload;
  PhaseResult warmup;
  for (int i = 0; i < kSetupRuns; ++i) {
    workload.reset();
    workload = make_workload(args);
    const Clock::time_point start = Clock::now();
    workload->setup(args.seed);
    workload->begin_phase();
    warmup = workload->run(PhaseLimit{0.0, 1}, nullptr);
    setup_seconds.push_back(seconds_since(start));
  }

  JsonObject host;
  host.integer("nproc", std::thread::hardware_concurrency())
      .integer("pool_threads", pool_threads)
      .string("build_type", PERFBENCH_BUILD_TYPE)
      .string("compiler", PERFBENCH_COMPILER);
  JsonObject record;
  record.string("workload", args.workload)
      .integer("seed", args.seed)
      .object("host", host)
      .object("setup_s", timing(median(setup_seconds), setup_seconds.size()));

  std::size_t attempted = warmup.op_seconds.size();
  std::size_t failed = warmup.failed;

  PhaseLimit limit{args.seconds, args.rounds};
  if (!args.trace) {
    workload->begin_phase();
    const PhaseResult phase = workload->run(limit, nullptr);
    const double rss = peak_rss_mb();
    attempted += phase.op_seconds.size();
    failed += phase.failed + workload->verify();
    record.object("phase", phase_record(phase)).number("peak_rss_mb", rss);
  } else {
    if (limit.rounds == 0) limit.seconds /= 2.0;
    workload->begin_phase();
    const PhaseResult untraced = workload->run(limit, nullptr);

    workload->begin_phase();
    enb::obs::TraceRecorder& recorder = enb::obs::TraceRecorder::global();
    recorder.enable(kTraceCapacity);
    const RegistrySnapshot before = RegistrySnapshot::take();
    CountWindow window;
    PhaseResult traced;
    {
      const enb::obs::Span span("phase");
      traced = workload->run(limit, &window);
    }
    const RegistrySnapshot delta = RegistrySnapshot::take().since(before);
    // Serve-layer values exist only where a server runs; elsewhere the
    // layer does no work and reads 0.
    Values values{{"serve.bytes_per_job", 0.0},
                  {"serve.cache_hit_ratio", 0.0},
                  {"serve.ping_rtt_s", 0.0}};
    registry_values(delta, traced, pool_threads, values);
    workload->layer_values(values);
    attempted += untraced.op_seconds.size() + traced.op_seconds.size();
    failed += untraced.failed + traced.failed + workload->verify();

    Counts counts = window.counts();
    workload->verified_counts(counts);
    if (!window.closed()) throw std::logic_error("count window never closed");
    {
      std::ofstream out(args.trace_file);
      recorder.write_chrome_trace(out);
      if (!out) throw std::runtime_error("cannot write " + args.trace_file);
    }
    const std::uint64_t dropped = recorder.dropped();
    recorder.disable();

    JsonObject layer;
    for (const auto& [name, value] : values) layer.number(name, value);
    JsonObject exact;
    for (const auto& [name, value] : counts) exact.integer(name, value);
    record.object("phase", phase_record(untraced))
        .object("traced_phase", phase_record(traced))
        .object("layer", layer)
        .object("counts", exact)
        .string("trace_file", args.trace_file)
        .integer("trace_dropped", dropped);
  }
  record.integer("attempted", attempted).integer("failed", failed);
  std::cout << record.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
