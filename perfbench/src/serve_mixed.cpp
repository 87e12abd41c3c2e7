// serve-mixed: the analysis daemon under a mixed batch load. An in-process
// serve::Server listens on a Unix socket under the work directory; two
// serve::Client connections drive it closed-loop, each sending `batch`
// frames of ten small jobs, one per AnalysisKind, over small suite circuits.
//
// Exactly half of every frame repeats an earlier spec of the same client
// (so the server's result cache answers it): lint, whose spec has no seed,
// plus four of the nine seeded kinds, taken in a cycle that repeats each of
// them in 4 of every 9 frames. The other five jobs
// carry fresh seeds, so the server must evaluate them.
//
// Each phase starts from planners rebuilt from the seed and the phase's
// index, which first send a warm-up frame of every kind on every circuit
// (the first one also fills the handle registry and the per-handle profiles
// that harden jobs share). A phase's frames therefore never depend on how
// many frames an earlier phase ran, and its fresh seeds are new to the
// result cache.
//
// Verification: every frame must report ten ok results with exactly the
// planned number served from the cache, and every 128th frame is replayed
// offline (exec::parse_manifest_requests + BatchEvaluator::run) whose
// write_batch_json bytes must equal the served JSON.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "analysis/compiled_circuit.hpp"
#include "common.hpp"
#include "exec/batch.hpp"
#include "gen/suite.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace enb;

constexpr const char* kCircuits[] = {"c17", "parity8", "rca8", "mult4",
                                     "cmp16"};
constexpr std::size_t kClients = 2;
constexpr int kMaxFanin = 3;

// A harden sweep on mult4, rca8 or cmp16 takes 30-400 ms, against a few ms
// for every other job; it blocked the other client's batches and made
// throughput swing with the seed, so harden jobs use the two cheap circuits.
constexpr const char* kHardenCircuits[] = {"c17", "parity8"};

// One job per kind, in AnalysisKind order, as manifest knobs. Budgets are
// small so extraction stays a minor share of a frame.
struct KindSpec {
  const char* kind;
  const char* knobs;
  bool seeded;
  std::span<const char* const> circuits;
};
constexpr KindSpec kKinds[] = {
    {"reliability", "eps=0.01 budget=2048", true, kCircuits},
    {"worst-case", "eps=0.01 budget=16", true, kCircuits},
    {"activity", "budget=64", true, kCircuits},
    {"sensitivity", "budget=8", true, kCircuits},
    {"energy-bound", "eps=0.01 delta=0.01 budget=256", true, kCircuits},
    {"profile", "budget=256", true, kCircuits},
    {"fault-campaign", "budget=128 drop=1", true, kCircuits},
    {"lint", "", false, kCircuits},
    {"cec", "budget=8", true, kCircuits},
    {"harden", "budget=64", true, kHardenCircuits},
};
constexpr std::size_t kNumKinds = std::size(kKinds);
constexpr std::size_t kSeededRepeats = 4;  // plus lint: 5 of 10 jobs
constexpr std::size_t kRecentSpecs = 8;    // repeat candidates per kind
// Every 128th frame of a client keeps its bytes for the offline replay; the
// rest keep only their counts, so peak memory measures the server rather
// than the benchmark's log.
constexpr std::size_t kReplayEvery = 128;
constexpr std::size_t kPings = 200;
// The count window spans one repeat cycle of each client: every seeded kind
// misses in 5 of these 9 frames.
constexpr std::size_t kWindowFrames = 9;

std::string job_body(const KindSpec& spec, const std::string& circuit,
                     std::uint64_t seed) {
  std::string body = std::string("kind=") + spec.kind + " circuit=" + circuit;
  if (spec.kind == std::string("cec")) body += " golden=" + circuit;
  if (spec.knobs[0] != '\0') body += std::string(" ") + spec.knobs;
  if (spec.seeded) body += " seed=" + std::to_string(seed);
  return body;
}

// Deals the indices [0, n) in seeded shuffled cycles, so over every whole
// cycle each index comes up exactly once. Balanced dealing keeps the mix of
// expensive and cheap jobs the same for every seed.
class Deck {
 public:
  explicit Deck(std::size_t n) : order_(n), next_(n) {}

  std::size_t deal(Draw& draw) {
    if (next_ == order_.size()) {
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      draw.shuffle(order_);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  std::vector<std::size_t> order_;
  std::size_t next_;
};

// Plans one client's frames in one phase. Fresh seeds are
// (salt ^ client/phase/counter), so no two fresh specs of a run coincide;
// repeats come from the client's own earlier frames of the phase, which
// closed-loop operation has already completed. Frame f repeats the seeded
// kinds at positions 4f .. 4f+3 (mod 9) of a seeded permutation, so each
// seeded kind repeats in exactly 4 of every 9 frames.
class FramePlanner {
 public:
  FramePlanner(std::uint64_t seed, std::size_t client, std::size_t phase)
      : draw_(seed ^ (0xC11E47ull * (client + 1)) ^
              (0x9E3779B97F4A7C15ull * phase)),
        salt_(Draw(seed).next()),
        stream_((static_cast<std::uint64_t>(client + 1) << 40) |
                (static_cast<std::uint64_t>(phase) << 32)),
        recent_(kNumKinds) {
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      circuit_decks_.emplace_back(kKinds[k].circuits.size());
      if (kKinds[k].seeded) seeded_.push_back(k);
    }
    draw_.shuffle(seeded_);
  }

  // Every kind fresh on every circuit: warms registry, profiles and caches.
  std::string warmup() {
    std::string manifest;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      for (const char* circuit : kKinds[k].circuits) {
        const std::string body = fresh(k, circuit);
        manifest += std::string(kKinds[k].kind) + "-" + circuit + " " + body +
                    "\n";
      }
    }
    return manifest;
  }

  std::string next(std::size_t& repeats) {
    std::vector<bool> repeat(kNumKinds, false);
    for (std::size_t i = 0; i < kSeededRepeats; ++i) {
      repeat[seeded_[(frames_ * kSeededRepeats + i) % seeded_.size()]] = true;
    }
    frames_ += 1;

    std::string manifest;
    repeats = 0;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      const char* circuit = kKinds[k].circuits[circuit_decks_[k].deal(draw_)];
      std::string body;
      if (!kKinds[k].seeded) {
        body = job_body(kKinds[k], circuit, 0);
        repeats += 1;  // seen during warm-up
      } else if (repeat[k]) {
        const std::deque<std::string>& pool = recent_[k];
        body = pool[draw_.below(pool.size())];
        repeats += 1;
      } else {
        body = fresh(k, circuit);
      }
      manifest += std::string(kKinds[k].kind) + " " + body + "\n";
    }
    return manifest;
  }

 private:
  std::string fresh(std::size_t kind, const std::string& circuit) {
    const std::uint64_t seed = salt_ ^ (stream_ | counter_++);
    std::string body = job_body(kKinds[kind], circuit, seed);
    if (kKinds[kind].seeded) {
      std::deque<std::string>& pool = recent_[kind];
      pool.push_back(body);
      if (pool.size() > kRecentSpecs) pool.pop_front();
    }
    return body;
  }

  Draw draw_;
  std::uint64_t salt_;
  std::uint64_t stream_;  // client and phase bits of every fresh seed
  std::uint64_t counter_ = 0;
  std::size_t frames_ = 0;
  std::vector<std::size_t> seeded_;  // seeded kinds, in repeat order
  std::vector<Deck> circuit_decks_;  // per kind
  std::vector<std::deque<std::string>> recent_;  // per kind, oldest first
};

struct FrameRecord {
  bool replayed = false;  // keeps manifest and json for the offline replay
  std::string manifest;
  std::string json;  // served results, assembled in submission order
  std::size_t total = 0;
  std::size_t failed = 0;
  std::size_t cached = 0;
  std::size_t planned_repeats = 0;
  bool error = false;
};

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(std::string work_dir)
      : socket_path_(std::move(work_dir) + "/serve-" +
                     std::to_string(::getpid()) + ".sock") {}
  // Closes the connections, then stops the server and joins its thread.
  ~ServeMixed() override {
    clients_.clear();
    if (server_ != nullptr) server_->request_stop();
    if (server_thread_.joinable()) server_thread_.join();
  }

  ServeMixed(const ServeMixed&) = delete;
  ServeMixed& operator=(const ServeMixed&) = delete;

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    serve::ServerOptions options;
    options.socket_path = socket_path_;
    options.default_map_fanin = kMaxFanin;
    server_ = std::make_unique<serve::Server>(options);
    server_->bind();
    server_thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception&) {
        server_failed_.store(true);
      }
    });
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<serve::Client>(socket_path_));
    }
  }

  void begin_phase() override {
    planners_.clear();
    for (std::size_t c = 0; c < kClients; ++c) {
      planners_.emplace_back(seed_, c, phases_);
      const serve::QueryOutcome warm =
          clients_[c]->batch(planners_[c].warmup());
      if (warm.failed != 0) {
        throw std::runtime_error("serve-mixed: warm-up frame failed");
      }
    }
    phases_ += 1;
  }

  PhaseResult run(const PhaseLimit& limit, CountWindow* window) override {
    const RegistrySnapshot before = RegistrySnapshot::take();
    std::barrier sync(static_cast<std::ptrdiff_t>(kClients),
                      [window]() noexcept {
                        if (window != nullptr) window->close();
                      });
    std::vector<PhaseResult> per_client(kClients);
    std::vector<std::vector<FrameRecord>> logs(kClients);
    // Both clients always finish the window's frames, so neither can leave
    // the other waiting at the barrier.
    const std::size_t window_frames =
        window == nullptr
            ? 0
            : (limit.rounds > 0 ? std::min(kWindowFrames, limit.rounds)
                                : kWindowFrames);
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t round = 0;
             round < window_frames || !limit.done(start, round); ++round) {
          FrameRecord frame;
          frame.replayed = round % kReplayEvery == 0;
          frame.manifest = planners_[c].next(frame.planned_repeats);
          const Clock::time_point op_start = Clock::now();
          try {
            const obs::Span op("op");
            const obs::Span span("serve.batch", op.handle());
            const serve::QueryOutcome outcome =
                clients_[c]->batch(frame.manifest);
            if (frame.replayed) {
              std::ostringstream json;
              outcome.assemble_json(json);
              frame.json = json.str();
            }
            frame.total = outcome.total;
            frame.failed = outcome.failed;
            frame.cached = outcome.cached;
          } catch (const std::exception&) {
            frame.error = true;
            per_client[c].failed += 1;
          }
          per_client[c].op_seconds.push_back(seconds_since(op_start));
          if (!frame.replayed) std::string().swap(frame.manifest);
          logs[c].push_back(std::move(frame));
          if (round + 1 == window_frames) sync.arrive_and_wait();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    PhaseResult phase;
    phase.wall_seconds = seconds_since(start);
    std::size_t jobs = 0;
    std::size_t cached = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      phase.failed += per_client[c].failed;
      phase.op_seconds.insert(phase.op_seconds.end(),
                              per_client[c].op_seconds.begin(),
                              per_client[c].op_seconds.end());
      for (FrameRecord& frame : logs[c]) {
        jobs += frame.total;
        cached += frame.cached;
        frames_.push_back(std::move(frame));
      }
    }
    const RegistrySnapshot delta = RegistrySnapshot::take().since(before);
    const double bytes = delta.get("serve-bytes-in-total") +
                         delta.get("serve-bytes-out-total");
    phase_values_["serve.cache_hit_ratio"] =
        jobs == 0 ? 0.0 : static_cast<double>(cached) / jobs;
    phase_values_["serve.bytes_per_job"] = jobs == 0 ? 0.0 : bytes / jobs;
    return phase;
  }

  std::size_t verify() override {
    if (server_failed_.load()) return frames_.size();
    // Compiled here, so the replay's parse span times parsing alone.
    for (const char* name : kCircuits) {
      offline_.emplace(name, analysis::compile(gen::build_circuit_spec(name))
                                 .mapped(kMaxFanin));
    }
    std::size_t failed = 0;
    for (const FrameRecord& frame : frames_) {
      if (!frame.error && (frame.total != kNumKinds || frame.failed != 0 ||
                           frame.cached != frame.planned_repeats)) {
        failed += 1;
      }
    }
    for (const FrameRecord& frame : frames_) {
      if (frame.replayed && !frame.error &&
          replay(frame.manifest) != frame.json) {
        failed += 1;
      }
    }
    return failed;
  }

  void layer_values(Values& values) override {
    for (const auto& [name, value] : phase_values_) values[name] = value;
    std::vector<double> rtts;
    for (std::size_t i = 0; i < kPings; ++i) {
      const Clock::time_point start = Clock::now();
      static_cast<void>(clients_[0]->ping());
      rtts.push_back(seconds_since(start));
    }
    values["serve.ping_rtt_s"] = median(rtts);
  }

 private:
  // The offline write_batch_json bytes of `manifest`.
  std::string replay(const std::string& manifest) {
    const obs::Span root("replay");
    std::vector<analysis::AnalysisRequest> requests;
    {
      const obs::Span span("exec.parse_manifest", root.handle());
      std::istringstream in(manifest);
      requests = exec::parse_manifest_requests(
          in, [this](const std::string& spec) { return offline_.at(spec); });
    }
    std::vector<analysis::AnalysisResult> results;
    {
      const obs::Span span("exec.batch", root.handle());
      results = exec::evaluate_requests(std::move(requests));
    }
    std::ostringstream out;
    exec::write_batch_json(out, results);
    return out.str();
  }

  std::string socket_path_;
  std::uint64_t seed_ = 0;
  std::size_t phases_ = 0;  // phases begun so far
  std::unique_ptr<serve::Server> server_;
  std::atomic<bool> server_failed_{false};  // run() threw
  std::thread server_thread_;
  std::vector<FramePlanner> planners_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  std::vector<FrameRecord> frames_;
  std::map<std::string, analysis::CompiledCircuit> offline_;
  Values phase_values_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(std::string work_dir) {
  return std::make_unique<ServeMixed>(std::move(work_dir));
}

}  // namespace perfbench
