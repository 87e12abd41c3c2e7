// Shared plumbing of the perfbench binary: phase limits, seeded input draws,
// obs::Registry snapshots, the count window, and the interface every
// workload implements.
//
// Every workload is closed-loop: a caller issues its next op only after the
// previous one returns. A phase runs whole rounds (a round is the workload's
// fixed op pattern, e.g. one op per circuit), so the op mix of a phase never
// depends on where the clock ran out.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

// splitmix64 stream: the benchmark's own seeded source of inputs. The
// library under test never sees it, only the inputs drawn from it.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform-enough index in [0, n) for the small n the workloads use.
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

// How long a phase runs: exactly `rounds` rounds when nonzero, otherwise
// whole rounds until `seconds` have passed.
struct PhaseLimit {
  double seconds = 0.0;
  std::size_t rounds = 0;
  [[nodiscard]] bool done(Clock::time_point start,
                          std::size_t rounds_done) const;
};

struct PhaseResult {
  std::vector<double> op_seconds;  // one per attempted op
  double wall_seconds = 0.0;
  std::size_t failed = 0;          // ops that threw or reported an error
};

// Values of the obs::Registry instruments the benchmark reads: counters by
// name, histograms as "<name>:sum" and "<name>:count".
class RegistrySnapshot {
 public:
  [[nodiscard]] static RegistrySnapshot take();
  [[nodiscard]] double get(const std::string& key) const;
  // this - earlier, per key.
  [[nodiscard]] RegistrySnapshot since(const RegistrySnapshot& earlier) const;

 private:
  std::map<std::string, double> values_;
};

using Counts = std::map<std::string, std::uint64_t>;
using Values = std::map<std::string, double>;

// The count window: exact work counts over the first round of the traced
// phase (the first 9 frames per client on serve-mixed). Workloads add their
// own counts while the window is open and call close() right after that
// round; close() adds the registry's exact counters over the same interval.
// Counts of a window are a pure function of the seed, so two runs with one
// seed must agree on every one of them, however long each run's phases.
class CountWindow {
 public:
  CountWindow() : start_(RegistrySnapshot::take()) {}
  void add(const std::string& name, std::uint64_t n) { counts_[name] += n; }
  void close();
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }

 private:
  RegistrySnapshot start_;
  Counts counts_;
  bool closed_ = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the run's inputs from the seed; called once per workload.
  virtual void setup(std::uint64_t seed) = 0;

  // Called before every run(), outside its timing and count window. A
  // workload whose inputs carry state from one phase to the next resets it
  // here to a state derived from the seed and the phase's position in the
  // run, so how long an earlier phase ran never changes a later one's ops.
  virtual void begin_phase() {}

  // Runs ops closed-loop until `limit`. With a window, adds the first
  // round's own work counts to it and closes it after that round.
  virtual PhaseResult run(const PhaseLimit& limit, CountWindow* window) = 0;

  // Checks the outputs of every op run so far; returns the number of ops
  // that failed verification. Replays record spans under "replay" roots.
  virtual std::size_t verify() = 0;

  // Per-layer values the workload measures itself, after a traced phase
  // (ping round trips, client-side cache ratios, sensitivity flips).
  virtual void layer_values(Values& values) { (void)values; }

  // Exact counts known only after verify() (replayed universes).
  virtual void verified_counts(Counts& counts) const { (void)counts; }
};

[[nodiscard]] std::unique_ptr<Workload> make_bound_wide();
[[nodiscard]] std::unique_ptr<Workload> make_harden_sweep();
[[nodiscard]] std::unique_ptr<Workload> make_serve_mixed(std::string work_dir);

// Median of a non-empty sample (mean of the middle pair for even sizes).
[[nodiscard]] double median(std::vector<double> values);
// Linearly interpolated quantile q in [0, 1] of a non-empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace perfbench
