#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace perfbench {
namespace {

constexpr const char* kCounters[] = {
    "analysis-profile-extractions-total",
    "analysis-profile-cache-hits-total",
    "exec-steal-tasks-total",
    "exec-tasks-total",
    "fault-dropped-classes-total",
    "fault-lane-slots-active-total",
    "fault-lane-slots-total",
    "fault-sweep-passes-total",
    "harden-candidates-total",
    "serve-bytes-in-total",
    "serve-bytes-out-total",
};

constexpr const char* kHistograms[] = {
    "exec-task-seconds",
    "harden-cec-seconds",
};

// Window counts taken from registry counters, which are exact and
// deterministic for a fixed op sequence.
constexpr std::pair<const char*, const char*> kWindowCounters[] = {
    {"analysis.profile_extractions", "analysis-profile-extractions-total"},
    {"analysis.cec_calls", "harden-cec-seconds:count"},
    {"fault.dropped_classes", "fault-dropped-classes-total"},
    {"fault.sim_passes", "fault-sweep-passes-total"},
    {"harden.candidates", "harden-candidates-total"},
};

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t Draw::next() {
  state_ += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool PhaseLimit::done(Clock::time_point start, std::size_t rounds_done) const {
  if (rounds > 0) return rounds_done >= rounds;
  return seconds_since(start) >= seconds;
}

RegistrySnapshot RegistrySnapshot::take() {
  enb::obs::Registry& registry = enb::obs::Registry::global();
  RegistrySnapshot snapshot;
  for (const char* name : kCounters) {
    snapshot.values_[name] =
        static_cast<double>(registry.counter(name).value());
  }
  for (const char* name : kHistograms) {
    const enb::obs::Histogram::Snapshot h = registry.histogram(name).snapshot();
    snapshot.values_[std::string(name) + ":sum"] = h.sum;
    snapshot.values_[std::string(name) + ":count"] =
        static_cast<double>(h.count);
  }
  return snapshot;
}

double RegistrySnapshot::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::logic_error("perfbench: registry key not snapshotted: " + key);
  }
  return it->second;
}

RegistrySnapshot RegistrySnapshot::since(const RegistrySnapshot& earlier) const {
  RegistrySnapshot delta;
  for (const auto& [key, value] : values_) {
    delta.values_[key] = value - earlier.get(key);
  }
  return delta;
}

void CountWindow::close() {
  if (closed_) return;
  const RegistrySnapshot delta = RegistrySnapshot::take().since(start_);
  for (const auto& [name, key] : kWindowCounters) {
    counts_[name] += static_cast<std::uint64_t>(std::llround(delta.get(key)));
  }
  closed_ = true;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no values");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
