#include "analysis/compiled_circuit.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include <chrono>

#include "netlist/bench_io.hpp"
#include "netlist/topo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/library.hpp"
#include "synth/mapper.hpp"
#include "util/sync.hpp"

namespace enb::analysis {

namespace {

// Profile-cache observability: hits (the amortization the handle design
// buys) vs extractions (the work it avoids repeating), plus extraction
// wall-clock. Counts only — the cached values themselves are untouched.
struct ProfileMetrics {
  obs::Counter& hits =
      obs::Registry::global().counter("analysis-profile-cache-hits-total");
  obs::Counter& extractions =
      obs::Registry::global().counter("analysis-profile-extractions-total");
  obs::Histogram& seconds =
      obs::Registry::global().histogram("analysis-extraction-seconds");
};

ProfileMetrics& profile_metrics() {
  static ProfileMetrics metrics;
  return metrics;
}

}  // namespace

// All cached artifacts live behind one mutex. Computation happens under the
// lock — except profile extraction, see profile() — so first-use costs
// serialize, but every artifact is computed exactly once and the lock is
// never contended on the hot (cache-hit) path for more than a lookup.
// Profiles are stored behind shared_ptr so the references handed out stay
// stable while the cache vector grows.
struct CompiledCircuit::Impl {
  explicit Impl(netlist::Circuit c) : circuit(std::move(c)) {}

  const netlist::Circuit circuit;

  mutable util::Mutex mutex;
  mutable std::optional<netlist::CircuitStats> stats ENB_GUARDED_BY(mutex);
  mutable std::optional<std::vector<int>> levels ENB_GUARDED_BY(mutex);
  mutable std::optional<std::vector<int>> fanout_counts ENB_GUARDED_BY(mutex);
  mutable std::vector<std::pair<core::ProfileOptions,
                                std::shared_ptr<const core::CircuitProfile>>>
      profiles ENB_GUARDED_BY(mutex);
  // Options with an extraction in flight; waiters sleep on extracted_cv.
  mutable std::vector<core::ProfileOptions> extracting ENB_GUARDED_BY(mutex);
  mutable util::CondVar extracted_cv;
  mutable std::vector<std::pair<int, CompiledCircuit>> mapped
      ENB_GUARDED_BY(mutex);
  mutable std::optional<std::uint64_t> fingerprint ENB_GUARDED_BY(mutex);
  mutable std::atomic<std::uint64_t> extractions{0};

  const core::CircuitProfile* find_profile(
      const core::ProfileOptions& options) const ENB_REQUIRES(mutex) {
    for (const auto& [cached_options, cached] : profiles) {
      if (cached_options == options) return cached.get();
    }
    return nullptr;
  }

  // Counts one extraction and caches `profile` unless an entry for
  // `options` exists already (the values are equal); returns the entry.
  const core::CircuitProfile& store(const core::ProfileOptions& options,
                                    core::CircuitProfile profile) const
      ENB_REQUIRES(mutex) {
    profile_metrics().extractions.add(1);
    extractions.fetch_add(1, std::memory_order_relaxed);
    if (const core::CircuitProfile* existing = find_profile(options)) {
      return *existing;
    }
    profiles.emplace_back(
        options,
        std::make_shared<const core::CircuitProfile>(std::move(profile)));
    return *profiles.back().second;
  }
};

CompiledCircuit::Impl& CompiledCircuit::checked() const {
  if (impl_ == nullptr) {
    throw std::logic_error("CompiledCircuit: empty handle");
  }
  return *impl_;
}

const netlist::Circuit& CompiledCircuit::circuit() const {
  return checked().circuit;
}

const std::string& CompiledCircuit::name() const {
  return checked().circuit.name();
}

const netlist::CircuitStats& CompiledCircuit::stats() const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  if (!impl.stats.has_value()) {
    impl.stats = netlist::compute_stats(impl.circuit);
  }
  return *impl.stats;
}

const std::vector<int>& CompiledCircuit::levels() const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  if (!impl.levels.has_value()) {
    impl.levels = netlist::levels(impl.circuit);
  }
  return *impl.levels;
}

const std::vector<int>& CompiledCircuit::fanout_counts() const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  if (!impl.fanout_counts.has_value()) {
    impl.fanout_counts = netlist::fanout_counts(impl.circuit);
  }
  return *impl.fanout_counts;
}

const core::CircuitProfile& CompiledCircuit::profile(
    const core::ProfileOptions& options, exec::Parallelism how) const {
  Impl& impl = checked();
  util::UniqueLock lock(impl.mutex);
  for (;;) {
    if (const core::CircuitProfile* cached = impl.find_profile(options)) {
      profile_metrics().hits.add(1);
      return *cached;
    }
    if (std::find(impl.extracting.begin(), impl.extracting.end(), options) ==
        impl.extracting.end()) {
      break;  // we own this extraction
    }
    // Another caller is extracting these options: wait for its result; if
    // its extraction throws, retry as the new owner.
    impl.extracted_cv.wait(lock);
  }
  impl.extracting.push_back(options);
  const auto release = [&impl, &options] {
    impl.mutex.assert_held();  // both call sites re-lock first
    impl.extracting.erase(
        std::find(impl.extracting.begin(), impl.extracting.end(), options));
    impl.extracted_cv.notify_all();
  };

  // Extract outside the lock: the extraction may wait for the thread pool,
  // and a pool task of another batch may need this handle's cache (a harden
  // job's nested batch looks its base profile up), so holding the lock
  // across the extraction can deadlock.
  lock.unlock();
  std::optional<core::CircuitProfile> extracted;
  try {
    const obs::Span span("profile-extraction", {}, impl.circuit.name());
    const auto start = std::chrono::steady_clock::now();
    extracted = core::extract_profile(impl.circuit, options, how);
    profile_metrics().seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count());
  } catch (...) {
    lock.lock();
    release();
    throw;
  }
  lock.lock();
  release();
  return impl.store(options, std::move(*extracted));
}

std::optional<core::CircuitProfile> CompiledCircuit::cached_profile(
    const core::ProfileOptions& options) const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  const core::CircuitProfile* cached = impl.find_profile(options);
  if (cached == nullptr) return std::nullopt;
  profile_metrics().hits.add(1);
  return *cached;
}

void CompiledCircuit::store_profile(const core::ProfileOptions& options,
                                    core::CircuitProfile profile) const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  (void)impl.store(options, std::move(profile));
}

std::uint64_t CompiledCircuit::profile_extractions() const {
  return checked().extractions.load(std::memory_order_relaxed);
}

CompiledCircuit CompiledCircuit::mapped(int max_fanin) const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  for (const auto& [fanin, handle] : impl.mapped) {
    if (fanin == max_fanin) return handle;
  }
  synth::MapOptions options;
  options.library = synth::Library::generic(max_fanin);
  CompiledCircuit handle =
      compile(synth::map_to_library(impl.circuit, options).circuit);
  impl.mapped.emplace_back(max_fanin, handle);
  return handle;
}

std::uint64_t CompiledCircuit::content_fingerprint() const {
  Impl& impl = checked();
  const util::LockGuard lock(impl.mutex);
  if (!impl.fingerprint.has_value()) {
    // FNV-1a over the .bench text: stable across processes and recompiles
    // of the same netlist, which is all the result cache needs.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : netlist::write_bench_string(impl.circuit)) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
    impl.fingerprint = hash;
  }
  return *impl.fingerprint;
}

CompiledCircuit compile(netlist::Circuit circuit) {
  return CompiledCircuit(
      std::make_shared<CompiledCircuit::Impl>(std::move(circuit)));
}

}  // namespace enb::analysis
