#include "analysis/request.hpp"

#include <algorithm>
#include <ios>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "util/numeric.hpp"

namespace enb::analysis {

namespace {

// The variant orders must mirror AnalysisKind (kind(), make_result and
// canonical_spec rely on the indices).
static_assert(std::is_same_v<std::variant_alternative_t<0, RequestOptions>,
                             ReliabilityRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<1, RequestOptions>,
                             WorstCaseRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<2, RequestOptions>,
                             ActivityRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<3, RequestOptions>,
                             SensitivityRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<4, RequestOptions>,
                             EnergyBoundRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<5, RequestOptions>,
                             ProfileRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<6, RequestOptions>,
                             FaultCampaignRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<7, RequestOptions>,
                             LintRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<8, RequestOptions>,
                             CecRequest>);
static_assert(std::is_same_v<std::variant_alternative_t<9, RequestOptions>,
                             HardenRequest>);
static_assert(std::variant_size_v<RequestOptions> + 1 ==
              std::variant_size_v<ResultPayload>);
static_assert(std::is_same_v<
              std::variant_alternative_t<std::variant_size_v<ResultPayload> - 1,
                                         ResultPayload>,
              harden::ParetoResult>);

using Metrics = std::vector<std::pair<std::string, double>>;

void push(Metrics& m, std::string name, double value) {
  m.emplace_back(std::move(name), value);
}

Metrics flatten(const sim::ReliabilityResult& r) {
  Metrics m;
  push(m, "delta_hat", r.delta_hat);
  push(m, "ci_low", r.ci_low);
  push(m, "ci_high", r.ci_high);
  push(m, "failures", static_cast<double>(r.failures));
  push(m, "trials", static_cast<double>(r.trials));
  push(m, "requested_trials", static_cast<double>(r.requested_trials));
  return m;
}

Metrics flatten(const sim::WorstCaseResult& w) {
  Metrics m;
  push(m, "worst_delta_hat", w.worst.delta_hat);
  push(m, "worst_ci_low", w.worst.ci_low);
  push(m, "worst_ci_high", w.worst.ci_high);
  push(m, "worst_failures", static_cast<double>(w.worst.failures));
  push(m, "trials_per_input", static_cast<double>(w.worst.trials));
  push(m, "requested_trials_per_input",
       static_cast<double>(w.worst.requested_trials));
  push(m, "average_delta", w.average_delta);
  return m;
}

Metrics flatten(const sim::ActivityResult& a) {
  Metrics m;
  push(m, "avg_gate_toggle_rate", a.avg_gate_toggle_rate);
  push(m, "avg_gate_one_probability", a.avg_gate_one_probability);
  push(m, "sample_pairs", static_cast<double>(a.sample_pairs));
  return m;
}

Metrics flatten(const sim::SensitivityResult& s) {
  Metrics m;
  push(m, "sensitivity", static_cast<double>(s.sensitivity));
  push(m, "total_influence", s.total_influence);
  push(m, "assignments", static_cast<double>(s.assignments));
  push(m, "exact", s.exact ? 1.0 : 0.0);
  return m;
}

Metrics flatten(const core::BoundReport& b) {
  Metrics m;
  push(m, "eps", b.epsilon);
  push(m, "delta", b.delta);
  push(m, "sw_noisy", b.sw_noisy);
  push(m, "redundancy_gates", b.redundancy_gates);
  push(m, "size_factor", b.size_factor);
  push(m, "switching_factor", b.energy.switching_factor);
  push(m, "leakage_factor", b.energy.leakage_factor);
  push(m, "total_factor", b.energy.total_factor);
  push(m, "leakage_ratio", b.leakage_ratio);
  push(m, "delay_factor", b.metrics.delay);
  push(m, "edp_factor", b.metrics.edp);
  push(m, "avg_power_factor", b.metrics.avg_power);
  push(m, "depth_feasible", b.depth_feasible ? 1.0 : 0.0);
  return m;
}

Metrics flatten(const fault::FaultCampaignResult& f) {
  Metrics m;
  push(m, "nets", static_cast<double>(f.nets));
  push(m, "sites", static_cast<double>(f.sites));
  push(m, "classes", static_cast<double>(f.classes));
  push(m, "sampled", static_cast<double>(f.sampled));
  push(m, "detected", static_cast<double>(f.detected));
  push(m, "coverage", f.coverage);
  push(m, "coverage_ci_low", f.coverage_ci_low);
  push(m, "coverage_ci_high", f.coverage_ci_high);
  push(m, "masked_fraction", f.masked_fraction);
  push(m, "patterns", static_cast<double>(f.patterns));
  push(m, "sim_passes", static_cast<double>(f.sim_passes));
  push(m, "detect_outputs", static_cast<double>(f.detect_outputs));
  push(m, "gates", static_cast<double>(f.gates));
  push(m, "golden_gates", static_cast<double>(f.golden_gates));
  push(m, "gate_overhead", f.gate_overhead);
  push(m, "overhead_per_masked", f.overhead_per_masked);
  return m;
}

Metrics flatten(const CecResult& c) {
  Metrics m;
  push(m, "equivalent", c.equivalent ? 1.0 : 0.0);
  push(m, "inconclusive", c.inconclusive ? 1.0 : 0.0);
  push(m, "outputs", static_cast<double>(c.outputs));
  push(m, "refuted", static_cast<double>(c.refuted));
  push(m, "proved_structural", static_cast<double>(c.proved_structural));
  push(m, "proved_bdd", static_cast<double>(c.proved_bdd));
  push(m, "signature_words", static_cast<double>(c.signature_words));
  return m;
}

Metrics flatten(const harden::ParetoResult& h) {
  Metrics m;
  push(m, "candidates", static_cast<double>(h.candidates.size()));
  push(m, "frontier_size", static_cast<double>(h.frontier.size()));
  push(m, "refuted", static_cast<double>(h.refuted));
  push(m, "lint_errors", static_cast<double>(h.lint_errors));
  // One row group per frontier point, in frontier (enumeration) order; the
  // row count is data-dependent like a sweep's, and deterministic because
  // the frontier is.
  for (std::size_t i = 0; i < h.frontier.size(); ++i) {
    const harden::Candidate& c = h.candidates[h.frontier[i]];
    const std::string prefix = "frontier" + std::to_string(i);
    push(m, prefix + "_index", static_cast<double>(h.frontier[i]));
    push(m, prefix + "_gates", static_cast<double>(c.gates));
    push(m, prefix + "_energy_factor", c.energy_factor);
    push(m, prefix + "_protection", c.protection);
    push(m, prefix + "_coverage", c.coverage);
  }
  return m;
}

Metrics flatten(const LintReport& l) {
  Metrics m;
  push(m, "errors", static_cast<double>(l.errors()));
  push(m, "warnings", static_cast<double>(l.warnings()));
  push(m, "findings", static_cast<double>(l.diagnostics.size()));
  push(m, "nodes", static_cast<double>(l.nodes));
  return m;
}

Metrics flatten(const core::CircuitProfile& p) {
  Metrics m;
  push(m, "num_inputs", p.num_inputs);
  push(m, "num_outputs", p.num_outputs);
  push(m, "size_s0", p.size_s0);
  push(m, "depth_d0", p.depth_d0);
  push(m, "avg_fanin_k", p.avg_fanin_k);
  push(m, "max_fanin", p.max_fanin);
  push(m, "avg_activity_sw0", p.avg_activity_sw0);
  push(m, "sensitivity_s", p.sensitivity_s);
  push(m, "sensitivity_exact", p.sensitivity_exact ? 1.0 : 0.0);
  return m;
}

// ---- canonical spec ------------------------------------------------------
//
// One writer per option struct; every value-relevant field appears, in a
// fixed order, so the string is a complete value identity for the request's
// options. Doubles go out as hexfloat (exact round trip), bools as 0/1.

class SpecWriter {
 public:
  SpecWriter(const char* kind) { out_ << kind; }

  SpecWriter& field(const char* name, double value) {
    out_ << ' ' << name << '=' << std::hexfloat << value << std::defaultfloat;
    return *this;
  }
  SpecWriter& field(const char* name, bool value) {
    out_ << ' ' << name << '=' << (value ? 1 : 0);
    return *this;
  }
  template <typename Int>
  SpecWriter& field(const char* name, Int value) {
    out_ << ' ' << name << '=' << value;
    return *this;
  }
  SpecWriter& text(const char* name, const std::string& value) {
    // Length prefix keeps arbitrary text (circuit names) unambiguous.
    out_ << ' ' << name << '=' << value.size() << ':' << value;
    return *this;
  }

  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

SpecWriter& write_profile_options(SpecWriter& w,
                                  const core::ProfileOptions& p) {
  return w.field("activity_pairs", p.activity_pairs)
      .field("prefer_exact_activity", p.prefer_exact_activity)
      .field("exact_activity_max_inputs", p.exact_activity_max_inputs)
      .field("sensitivity_exact_max_inputs", p.sensitivity_exact_max_inputs)
      .field("sensitivity_sample_words", p.sensitivity_sample_words)
      .field("profile_seed", p.seed);
}

// options.lanes is deliberately absent: lane width is execution policy
// (results are normalized to be width-independent), so requests differing
// only in lanes share one cache entry. drop and sample ARE value-relevant
// (sim_passes and the simulated set change).
SpecWriter& write_campaign_options(SpecWriter& w,
                                   const fault::CampaignOptions& c) {
  return w.field("patterns", c.patterns)
      .field("exhaustive", c.exhaustive)
      .field("seed", c.seed)
      .field("shard_patterns", c.shard_patterns)
      .field("bundle_width", c.bundle_width)
      .field("collapse", c.collapse)
      .field("drop", c.drop)
      .field("sample", c.sample)
      .field("prune", c.prune_untestable);
}

void write_spec(SpecWriter& w, const ReliabilityRequest& r) {
  w.field("eps", r.epsilon)
      .field("trials", r.options.trials)
      .field("seed", r.options.seed)
      .field("p1", r.options.input_one_probability)
      .field("shard_passes", r.options.shard_passes);
}

void write_spec(SpecWriter& w, const WorstCaseRequest& r) {
  w.field("eps", r.epsilon)
      .field("num_inputs", r.options.num_inputs)
      .field("trials_per_input", r.options.trials_per_input)
      .field("seed", r.options.seed);
}

void write_spec(SpecWriter& w, const ActivityRequest& r) {
  w.field("sample_pairs", r.options.sample_pairs)
      .field("seed", r.options.seed)
      .field("p1", r.options.input_one_probability)
      .field("shard_pairs", r.options.shard_pairs);
}

void write_spec(SpecWriter& w, const SensitivityRequest& r) {
  w.field("max_exact_inputs", r.options.max_exact_inputs)
      .field("sample_words", r.options.sample_words)
      .field("seed", r.options.seed)
      .field("shard_words", r.options.shard_words);
}

void write_spec(SpecWriter& w, const EnergyBoundRequest& r) {
  w.field("eps", r.epsilon)
      .field("delta", r.delta)
      .field("leakage_fraction", r.energy.leakage_fraction)
      .field("couple_leakage_to_delay", r.energy.couple_leakage_to_delay);
  write_profile_options(w, r.profile);
  if (r.profile_override.has_value()) {
    const core::CircuitProfile& p = *r.profile_override;
    w.text("override_name", p.name)
        .field("override_inputs", p.num_inputs)
        .field("override_outputs", p.num_outputs)
        .field("override_s0", p.size_s0)
        .field("override_d0", p.depth_d0)
        .field("override_k", p.avg_fanin_k)
        .field("override_max_fanin", p.max_fanin)
        .field("override_sw0", p.avg_activity_sw0)
        .field("override_s", p.sensitivity_s)
        .field("override_exact", p.sensitivity_exact);
  }
}

void write_spec(SpecWriter& w, const ProfileRequest& r) {
  write_profile_options(w, r.options);
}

void write_spec(SpecWriter& w, const FaultCampaignRequest& r) {
  write_campaign_options(w, r.options);
}

void write_spec(SpecWriter& w, const LintRequest& r) {
  w.field("exhaustive_cap", r.options.exhaustive_cap)
      .field("allow_voter_replicas", r.options.allow_voter_replicas);
}

void write_spec(SpecWriter& w, const CecRequest& r) {
  // Both circuit fingerprints are part of the serve cache key (the second
  // circuit is the request's golden handle); the spec covers the knobs.
  w.field("seed", r.options.seed)
      .field("signature_words", r.options.signature_words)
      .field("bdd_node_limit", r.options.bdd_node_limit);
}

void write_spec(SpecWriter& w, const HardenRequest& r) {
  // The campaign's lanes knob is excluded exactly as in the fault-campaign
  // spec (execution policy, results are lane-width independent); everything
  // else — sweep restriction, voter style, grading campaign, CEC knobs, and
  // the energy operating point — is value-relevant.
  const harden::SweepOptions& o = r.options;
  w.text("style",
         o.style.has_value() ? std::string(harden::to_string(*o.style))
                             : std::string("all"))
      .text("granularity",
            o.granularity.has_value()
                ? std::string(harden::to_string(*o.granularity))
                : std::string("all"))
      .field("top_k", o.top_k)
      .field("voter", static_cast<int>(o.voter))
      .field("eps", o.epsilon)
      .field("delta", o.delta)
      .field("leakage_fraction", o.leakage_fraction);
  write_campaign_options(w, o.campaign)
      .field("cec_seed", o.cec.seed)
      .field("cec_signature_words", o.cec.signature_words)
      .field("cec_bdd_node_limit", o.cec.bdd_node_limit);
}

// ---- manifest keys -------------------------------------------------------

double parse_double_value(std::string_view key, const std::string& value) {
  double parsed = 0.0;
  if (!util::parse_double(value, parsed)) {
    throw std::invalid_argument("non-numeric value '" + value + "' for key '" +
                                std::string(key) + "'");
  }
  return parsed;
}

std::uint64_t parse_count_value(std::string_view key,
                                const std::string& value) {
  std::uint64_t parsed = 0;
  if (!util::parse_uint64(value, parsed)) {
    throw std::invalid_argument("value for key '" + std::string(key) +
                                "' must be a non-negative integer, got '" +
                                value + "'");
  }
  return parsed;
}

// A key reader stores its value in the settings; it throws
// std::invalid_argument for a value it cannot take (parse_manifest_line
// prefixes the line number).
using KeyReader = void (*)(ManifestSettings&, std::string_view key,
                           const std::string& value);

struct ManifestKey {
  std::string_view name;
  KeyReader read;
};

template <auto Field>
void read_text(ManifestSettings& s, std::string_view,
               const std::string& value) {
  s.*Field = value;
}

template <auto Field>
void read_double(ManifestSettings& s, std::string_view key,
                 const std::string& value) {
  s.*Field = parse_double_value(key, value);
}

template <auto Field>
void read_count(ManifestSettings& s, std::string_view key,
                const std::string& value) {
  s.*Field = parse_count_value(key, value);
}

template <auto Field>
void read_flag(ManifestSettings& s, std::string_view key,
               const std::string& value) {
  const std::uint64_t flag = parse_count_value(key, value);
  if (flag > 1) {
    throw std::invalid_argument(std::string(key) + " must be 0 or 1");
  }
  s.*Field = flag != 0;
}

void read_lanes(ManifestSettings& s, std::string_view key,
                const std::string& value) {
  s.lanes = fault::parse_lane_width(parse_count_value(key, value));
  if (!s.lanes) {
    throw std::invalid_argument("lanes must be 64, 128, 256, or 512");
  }
}

void read_style(ManifestSettings& s, std::string_view,
                const std::string& value) {
  s.style = harden::parse_style(value);
  if (!s.style) {
    throw std::invalid_argument("style must be tmr, dwc, or selective");
  }
}

void read_granularity(ManifestSettings& s, std::string_view,
                      const std::string& value) {
  s.granularity = harden::parse_granularity(value);
  if (!s.granularity) {
    throw std::invalid_argument("granularity must be gate, cone, or output");
  }
}

// The first kCommonKeys entries apply to every kind; the rest only to the
// kinds whose descriptor lists them.
constexpr std::size_t kCommonKeys = 6;
constexpr ManifestKey kManifestKeys[] = {
    {"golden", read_text<&ManifestSettings::golden>},
    {"eps", read_double<&ManifestSettings::epsilon>},
    {"delta", read_double<&ManifestSettings::delta>},
    {"leakage", read_double<&ManifestSettings::leakage>},
    {"budget", read_count<&ManifestSettings::budget>},
    {"seed", read_count<&ManifestSettings::seed>},
    {"mode", read_text<&ManifestSettings::mode>},
    {"drop", read_flag<&ManifestSettings::drop>},
    {"lanes", read_lanes},
    {"sample", read_count<&ManifestSettings::sample>},
    {"prune", read_flag<&ManifestSettings::prune>},
    {"style", read_style},
    {"granularity", read_granularity},
    {"top_k", read_count<&ManifestSettings::top_k>},
};
static_assert(std::size(kManifestKeys) <= 32, "ManifestSettings::present");

const ManifestKey* find_key(std::string_view name) noexcept {
  for (const ManifestKey& key : kManifestKeys) {
    if (key.name == name) return &key;
  }
  return nullptr;
}

// ---- per-kind key appliers -----------------------------------------------

template <typename Field, typename Value>
void set_if(Field& field, const std::optional<Value>& value) {
  if (value.has_value()) field = static_cast<Field>(*value);
}

// The campaign keys, shared by fault-campaign and harden's grading campaign.
void apply_campaign_keys(const ManifestSettings& s,
                         fault::CampaignOptions& campaign) {
  set_if(campaign.patterns, s.budget);
  set_if(campaign.seed, s.seed);
  if (s.mode == "exhaustive") {
    campaign.exhaustive = true;
  } else if (!s.mode.empty() && s.mode != "random") {
    throw std::invalid_argument(
        "mode must be 'random' or 'exhaustive', got '" + s.mode + "'");
  }
  set_if(campaign.drop, s.drop);
  set_if(campaign.lanes, s.lanes);
  set_if(campaign.sample, s.sample);
  set_if(campaign.prune_untestable, s.prune);
}

RequestOptions reliability_options(const ManifestSettings& s) {
  ReliabilityRequest spec;
  spec.epsilon = s.epsilon;
  set_if(spec.options.trials, s.budget);
  set_if(spec.options.seed, s.seed);
  return spec;
}

RequestOptions worst_case_options(const ManifestSettings& s) {
  WorstCaseRequest spec;
  spec.epsilon = s.epsilon;
  set_if(spec.options.trials_per_input, s.budget);
  set_if(spec.options.seed, s.seed);
  return spec;
}

RequestOptions activity_options(const ManifestSettings& s) {
  ActivityRequest spec;
  set_if(spec.options.sample_pairs, s.budget);
  set_if(spec.options.seed, s.seed);
  return spec;
}

RequestOptions sensitivity_options(const ManifestSettings& s) {
  SensitivityRequest spec;
  set_if(spec.options.sample_words, s.budget);
  set_if(spec.options.seed, s.seed);
  return spec;
}

RequestOptions energy_bound_options(const ManifestSettings& s) {
  EnergyBoundRequest spec;
  spec.epsilon = s.epsilon;
  spec.delta = s.delta;
  set_if(spec.energy.leakage_fraction, s.leakage);
  set_if(spec.profile.activity_pairs, s.budget);
  set_if(spec.profile.seed, s.seed);
  return spec;
}

RequestOptions profile_request_options(const ManifestSettings& s) {
  ProfileRequest spec;
  set_if(spec.options.activity_pairs, s.budget);
  set_if(spec.options.seed, s.seed);
  return spec;
}

RequestOptions fault_campaign_options(const ManifestSettings& s) {
  FaultCampaignRequest spec;
  apply_campaign_keys(s, spec.options);
  return spec;
}

// Structural linting takes no tuning keys; eps/budget/seed are ignored the
// same way eps is for activity.
RequestOptions lint_options(const ManifestSettings&) { return LintRequest{}; }

// The comparison reference rides golden=, like every vs-reference kind.
RequestOptions cec_options(const ManifestSettings& s) {
  CecRequest spec;
  set_if(spec.options.seed, s.seed);
  set_if(spec.options.signature_words, s.budget);
  return spec;
}

RequestOptions harden_options(const ManifestSettings& s) {
  HardenRequest spec;
  spec.options.epsilon = s.epsilon;
  spec.options.delta = s.delta;
  set_if(spec.options.leakage_fraction, s.leakage);
  apply_campaign_keys(s, spec.options.campaign);
  set_if(spec.options.style, s.style);
  set_if(spec.options.granularity, s.granularity);
  set_if(spec.options.top_k, s.top_k);
  return spec;
}

// ---- kind descriptors ----------------------------------------------------

constexpr std::string_view kCampaignKeys[] = {"mode", "drop", "lanes",
                                              "sample", "prune"};
constexpr std::string_view kHardenKeys[] = {
    "mode", "drop", "lanes", "sample", "prune", "style", "granularity",
    "top_k"};

constexpr KindDescriptor kKinds[] = {
    {AnalysisKind::kReliability, "reliability", "delta_hat", {},
     reliability_options},
    {AnalysisKind::kWorstCase, "worst-case", "worst_delta_hat", {},
     worst_case_options},
    {AnalysisKind::kActivity, "activity", "avg_gate_toggle_rate", {},
     activity_options},
    {AnalysisKind::kSensitivity, "sensitivity", "sensitivity", {},
     sensitivity_options},
    {AnalysisKind::kEnergyBound, "energy-bound", "total_factor", {},
     energy_bound_options},
    {AnalysisKind::kProfile, "profile", "size_s0", {},
     profile_request_options},
    {AnalysisKind::kFaultCampaign, "fault-campaign", "coverage",
     kCampaignKeys, fault_campaign_options},
    {AnalysisKind::kLint, "lint", "errors", {}, lint_options},
    {AnalysisKind::kCec, "cec", "equivalent", {}, cec_options},
    {AnalysisKind::kHarden, "harden", "frontier_size", kHardenKeys,
     harden_options},
};
static_assert(std::size(kKinds) == std::variant_size_v<RequestOptions>);
static_assert([] {
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    if (static_cast<std::size_t>(kKinds[i].kind) != i) return false;
  }
  return true;
}());

bool lists_key(const KindDescriptor& kind, std::string_view key) noexcept {
  return std::find(kind.keys.begin(), kind.keys.end(), key) != kind.keys.end();
}

// Bit k set: kind k lists `key`.
unsigned listing_kinds(std::string_view key) noexcept {
  unsigned kinds = 0;
  for (const KindDescriptor& kind : kKinds) {
    if (lists_key(kind, key)) kinds |= 1u << static_cast<unsigned>(kind.kind);
  }
  return kinds;
}

// "a", "a and b", "a, b, and c".
std::string english_list(const std::vector<std::string>& items) {
  std::string text;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) text += items.size() == 2 ? " " : ", ";
    if (i > 0 && i + 1 == items.size()) text += "and ";
    text += items[i];
  }
  return text;
}

// Names `key` together with every other key the same kinds list, and those
// kinds.
std::invalid_argument misplaced_key(std::string_view key) {
  const unsigned kinds = listing_kinds(key);
  std::vector<std::string> keys;
  for (std::size_t i = kCommonKeys; i < std::size(kManifestKeys); ++i) {
    if (listing_kinds(kManifestKeys[i].name) == kinds) {
      keys.push_back("'" + std::string(kManifestKeys[i].name) + "'");
    }
  }
  std::vector<std::string> names;
  for (const KindDescriptor& kind : kKinds) {
    if (lists_key(kind, key)) names.push_back("kind=" + std::string(kind.name));
  }
  return std::invalid_argument("keys " + english_list(keys) +
                               " only apply to " + english_list(names));
}

}  // namespace

std::string canonical_spec(const RequestOptions& options) {
  SpecWriter w(to_string(static_cast<AnalysisKind>(options.index())));
  std::visit([&w](const auto& spec) { write_spec(w, spec); }, options);
  return w.str();
}

const KindDescriptor& descriptor(AnalysisKind kind) noexcept {
  return kKinds[static_cast<std::size_t>(kind)];
}

const char* to_string(AnalysisKind kind) noexcept {
  return descriptor(kind).name;
}

std::optional<AnalysisKind> parse_analysis_kind(
    std::string_view name) noexcept {
  const auto same = [](char given, char canonical) {
    return given == canonical || (given == '_' && canonical == '-');
  };
  for (const KindDescriptor& kind : kKinds) {
    const std::string_view canonical = kind.name;
    if (std::equal(name.begin(), name.end(), canonical.begin(),
                   canonical.end(), same)) {
      return kind.kind;
    }
  }
  return std::nullopt;
}

const core::ProfileOptions* profile_options(
    const RequestOptions& options) noexcept {
  if (const auto* bound = std::get_if<EnergyBoundRequest>(&options)) {
    return bound->profile_override.has_value() ? nullptr : &bound->profile;
  }
  if (const auto* profile = std::get_if<ProfileRequest>(&options)) {
    return &profile->options;
  }
  return nullptr;
}

bool is_manifest_key(std::string_view key) noexcept {
  return find_key(key) != nullptr;
}

std::optional<ManifestLine> parse_manifest_line(const std::string& text,
                                                std::size_t line_number) {
  std::istringstream tokens(text);
  ManifestLine line;
  if (!(tokens >> line.name) || line.name.front() == '#') return std::nullopt;
  line.number = line_number;

  const auto fail = [&](const std::string& message) {
    return std::invalid_argument("manifest line " +
                                 std::to_string(line_number) + ": " + message);
  };
  std::optional<AnalysisKind> kind;
  std::string token;
  while (tokens >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
      throw fail("expected key=value, got '" + token + "'");
    }
    const std::string_view key = std::string_view(token).substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "kind") {
      kind = parse_analysis_kind(value);
      if (!kind.has_value()) throw fail("unknown kind '" + value + "'");
    } else if (key == "circuit") {
      line.circuit = value;
    } else if (const ManifestKey* entry = find_key(key)) {
      try {
        entry->read(line.settings, key, value);
      } catch (const std::invalid_argument& e) {
        throw fail(e.what());
      }
      line.settings.present |= 1u << (entry - kManifestKeys);
    } else {
      throw fail("unknown key '" + std::string(key) + "'");
    }
  }
  if (!kind.has_value()) throw fail("missing kind=");
  if (line.circuit.empty()) throw fail("missing circuit=");
  line.kind = *kind;
  return line;
}

RequestOptions request_options(const ManifestLine& line) {
  const KindDescriptor& kind = descriptor(line.kind);
  try {
    for (std::size_t i = kCommonKeys; i < std::size(kManifestKeys); ++i) {
      if ((line.settings.present >> i & 1u) != 0 &&
          !lists_key(kind, kManifestKeys[i].name)) {
        throw misplaced_key(kManifestKeys[i].name);
      }
    }
    return kind.apply(line.settings);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(
        "manifest line " + std::to_string(line.number) + ": " + e.what());
  }
}

std::optional<double> AnalysisResult::metric(std::string_view name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return std::nullopt;
}

std::vector<std::pair<std::string, double>> flatten_metrics(
    const ResultPayload& payload) {
  return std::visit(
      [](const auto& value) -> Metrics {
        if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                     std::monostate>) {
          return {};
        } else {
          return flatten(value);
        }
      },
      payload);
}

void set_payload(AnalysisResult& result, ResultPayload payload) {
  result.metrics = flatten_metrics(payload);
  if (const auto* p = std::get_if<core::CircuitProfile>(&payload)) {
    result.profile = *p;
  }
  result.payload = std::move(payload);
}

AnalysisResult make_result(std::string name, ResultPayload payload) {
  AnalysisResult result;
  result.name = std::move(name);
  // Payload alternatives follow AnalysisKind shifted by the monostate slot.
  result.kind = static_cast<AnalysisKind>(payload.index() - 1);
  result.ok = true;
  set_payload(result, std::move(payload));
  return result;
}

}  // namespace enb::analysis
