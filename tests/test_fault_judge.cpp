// Judge-style golden-digest harness (the as6325400 fault-simulation
// discipline): run one fixed random campaign per suite circuit, SHA-256 the
// `.ans` bytes, and compare against the checked-in table below. Any engine
// change that perturbs a single detection bit, pattern draw, net name, or
// format byte fails loudly with a digest diff.
//
// The campaign is pinned completely by (patterns, seed, shard_patterns,
// collapse) plus the determinism contract: shard streams make the bytes
// independent of thread count, and pass normalization makes them
// independent of lane width — both re-checked here explicitly.
//
// To re-pin after an *intentional* output change: run this binary, copy the
// "actual" digests from the failure messages, and update kJudgeTable in the
// same change that explains why the bytes moved.
// PR 8 extends the same discipline to the static reasoning engine: the
// `cec` JSON bytes for each scale-suite circuit against its TMR'd self are
// pinned below (kCecJudgeTable), and the pruned-universe `.ans` bytes are
// required to match kJudgeTable *unchanged* — the untestable-class prover
// may only skip faults that never detect, so pruning must not move a byte.
// The profile table (kProfileJudgeTable) pins the `kind=profile` JSON bytes
// of every suite circuit at default ProfileOptions: the (s, S0, sw0, k, d0)
// extraction every energy bound starts from, whichever route computes it.
// The noisy table (kNoisyJudgeTable) pins the ε-flip simulator's outputs —
// `kind=reliability` and `kind=worst-case` JSON and the noisy activity —
// so a change to the evaluation kernel cannot move one noise draw unseen.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.hpp"
#include "analysis/compiled_circuit.hpp"
#include "analysis/request.hpp"
#include "core/profile.hpp"
#include "exec/batch.hpp"
#include "fault/campaign.hpp"
#include "fault/untestable.hpp"
#include "ft/nmr.hpp"
#include "gen/suite.hpp"
#include "sim/activity.hpp"
#include "sim/noise.hpp"
#include "util/sha256.hpp"

namespace enb::fault {
namespace {

// One fixed campaign shape for every circuit: small enough that the whole
// table (standard + scale suites) grades in seconds, sharded so the
// cross-shard merge is always exercised.
CampaignOptions judge_options() {
  CampaignOptions options;
  options.patterns = 24;
  options.seed = 0xD1CE;
  options.shard_patterns = 8;
  return options;
}

std::string judge_ans(const std::string& name, const CampaignOptions& options,
                      exec::Parallelism how = {}) {
  const netlist::Circuit circuit = gen::find_benchmark(name).build();
  const FaultUniverse universe =
      FaultUniverse::build(circuit, options.collapse);
  const DetectionTable table =
      build_detection_table(circuit, circuit, universe, options, how);
  std::ostringstream out;
  write_ans(out, circuit, universe, table);
  return out.str();
}

struct JudgeEntry {
  const char* name;
  const char* sha256;
};

constexpr JudgeEntry kJudgeTable[] = {
    {"c17",
     "01b6262fe72b6a6092c26f2ae8342560857e424cfc62adb15ffcfda5fcc10bea"},
    {"parity8",
     "f14f0d9b3767e0be3b76b86e0ed4e91334c879a7bdde41ebd56638bac6851660"},
    {"parity16",
     "85194b3f84d9de56af47417f21b82082f566037ee6b8cd2bcf9d704d39de71b2"},
    {"rca8",
     "c9a231e8fd44b8772c45339e94be3bf9c6608685496f6fad692085ba5759faad"},
    {"rca16",
     "99426f7c9834274ffd8715bc698915c994ad57fb2553c129450074dc8abca724"},
    {"rca32",
     "a2399ad21c9ba983d25ec6ffc8c43748d212411073fabb2ebb26f1481868533f"},
    {"cla16",
     "95402ecbb41b3e954fce7d636cf4e5ee1a7f861fb062be921a71d797bb40b3d7"},
    {"csel16",
     "e3f28bff097a346df8fde1d979a089bc66c5e4e28e4396a3160adb7d96c4be54"},
    {"mult4",
     "d1123fe29fa94645eeadb24f54738294b5b80afa3ed0cc62902d8e048f81a9f9"},
    {"mult8",
     "c81eb91b48da83a0c8611228294b1e1fa3f8678f902fef553494c2bd9c59cbcb"},
    {"cmp16",
     "fdf4831e8fa65fb04db4e5908f29d52106592cfce9bf69f5d8f2a8c37243ec84"},
    {"alu8",
     "b5f0717221efe10bd07b3a6c2d3584264c7073d10075bda88575589772f8d490"},
    {"c432",
     "6277b4491ff26288f5ed908da9f3569aa6e82e371015d9015959ef5834abec89"},
    {"rca256",
     "14ff1655465ac3cf25ef62d3ff4955b6c951432b66e816dc162ce14a1f139cb6"},
    {"csel64",
     "f54226e0f4a25a401338fabb6636baec365d6960cb3112d700a3d26448979f89"},
    {"mult16",
     "19b390344060887525a82114ebd995f7c3847ccfba070089a94c1a328d5a93dc"},
    {"alu64",
     "263c2afcde7854fe8dcd7af7ac43263b8e3065728a6e9c5c636b3948649ba7d7"},
};

// The table covers both suites completely — a circuit added to either
// without a pinned digest fails here, not silently.
TEST(FaultJudge, TableCoversStandardAndScaleSuites) {
  std::vector<std::string> expected;
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    expected.push_back(spec.name);
  }
  for (const gen::BenchmarkSpec& spec : gen::scale_suite()) {
    expected.push_back(spec.name);
  }
  std::vector<std::string> pinned;
  for (const JudgeEntry& entry : kJudgeTable) pinned.push_back(entry.name);
  EXPECT_EQ(pinned, expected);
}

TEST(FaultJudge, AnsDigestsMatchGoldenTable) {
  for (const JudgeEntry& entry : kJudgeTable) {
    EXPECT_EQ(util::sha256_hex(judge_ans(entry.name, judge_options())),
              entry.sha256)
        << entry.name;
  }
}

// The same bytes must come out of every lane width and any thread count —
// the digest pins the execution-policy independence of the whole row-level
// path, not just the aggregate counters.
TEST(FaultJudge, DigestIndependentOfLaneWidthAndThreads) {
  const std::string name = "rca32";
  const std::string baseline =
      util::sha256_hex(judge_ans(name, judge_options()));
  for (const LaneWidth width : all_lane_widths()) {
    CampaignOptions options = judge_options();
    options.lanes = width;
    EXPECT_EQ(util::sha256_hex(judge_ans(name, options)), baseline)
        << "lanes=" << to_string(width);
    EXPECT_EQ(util::sha256_hex(
                  judge_ans(name, options, exec::Parallelism::dedicated(8))),
              baseline)
        << "lanes=" << to_string(width) << " threads=8";
  }
}

// ---- static-reasoning digests (PR 8) --------------------------------------

// The `cec` row exactly as the batch JSON writer emits it: one scale-suite
// circuit against its own TMR transform, default CecOptions. Pins the whole
// verdict surface — stage attribution (structural vs BDD), output counts,
// and the JSON byte format the server streams.
std::string judge_cec_json(const std::string& name,
                           exec::Parallelism how = {}) {
  const netlist::Circuit base = gen::find_benchmark(name).build();
  analysis::AnalysisRequest request;
  request.name = name + "_vs_tmr";
  request.circuit = analysis::compile(gen::find_benchmark(name).build());
  request.golden = analysis::compile(ft::nmr_transform(base).circuit);
  request.options = analysis::CecRequest{};
  const analysis::AnalysisResult result = analysis::evaluate(request, how);
  std::ostringstream out;
  exec::write_result_json(out, result);
  return out.str();
}

constexpr JudgeEntry kCecJudgeTable[] = {
    {"c432",
     "109922a6c4937a5d3468f0059849d2d9f9230fa4a78bbc630ccede782350b33f"},
    {"rca256",
     "3cebec2f1520889131b327ef19cbd815f6cf854f4f4b17cc190d5cf296a85257"},
    {"csel64",
     "16bac951b00467a523370584c58e0038fcbecc19d41b640ee745dfd6864fb19f"},
    {"mult16",
     "43ff4bb4ba6588b4f0d74fef604d1af08d07069dc7fac4a5c563817d2783fe3e"},
    {"alu64",
     "756077ad04e7d98d4824e61c50f4d5b2945245d5d7dc64e6caa4c759baa4fbcd"},
};

TEST(FaultJudge, CecTableCoversScaleSuite) {
  std::vector<std::string> expected;
  for (const gen::BenchmarkSpec& spec : gen::scale_suite()) {
    expected.push_back(spec.name);
  }
  std::vector<std::string> pinned;
  for (const JudgeEntry& entry : kCecJudgeTable) pinned.push_back(entry.name);
  EXPECT_EQ(pinned, expected);
}

TEST(FaultJudge, CecJsonDigestsMatchGoldenTable) {
  for (const JudgeEntry& entry : kCecJudgeTable) {
    EXPECT_EQ(util::sha256_hex(judge_cec_json(entry.name)), entry.sha256)
        << entry.name << " actual bytes: " << judge_cec_json(entry.name);
  }
}

TEST(FaultJudge, CecJsonDigestIndependentOfThreads) {
  const std::string baseline = judge_cec_json("csel64");
  EXPECT_EQ(judge_cec_json("csel64", exec::Parallelism::serial()), baseline);
  EXPECT_EQ(judge_cec_json("csel64", exec::Parallelism::dedicated(8)),
            baseline);
}

// Pruned-universe `.ans` bytes against the *unpruned* golden table: the
// prover may only remove faults that never detect, so every row — including
// the rows of the pruned classes — must come out byte-identical.
std::string judge_pruned_ans(const std::string& name,
                             const CampaignOptions& options,
                             exec::Parallelism how = {}) {
  const netlist::Circuit circuit = gen::find_benchmark(name).build();
  const FaultUniverse universe = FaultUniverse::build(
      circuit, options.collapse, /*prune_untestable=*/true);
  const DetectionTable table =
      build_detection_table(circuit, circuit, universe, options, how);
  std::ostringstream out;
  write_ans(out, circuit, universe, table);
  return out.str();
}

TEST(FaultJudge, PrunedAnsBytesMatchUnprunedGoldenTable) {
  for (const gen::BenchmarkSpec& spec : gen::scale_suite()) {
    for (const JudgeEntry& entry : kJudgeTable) {
      if (spec.name != entry.name) continue;
      CampaignOptions options = judge_options();
      options.prune_untestable = true;
      EXPECT_EQ(util::sha256_hex(judge_pruned_ans(entry.name, options)),
                entry.sha256)
          << entry.name;
    }
  }
}

TEST(FaultJudge, PrunedAnsDigestIndependentOfLaneWidthAndThreads) {
  const std::string name = "csel64";
  CampaignOptions pruning = judge_options();
  pruning.prune_untestable = true;
  // Non-vacuity: the carry-select tree really has untestable classes.
  {
    const netlist::Circuit circuit = gen::find_benchmark(name).build();
    const FaultUniverse universe =
        FaultUniverse::build(circuit, pruning.collapse, true);
    EXPECT_GT(universe.num_untestable(), 0u);
  }
  const std::string baseline =
      util::sha256_hex(judge_pruned_ans(name, pruning));
  EXPECT_EQ(util::sha256_hex(judge_ans(name, judge_options())), baseline);
  for (const LaneWidth width : all_lane_widths()) {
    CampaignOptions options = pruning;
    options.lanes = width;
    EXPECT_EQ(util::sha256_hex(judge_pruned_ans(name, options)), baseline)
        << "lanes=" << to_string(width);
    EXPECT_EQ(util::sha256_hex(judge_pruned_ans(
                  name, options, exec::Parallelism::dedicated(8))),
              baseline)
        << "lanes=" << to_string(width) << " threads=8";
  }
}

// ---- profile-extraction digests -------------------------------------------

// The `kind=profile` row exactly as the batch JSON writer emits it, for one
// suite circuit as built (no mapping) at default ProfileOptions. Covers both
// activity routes (BDD up to 16 inputs, Monte-Carlo beyond) and both
// sensitivity routes (exhaustive up to 20 inputs, sampled beyond).
std::string profile_json(const analysis::AnalysisResult& result) {
  std::ostringstream out;
  exec::write_result_json(out, result);
  return out.str();
}

analysis::AnalysisRequest profile_request(const std::string& name) {
  analysis::AnalysisRequest request;
  request.name = name;
  request.circuit = analysis::compile(gen::find_benchmark(name).build());
  request.options = analysis::ProfileRequest{};
  return request;
}

std::string judge_profile_json(const std::string& name,
                               exec::Parallelism how = {}) {
  return profile_json(analysis::evaluate(profile_request(name), how));
}

constexpr JudgeEntry kProfileJudgeTable[] = {
    {"c17",
     "4a8053ce027781c751f207c7449609e8c4da81438d37886f0c58328117154ff4"},
    {"parity8",
     "bb869e7397963ae945a0ee05eeaf68cd53e098a237d40811e353e17f64409070"},
    {"parity16",
     "53a242c3a439c6da318a2acf7ce9125abf3ee26758d3235fdc780d8d7fbaea12"},
    {"rca8",
     "e81a484dcc524490508c50d5c10f3aad47bd92b7d6a0de5aca85fed96448aeb3"},
    {"rca16",
     "40ad9120e2d8c4cde79d1d820c06f36bd56226943d00f775d936bca40c775ca5"},
    {"rca32",
     "a7b74fafc7ee084f31b562d916ac67a60cea0952ebd4a9d81240f7354e21431c"},
    {"cla16",
     "f7f69a6fdf1ddf5f584903c071978750648bfa511aef6cc3b8f50cf06120c35a"},
    {"csel16",
     "9aa125fb740f926c9aae146c2beff65a9bcef00b485187f1771e64f262bb2206"},
    {"mult4",
     "54e01a7560bda95524329568084a7f63e92186b8249842f7fd2263ca50430ceb"},
    {"mult8",
     "4d6392ab98c8afb452b31d50c1963a76b06d2cad1fef16b882753f20eced3356"},
    {"cmp16",
     "1f2af288cd8c308bd59dd4e23f60e52ad0567c97863667ff980ed40dd6dd47c9"},
    {"alu8",
     "347b7b299c4f445220795e5bdb3144a777c8864cab2b38a825357a1ba2b27489"},
    {"c432",
     "53d4efdcaa75e01ac9c6f49ed46e8de0db0c2bf90530a9051f2f1ea9c8082a00"},
    {"rca256",
     "5542a7da5a8b24ba037e8c9c90bce22e247c4ce14768adde1be1754774e74fe6"},
    {"csel64",
     "886d83fcb0ac81c880117d86cd3a9fd16ac40d8db46f2d28136cc485c0f52924"},
    {"mult16",
     "b45b5f6ad9df838a6ff8d923ad7a075917f3e90b41ea18437db317d5ea1dbd4f"},
    {"alu64",
     "dcc8c8cf61951a179060c68c660e9298b2148401fc5690a5d2df9c71af9390e9"},
};

TEST(FaultJudge, ProfileTableCoversStandardAndScaleSuites) {
  std::vector<std::string> expected;
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    expected.push_back(spec.name);
  }
  for (const gen::BenchmarkSpec& spec : gen::scale_suite()) {
    expected.push_back(spec.name);
  }
  std::vector<std::string> pinned;
  for (const JudgeEntry& entry : kProfileJudgeTable) {
    pinned.push_back(entry.name);
  }
  EXPECT_EQ(pinned, expected);
}

TEST(FaultJudge, ProfileJsonDigestsMatchGoldenTable) {
  for (const JudgeEntry& entry : kProfileJudgeTable) {
    const std::string json = judge_profile_json(entry.name);
    EXPECT_EQ(util::sha256_hex(json), entry.sha256)
        << entry.name << " actual bytes: " << json;
  }
}

// The direct extraction and the batch give the same bytes serially, on the
// global pool, and on a dedicated pool.
TEST(FaultJudge, ProfileJsonIdenticalAcrossRoutesAndThreads) {
  const std::string name = "c432";
  const std::string baseline = judge_profile_json(name);
  for (const exec::Parallelism how :
       {exec::Parallelism::serial(), exec::Parallelism::global_pool(),
        exec::Parallelism::dedicated(3)}) {
    const analysis::AnalysisRequest request = profile_request(name);
    const core::CircuitProfile direct =
        core::extract_profile(request.circuit.circuit(), {}, how);
    EXPECT_EQ(profile_json(analysis::make_result(name, direct)), baseline)
        << "direct threads=" << how.threads;
    const std::vector<analysis::AnalysisResult> batched =
        exec::evaluate_requests({request}, how);
    ASSERT_EQ(batched.size(), 1u);
    EXPECT_EQ(profile_json(batched.front()), baseline)
        << "batch threads=" << how.threads;
  }
}

// ---- noisy-path digests ----------------------------------------------------

// The ε-flip simulator's outputs, pinned so that no engine change can move
// one RNG draw unnoticed: `kind=reliability` and `kind=worst-case` rows as
// the batch JSON writer emits them (each circuit against its own noise-free
// evaluation), and the noisy Monte-Carlo activity with every node's one
// probability and toggle rate in hexfloat. Budgets are small so both suites
// grade in seconds; shards are small so the cross-shard merge is exercised.
constexpr double kJudgeEpsilon = 0.02;

analysis::AnalysisRequest noisy_request(const std::string& name,
                                        analysis::RequestOptions options) {
  analysis::AnalysisRequest request;
  request.name = name;
  request.circuit = analysis::compile(gen::find_benchmark(name).build());
  request.options = std::move(options);
  return request;
}

std::string judge_reliability_json(const std::string& name,
                                   exec::Parallelism how = {}) {
  analysis::ReliabilityRequest spec;
  spec.epsilon = kJudgeEpsilon;
  spec.options.trials = 2048;
  spec.options.shard_passes = 8;
  return profile_json(
      analysis::evaluate(noisy_request(name, std::move(spec)), how));
}

std::string judge_worst_case_json(const std::string& name,
                                  exec::Parallelism how = {}) {
  analysis::WorstCaseRequest spec;
  spec.epsilon = kJudgeEpsilon;
  spec.options.num_inputs = 6;
  spec.options.trials_per_input = 256;
  return profile_json(
      analysis::evaluate(noisy_request(name, std::move(spec)), how));
}

std::string judge_noisy_activity(const std::string& name,
                                 exec::Parallelism how = {}) {
  const netlist::Circuit circuit = gen::find_benchmark(name).build();
  sim::ActivityOptions options;
  options.sample_pairs = 12;
  options.shard_pairs = 4;
  const sim::ActivityResult activity =
      sim::estimate_noisy_activity(circuit, kJudgeEpsilon, options, how);
  std::ostringstream out;
  out << profile_json(analysis::make_result(name, activity)) << std::hexfloat;
  for (std::size_t id = 0; id < activity.toggle_rate.size(); ++id) {
    out << activity.one_probability[id] << ' ' << activity.toggle_rate[id]
        << '\n';
  }
  return out.str();
}

struct NoisyJudgeEntry {
  const char* name;
  const char* reliability;
  const char* worst_case;
  const char* noisy_activity;
};

constexpr NoisyJudgeEntry kNoisyJudgeTable[] = {
    {"c17",
     "fcb9ea97db5169c3bfa91130fcdb3b89e255ed76fa232bba9af86050568d226b",
     "288f8a2f23c792974d10f40aa775f2516a98017b0ec22df850632c9829cfb103",
     "9a3dc20e3b2e834f9f8887ee9d58e7a7e462b0824693af16d37e11193dbaf3c7"},
    {"parity8",
     "e74599b6ac8e1b3aab628846e446254503cb5c4bc629d3de1897eb8783b5bd6c",
     "cc316fd94099d1b219f9a032b255b6ceb95460c20321453911fc61535061c1f4",
     "ecf95c5519511321073e0166ddd99e45a3f17531be365b1a9708e5944ec07533"},
    {"parity16",
     "e37a8e2f4d600dc23beb89a2b5df93aa611b7306b7ee9a707b7f5058bc02daa7",
     "97a2e83661a54c811d917bfb35855f352e583cfb8e964e08b7810908fb0f9aeb",
     "1468a23823377afb51348223a370b05ede385ae0edcbb1d671ef131dd3cb6363"},
    {"rca8",
     "1876ef0dce13eaaee53dcb4fcebc23d0120bc26502d59145b25ea189f3053c6a",
     "a8f7e89edf5368d55e5bb50b8f040a813739240e8edde3af1d11b987ac5cca05",
     "ed429f1c71047caa7b45e3009e2655749e1945ce580f869951dfa17991989d8e"},
    {"rca16",
     "be80308be052431d3186e0f734b6608ceb5736d0890a8fecf3c02a0ff8f61b70",
     "af0343223e47302b143d3d524ebea3018412d35acaa9ad518cd514c7e6d7c9b4",
     "01344ec7065c429aa8e84fe675627eb5d056d8e203ba9f08c547d9a7589ab178"},
    {"rca32",
     "cd4eae0180c32a9fe71ae3bd59656f532103934caf19b9bc7836135b910808ce",
     "5d06073932c67ae4417ff0c16aa77ee36d7426287c6a287a10f6017522f380b9",
     "1eb3da1e97e6a94d531219445be81a7d46be68eef3b6b550dc75da277cfc2cbf"},
    {"cla16",
     "d1260788f1c6d9b64d1c8d72d3bc9d4aee6929c1db80230dc11bc723963288fe",
     "5c58e8fde6e9a4d53c5dd7a72aa449ea24cafdeb1beafe74b370c93d020b17e8",
     "587d5f6dab0c0b50da19ec1901abfcf52a860db290da7c2fde86bb1e17f68754"},
    {"csel16",
     "2eec49b36a3c521c7fc375c6ea6b5038e967d4c6804dd3ad2e3057fe3a913f4f",
     "533f686d34291df60b8ede122e7575c7e192d800c78a6ee1ceb5372038ca4d2b",
     "ccc5cdf26f63f4092250ffe2832c28716746cf5249f74b58ba46b6e24b3b6bc5"},
    {"mult4",
     "95a7f9f97bbe82aa3267544367f9f9685dceb64eda2dfca87eea9f444c2be8d0",
     "de5144aa15bf9a8dd1b17041e6fa935f86d6f4d46288586d6f2ffe82e835b13a",
     "d973a33235238f9303e3863f01c66c995f026d6225d04ab44e7660fe0f27b590"},
    {"mult8",
     "c2810c50680d4ee00092cbfd1935e3018df83c0e6f225d62f20435ce5a72a9aa",
     "8aeae6315b5de84ef3e021b6df644d86c947f9c4d9e357c447d1fbdbd0731b46",
     "da766c770474749be32453987cf3067b39e7521dbde11087efe3c247c92b05d5"},
    {"cmp16",
     "72a91b9ac1ede66a41ec2895b5e8a996f3cde2bf389b17177a185a37688d0a50",
     "60606ab6524d632487fa43653d77b0ebb91736e590e448a289629efbd50ed8d0",
     "561cc85c8342ae012ddcb00b728057bd75150fd1461b4d147420478a80bb588d"},
    {"alu8",
     "c3444371aa667721bc2ad207cd6316fe8ed3cdede75b4864bfd815058b59e8e7",
     "179ea07f0de1c52da8cd02dfa43ee96c1617004464db0e27c7fb2f76c494c94b",
     "e6e831e1bb837c9e512979bc7b70f6d108dfa5e0ed5359c830cfb36179e36db7"},
    {"c432",
     "9057f22cece1c445efb0e8d08ec90811ae121dc1b3efad1d26a5c359e1111a36",
     "358e1aa2f6b180d545e0fd413abba7af11ba5d5ea8381983843d7befb0d76d0f",
     "0bd9aef2e125aa9a253b39164f6e6dc2b2c54b3d99de03f26128399d19e6193d"},
    {"rca256",
     "2107b82cbec7f3144a53d777296d2225ceae8ebbc89067396ff68deb01c3ce4b",
     "baba2d4ee4240e967f7a015abc9b967262bb2725d7a536288b453bd16ee0b08f",
     "d9bfca1d7270b598fbd500174a76922d50b3b6c884febd4f4f26688f06bccc1d"},
    {"csel64",
     "c0d2846518a201029de78770ccc7d8b29676748ba61f064eb9609750a92e4242",
     "9a6392c8b4046fb2f3375d0f5794253bc2dfd9cdcab678ede00899c370f71dae",
     "41e7864ce60c066d3cc92e849489ce493b7c3b93681a7a2561b3ab970f8468a7"},
    {"mult16",
     "0c39d807737963a750963a152f318a0763ecf7bd35aa850d2e93b5dbd3700a1c",
     "c70b41554f5189c2bbfaf1522294b28d04dac57836e655ff0868001c799bb44a",
     "ab84bd0d956bf45c1119125a405ab8b141067dee4f9b5f3bf61dd5195c1d6f9e"},
    {"alu64",
     "e80aa5946686de543c1def80a170baa03914e1c03f3edd1d2fc2401520c42d4e",
     "0f4155a15d093083793ce4f19bafbc07947785c22f25ff7f6a996361f069bb50",
     "b6537f8ab1a9f7fee5ca5af6631671ead7693ae465cf5022f2477800d51a850d"},
};

TEST(FaultJudge, NoisyTableCoversStandardAndScaleSuites) {
  std::vector<std::string> expected;
  for (const gen::BenchmarkSpec& spec : gen::standard_suite()) {
    expected.push_back(spec.name);
  }
  for (const gen::BenchmarkSpec& spec : gen::scale_suite()) {
    expected.push_back(spec.name);
  }
  std::vector<std::string> pinned;
  for (const NoisyJudgeEntry& entry : kNoisyJudgeTable) {
    pinned.push_back(entry.name);
  }
  EXPECT_EQ(pinned, expected);
}

TEST(FaultJudge, ReliabilityJsonDigestsMatchGoldenTable) {
  for (const NoisyJudgeEntry& entry : kNoisyJudgeTable) {
    const std::string json = judge_reliability_json(entry.name);
    EXPECT_EQ(util::sha256_hex(json), entry.reliability)
        << entry.name << " actual bytes: " << json;
  }
}

TEST(FaultJudge, WorstCaseJsonDigestsMatchGoldenTable) {
  for (const NoisyJudgeEntry& entry : kNoisyJudgeTable) {
    const std::string json = judge_worst_case_json(entry.name);
    EXPECT_EQ(util::sha256_hex(json), entry.worst_case)
        << entry.name << " actual bytes: " << json;
  }
}

TEST(FaultJudge, NoisyActivityDigestsMatchGoldenTable) {
  for (const NoisyJudgeEntry& entry : kNoisyJudgeTable) {
    EXPECT_EQ(util::sha256_hex(judge_noisy_activity(entry.name)),
              entry.noisy_activity)
        << entry.name;
  }
}

TEST(FaultJudge, NoisyDigestsIndependentOfThreads) {
  const std::string name = "c432";
  const std::string reliability = judge_reliability_json(name);
  const std::string worst_case = judge_worst_case_json(name);
  const std::string activity = judge_noisy_activity(name);
  for (const exec::Parallelism how :
       {exec::Parallelism::serial(), exec::Parallelism::dedicated(3)}) {
    EXPECT_EQ(judge_reliability_json(name, how), reliability)
        << "threads=" << how.threads;
    EXPECT_EQ(judge_worst_case_json(name, how), worst_case)
        << "threads=" << how.threads;
    EXPECT_EQ(judge_noisy_activity(name, how), activity)
        << "threads=" << how.threads;
  }
}


}  // namespace
}  // namespace enb::fault
