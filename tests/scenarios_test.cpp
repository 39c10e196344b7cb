// Scenario-diversity tests (ctest -L scenarios): the attention / depthwise /
// reduction templates, the datacenter + edge Blueprint rows, the Bolt-style
// tensor-core template option and its hardware gate, template-kind
// round-tripping, fingerprint/shard-key distinctness, and the GPU database
// duplicate/near-miss guards.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "gpusim/perf_model.hpp"
#include "gpusim/resource_model.hpp"
#include "hwspec/database.hpp"
#include "searchspace/features.hpp"
#include "searchspace/models.hpp"
#include "service/shard_ring.hpp"
#include "tuning/result_cache.hpp"

namespace glimpse {
namespace {

using searchspace::AttentionShape;
using searchspace::Config;
using searchspace::DepthwiseShape;
using searchspace::ReductionShape;
using searchspace::Task;
using searchspace::TemplateKind;

Task attention_task() {
  return Task("scenario.attention", AttentionShape{1, 12, 128, 64});
}
Task depthwise_task() {
  return Task("scenario.depthwise", DepthwiseShape{1, 128, 56, 56, 3, 3, 1, 1});
}
Task reduction_task() { return Task("scenario.reduce", ReductionShape{256, 196}); }

const hwspec::GpuSpec& gpu(const char* name) {
  return hwspec::find_gpu_or_throw(name);
}

// ---------------------------------------------------------------------------
// Satellite 1: to_string/parse round-trip over every kind.

TEST(TemplateKindTest, ToStringParseRoundTripsEveryKind) {
  std::set<std::string> names;
  for (TemplateKind k : searchspace::kAllTemplateKinds) {
    const char* name = to_string(k);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), std::size(searchspace::kAllTemplateKinds));
}

TEST(TemplateKindTest, InvalidEnumValueThrowsInsteadOfGuessing) {
  EXPECT_THROW(to_string(static_cast<TemplateKind>(999)), std::logic_error);
}

// ---------------------------------------------------------------------------
// New template spaces and features.

TEST(ScenarioSpacesTest, KnobCountsMatchTemplates) {
  EXPECT_EQ(attention_task().space().num_knobs(), 7u);   // 3 splits + k + 3 opts
  EXPECT_EQ(depthwise_task().space().num_knobs(), 7u);   // 5 splits + 2 opts
  EXPECT_EQ(reduction_task().space().num_knobs(), 4u);   // 2 splits + 2 opts
  EXPECT_TRUE(attention_task().space().has_knob(searchspace::kTensorCoreKnob));
  EXPECT_FALSE(depthwise_task().space().has_knob(searchspace::kTensorCoreKnob));
  EXPECT_FALSE(reduction_task().space().has_knob(searchspace::kTensorCoreKnob));
}

TEST(ScenarioSpacesTest, LayerFeaturesOneHotNewKinds) {
  for (const Task& t : {attention_task(), depthwise_task(), reduction_task()}) {
    auto f = t.layer_features();
    ASSERT_EQ(f.size(), Task::layer_feature_dim());
    for (TemplateKind k : searchspace::kAllTemplateKinds)
      EXPECT_EQ(f[static_cast<std::size_t>(k)], k == t.kind() ? 1.0 : 0.0)
          << t.name() << " slot " << to_string(k);
  }
}

TEST(ScenarioSpacesTest, FlopsArePositiveAndShapeConsistent) {
  EXPECT_GT(attention_task().flops(), 0.0);
  EXPECT_GT(depthwise_task().flops(), 0.0);
  // Reduction: one add per element.
  EXPECT_DOUBLE_EQ(reduction_task().flops(), 256.0 * 196.0);
  // Depthwise: 2 * N * C * OH * OW * KH * KW.
  DepthwiseShape dw{1, 128, 56, 56, 3, 3, 1, 1};
  EXPECT_DOUBLE_EQ(depthwise_task().flops(),
                   2.0 * 128 * dw.oh() * dw.ow() * 3 * 3);
}

TEST(ScenarioSpacesTest, DerivedFeaturesExposeTensorCoreFlag) {
  Task t = attention_task();
  Rng rng(7);
  std::size_t tc = t.space().knob_index(searchspace::kTensorCoreKnob);
  bool saw_on = false, saw_off = false;
  for (int i = 0; i < 64; ++i) {
    Config c = t.space().random_config(rng);
    auto d = searchspace::derive(t, c);
    bool on = t.space().option_of(c, tc)[0] == 1;
    EXPECT_EQ(d.use_tensor_core, on);
    auto feats = searchspace::derived_config_features(t, c);
    ASSERT_EQ(feats.size(), searchspace::kDerivedFeatureDim);
    EXPECT_EQ(feats.back(), on ? 1.0 : 0.0);
    saw_on |= on;
    saw_off |= !on;
  }
  EXPECT_TRUE(saw_on && saw_off);
}

// ---------------------------------------------------------------------------
// Tensor-core gate and satellite 2: edge-Blueprint guards (no NaN, ever).

TEST(TensorCoreGateTest, TcConfigsInfeasibleOnSiliconWithoutTensorCores) {
  Task t = attention_task();
  Rng rng(11);
  std::size_t tc = t.space().knob_index(searchspace::kTensorCoreKnob);
  for (const char* name : {"Titan Xp", "GTX 1660 Ti", "Jetson Nano"}) {
    const auto& hw = gpu(name);
    ASSERT_EQ(hw.tensor_cores, 0) << name;
    for (int i = 0; i < 32; ++i) {
      Config c = t.space().random_config(rng);
      c[tc] = 1;  // categorical {0,1}: option 1 selects the tensor path
      auto e = gpusim::estimate(t, c, hw);
      EXPECT_FALSE(e.valid) << name;
      EXPECT_EQ(e.reason, gpusim::InvalidReason::kTensorCoreUnavailable) << name;
      EXPECT_FALSE(std::isnan(e.latency_s)) << name;
      EXPECT_FALSE(std::isnan(e.gflops)) << name;
    }
  }
}

TEST(TensorCoreGateTest, TcPathFeasibleAndCompetitiveOnTensorCoreSilicon) {
  Task t = attention_task();
  Rng rng(13);
  std::size_t tc = t.space().knob_index(searchspace::kTensorCoreKnob);
  for (const char* name : {"A100 PCIe", "H100 PCIe", "RTX 2080 Ti"}) {
    const auto& hw = gpu(name);
    ASSERT_GT(hw.tensor_cores, 0) << name;
    double best_tc = 0.0, best_fp32 = 0.0;
    for (int i = 0; i < 400; ++i) {
      Config c = t.space().random_config(rng);
      c[tc] = 0;
      auto off = gpusim::estimate(t, c, hw);
      if (off.valid) best_fp32 = std::max(best_fp32, off.gflops);
      c[tc] = 1;
      auto on = gpusim::estimate(t, c, hw);
      if (on.valid) best_tc = std::max(best_tc, on.gflops);
    }
    // The fast path must actually be reachable, and on big tensor-core
    // silicon it is what a tuner should learn to prefer.
    EXPECT_GT(best_tc, 0.0) << name;
    EXPECT_GT(best_fp32, 0.0) << name;
    EXPECT_GT(best_tc, best_fp32) << name;
  }
}

TEST(EdgeGuardTest, EveryKindIsFiniteOrCleanlyInvalidOnJetsonNano) {
  const auto& edge = gpu("Jetson Nano");
  ASSERT_EQ(edge.num_sms, 1);
  Rng rng(17);
  for (const Task& t : {attention_task(), depthwise_task(), reduction_task()}) {
    int valid = 0;
    for (int i = 0; i < 300; ++i) {
      Config c = t.space().random_config(rng);
      auto e = gpusim::estimate(t, c, edge);
      if (e.valid) {
        ++valid;
        EXPECT_TRUE(std::isfinite(e.latency_s)) << t.name();
        EXPECT_GT(e.latency_s, 0.0) << t.name();
        EXPECT_TRUE(std::isfinite(e.gflops)) << t.name();
      } else {
        EXPECT_NE(e.reason, gpusim::InvalidReason::kNone) << t.name();
        EXPECT_FALSE(std::isnan(e.latency_s)) << t.name();
      }
    }
    // The edge part must not reject the whole space: tuning stays possible.
    EXPECT_GT(valid, 0) << t.name();
  }
}

TEST(EdgeGuardTest, OversizedBlocksFailLaunchNotDivideByZero) {
  // A block whose shared-memory footprint exceeds the edge part's per-SM
  // budget fits zero blocks per SM: kLaunchFailed, with finite fields.
  searchspace::DerivedConfig d;
  d.threads_per_block = 256;
  d.num_blocks = 64;
  d.shared_bytes = 63.0 * 1024.0;  // > 48 KB block cap? no — vs 64 KB SM
  const auto& edge = gpu("Jetson Nano");
  // Below the per-block cap is not enough: per-SM must also fit.
  d.shared_bytes = 47.0 * 1024.0;
  auto u = gpusim::check_resources(d, edge, d.num_blocks);
  if (u.valid) {
    EXPECT_GE(u.blocks_per_sm, 1);
    EXPECT_TRUE(std::isfinite(u.occupancy));
  } else {
    EXPECT_NE(u.reason, gpusim::InvalidReason::kNone);
  }
  // Degenerate grid: zero blocks is a launch failure, not a NaN.
  d.num_blocks = 0;
  u = gpusim::check_resources(d, edge, 0);
  EXPECT_FALSE(u.valid);
  EXPECT_EQ(u.reason, gpusim::InvalidReason::kLaunchFailed);
  EXPECT_FALSE(std::isnan(u.occupancy));
  EXPECT_FALSE(std::isnan(u.waves));
  EXPECT_FALSE(std::isnan(u.tail_utilization));
}

// ---------------------------------------------------------------------------
// Satellite 3: fingerprints and shard keys stay distinct across the new axes.

TEST(DistinctnessTest, TaskFingerprintsDifferAcrossKinds) {
  // Same name on purpose: the kind itself must separate the fingerprints.
  std::vector<Task> tasks;
  tasks.emplace_back("fp.same", AttentionShape{1, 2, 64, 32});
  tasks.emplace_back("fp.same", DepthwiseShape{1, 8, 16, 16, 3, 3, 1, 1});
  tasks.emplace_back("fp.same", ReductionShape{64, 64});
  tasks.emplace_back("fp.same", searchspace::DenseShape{1, 64, 64});
  std::set<std::uint64_t> fps;
  for (const Task& t : tasks)
    EXPECT_TRUE(fps.insert(tuning::task_fingerprint(t)).second) << t.name();
}

TEST(DistinctnessTest, HardwareFingerprintSeesTensorCoreColumns) {
  const auto& a100 = gpu("A100 PCIe");
  hwspec::GpuSpec stripped = a100;
  stripped.tensor_cores = 0;
  stripped.tensor_fp16_gflops = 0.0;
  EXPECT_NE(tuning::hardware_fingerprint(a100),
            tuning::hardware_fingerprint(stripped));
}

TEST(DistinctnessTest, NewBlueprintsFingerprintDistinctly) {
  std::set<std::uint64_t> fps;
  for (const char* name : {"A100 PCIe", "H100 PCIe", "Jetson Nano", "Titan Xp",
                           "RTX 2080 Ti", "RTX 3090"})
    EXPECT_TRUE(fps.insert(tuning::hardware_fingerprint(gpu(name))).second) << name;
}

TEST(DistinctnessTest, ShardKeysSeparateScenarioTasksAndBlueprints) {
  service::JobSpec job;
  job.model = "transformer";
  job.gpu = "A100 PCIe";
  std::set<std::uint64_t> keys;
  // Distinct task indices (attention vs dense vs reduction tasks) and
  // distinct new Blueprints must all land on distinct ring keys.
  for (std::uint64_t i = 0; i < 5; ++i) {
    job.task_index = i;
    EXPECT_TRUE(keys.insert(service::shard_key(job)).second) << i;
  }
  job.task_index = 0;
  for (const char* g : {"H100 PCIe", "Jetson Nano", "Titan Xp"}) {
    job.gpu = g;
    EXPECT_TRUE(keys.insert(service::shard_key(job)).second) << g;
  }
  // Seed and tuner are excluded from placement on purpose.
  service::JobSpec again;
  again.model = "transformer";
  again.gpu = "Titan Xp";
  again.task_index = 0;
  again.seed = 999;
  again.tuner = "chameleon";
  EXPECT_EQ(service::shard_key(again), service::shard_key(job));
}

// ---------------------------------------------------------------------------
// Scenario models and task extraction.

TEST(ScenarioModelsTest, TransformerBlockExtractsExpectedTasks) {
  searchspace::TaskSet ts(searchspace::transformer_block());
  EXPECT_EQ(ts.count_kind(TemplateKind::kAttention), 1u);
  EXPECT_EQ(ts.count_kind(TemplateKind::kDense), 3u);
  EXPECT_EQ(ts.count_kind(TemplateKind::kReduction), 1u);
  EXPECT_EQ(ts.count_kind(TemplateKind::kConv2d), 0u);
  EXPECT_EQ(ts.num_tasks(), 5u);
  std::vector<double> best(ts.num_tasks(), 1e-3);
  EXPECT_TRUE(std::isfinite(ts.end_to_end_latency(best)));
}

TEST(ScenarioModelsTest, MobileNetEdgeExtractsExpectedTasks) {
  searchspace::TaskSet ts(searchspace::mobilenet_edge());
  EXPECT_EQ(ts.count_kind(TemplateKind::kConv2d), 3u);
  EXPECT_EQ(ts.count_kind(TemplateKind::kConv2dWinograd), 0u);  // all 1x1
  EXPECT_EQ(ts.count_kind(TemplateKind::kDepthwiseConv2d), 3u);
  EXPECT_EQ(ts.count_kind(TemplateKind::kReduction), 1u);
  EXPECT_EQ(ts.count_kind(TemplateKind::kDense), 1u);
}

TEST(ScenarioModelsTest, TaskNamesUniqueAcrossScenarioModels) {
  std::set<std::string> names;
  for (const auto& m : searchspace::scenario_models()) {
    searchspace::TaskSet ts(m);
    for (const auto& t : ts.tasks())
      EXPECT_TRUE(names.insert(t.name()).second) << t.name();
  }
}

TEST(ScenarioModelsTest, PaperModelsUnchangedByScenarioVectors) {
  // The paper's Table 1 extraction must not see the new workload vectors.
  searchspace::TaskSet alex(searchspace::alexnet());
  EXPECT_EQ(alex.num_tasks(), 12u);
  searchspace::TaskSet resnet(searchspace::resnet18());
  EXPECT_EQ(resnet.num_tasks(), 17u);
  searchspace::TaskSet vgg(searchspace::vgg16());
  EXPECT_EQ(vgg.num_tasks(), 21u);
}

// ---------------------------------------------------------------------------
// Satellite 6: hwspec database guards.

TEST(DatabaseGuardTest, NoDuplicateNamesAndNewRowsPresent) {
  std::set<std::string> names;
  for (const auto& g : hwspec::gpu_database())
    EXPECT_TRUE(names.insert(g.name).second) << g.name;
  for (const char* name : {"A100 PCIe", "H100 PCIe", "Jetson Nano"})
    EXPECT_NE(hwspec::find_gpu(name), nullptr) << name;
}

TEST(DatabaseGuardTest, DatacenterRowsCarryTensorCores) {
  EXPECT_GT(gpu("A100 PCIe").tensor_cores, 0);
  EXPECT_GT(gpu("A100 PCIe").tensor_fp16_gflops, 0.0);
  EXPECT_GT(gpu("H100 PCIe").tensor_fp16_gflops,
            gpu("A100 PCIe").tensor_fp16_gflops);
  EXPECT_EQ(gpu("Jetson Nano").tensor_cores, 0);
  EXPECT_EQ(gpu("Titan Xp").tensor_cores, 0);  // pre-Volta
}

TEST(DatabaseGuardTest, NearMissLookupSuggestsCandidates) {
  auto hits = hwspec::suggest_gpus("A100");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0], "A100 PCIe");
  hits = hwspec::suggest_gpus("rtx2080ti");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0], "RTX 2080 Ti");
  // Nothing remotely close: no suggestions, plain error text.
  EXPECT_TRUE(hwspec::suggest_gpus("zzzzzzzzzzzz").empty());
  std::string msg = hwspec::unknown_gpu_message("H100");
  EXPECT_NE(msg.find("did you mean"), std::string::npos);
  EXPECT_NE(msg.find("H100 PCIe"), std::string::npos);
}

TEST(DatabaseGuardTest, FindGpuOrThrowThrowsWithSuggestions) {
  EXPECT_EQ(&hwspec::find_gpu_or_throw("Jetson Nano"), hwspec::find_gpu("Jetson Nano"));
  try {
    hwspec::find_gpu_or_throw("jetson nanno");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("Jetson Nano"), std::string::npos);
  }
}

}  // namespace
}  // namespace glimpse
