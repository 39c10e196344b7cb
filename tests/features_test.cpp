#include "common/logging.hpp"
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "searchspace/features.hpp"
#include "test_util.hpp"

namespace glimpse::searchspace {
namespace {

using glimpse::testing::small_conv_task;
using glimpse::testing::small_dense_task;
using glimpse::testing::small_winograd_task;

const Task& task_by_kind(TemplateKind k) {
  switch (k) {
    case TemplateKind::kConv2d: return small_conv_task();
    case TemplateKind::kConv2dWinograd: return small_winograd_task();
    case TemplateKind::kDense: return small_dense_task();
    case TemplateKind::kAttention: {
      static const Task t("test.attention", AttentionShape{1, 2, 32, 16});
      return t;
    }
    case TemplateKind::kDepthwiseConv2d: {
      static const Task t("test.depthwise", DepthwiseShape{1, 8, 16, 16, 3, 3, 1, 1});
      return t;
    }
    case TemplateKind::kReduction: {
      static const Task t("test.reduce", ReductionShape{32, 64});
      return t;
    }
  }
  throw std::logic_error("bad kind");
}

class FeatureDimTest : public ::testing::TestWithParam<TemplateKind> {};

TEST_P(FeatureDimTest, ConfigFeatureLengthMatchesDeclaredDim) {
  const Task& task = task_by_kind(GetParam());
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    Config c = task.space().random_config(rng);
    EXPECT_EQ(config_features(task, c).size(), config_feature_dim(task));
  }
}

TEST_P(FeatureDimTest, TransferFeatureLengthFixed) {
  const Task& task = task_by_kind(GetParam());
  Rng rng(2);
  Config c = task.space().random_config(rng);
  EXPECT_EQ(transfer_features(task, c).size(), transfer_feature_dim());
}

TEST_P(FeatureDimTest, DerivedQuantitiesArePositive) {
  const Task& task = task_by_kind(GetParam());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    DerivedConfig d = derive(task, task.space().random_config(rng));
    EXPECT_GE(d.threads_per_block, 1);
    EXPECT_GE(d.num_blocks, 1);
    EXPECT_GE(d.vthreads, 1);
    EXPECT_GE(d.work_per_thread, 1);
    EXPECT_GT(d.shared_bytes, 0.0);
    EXPECT_GT(d.regs_per_thread, 0.0);
    EXPECT_GT(d.global_bytes, 0.0);
    EXPECT_GE(d.reduce_steps, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTemplates, FeatureDimTest,
                         ::testing::ValuesIn(kAllTemplateKinds),
                         [](const auto& info) { return to_string(info.param); });

TEST(DeriveTest, ConvThreadGeometryMatchesSplits) {
  const Task& task = small_conv_task();  // 512ch 7x7 -> 512, 3x3
  const ConfigSpace& s = task.space();
  // Build a config by hand: pick options whose factors we know.
  Config c(s.num_knobs(), 0);
  auto pick = [&](const std::string& name, std::vector<int> want) {
    std::size_t k = s.knob_index(name);
    for (std::size_t o = 0; o < s.knob(k).num_options(); ++o) {
      auto opt = s.knob(k).option(o);
      if (std::equal(want.begin(), want.end(), opt.begin())) {
        c[k] = static_cast<std::uint32_t>(o);
        return;
      }
    }
    FAIL() << "option not found for " << name;
  };
  pick("tile_f", {4, 2, 16, 4});   // 512
  pick("tile_y", {1, 1, 7, 1});    // 7
  pick("tile_x", {1, 1, 1, 7});    // 7
  pick("tile_rc", {32, 16});       // 512
  pick("tile_ry", {1, 3});
  pick("tile_rx", {3, 1});

  DerivedConfig d = derive(task, c);
  EXPECT_EQ(d.threads_per_block, 16 * 7 * 1);
  EXPECT_EQ(d.num_blocks, 4 * 1 * 1);          // bf*by*bx*N
  EXPECT_EQ(d.vthreads, 2 * 1 * 1);
  EXPECT_EQ(d.work_per_thread, (4 * 1 * 7) * (2 * 1 * 1));
  EXPECT_EQ(d.inner_x, 7);
  EXPECT_EQ(d.thread_x, 1);
  EXPECT_EQ(d.reduce_steps, 32LL * 1 * 3);     // rco*ryo*rxo
}

TEST(DeriveTest, UnrollKnobsPropagate) {
  const Task& task = small_dense_task();
  const ConfigSpace& s = task.space();
  Rng rng(4);
  Config c = s.random_config(rng);
  c[s.knob_index("auto_unroll_max_step")] = 2;  // 1500
  c[s.knob_index("unroll_explicit")] = 1;
  DerivedConfig d = derive(task, c);
  EXPECT_EQ(d.unroll_step, 1500);
  EXPECT_TRUE(d.unroll_explicit);
}

TEST(DeriveTest, RejectsConfigOutsideSpace) {
  const Task& task = small_dense_task();
  Config bad = {999999, 0, 0, 0, 0};
  EXPECT_THROW(derive(task, bad), CheckError);
}

TEST(DeriveTest, BiggerInnerTileMoreRegisters) {
  const Task& task = small_conv_task();
  const ConfigSpace& s = task.space();
  Rng rng(5);
  Config a = s.random_config(rng);
  Config b = a;
  // Find tile_f options (1,1,1,512) vs (512,1,1,1): huge vs tiny inner part.
  std::size_t kf = s.knob_index("tile_f");
  for (std::size_t o = 0; o < s.knob(kf).num_options(); ++o) {
    auto opt = s.knob(kf).option(o);
    if (opt[3] == 512) a[kf] = static_cast<std::uint32_t>(o);
    if (opt[0] == 512) b[kf] = static_cast<std::uint32_t>(o);
  }
  EXPECT_GT(derive(task, a).regs_per_thread, derive(task, b).regs_per_thread);
}

TEST(FeatureTest, FeaturesDifferForDifferentConfigs) {
  const Task& task = small_conv_task();
  Rng rng(6);
  Config a = task.space().random_config(rng);
  Config b = task.space().random_config(rng);
  if (a == b) task.space().mutate(b, rng);
  EXPECT_NE(config_features(task, a), config_features(task, b));
}

TEST(FeatureTest, TransferFeaturesShareLayerPrefix) {
  const Task& task = small_conv_task();
  Rng rng(7);
  Config a = task.space().random_config(rng);
  Config b = task.space().random_config(rng);
  auto fa = transfer_features(task, a);
  auto fb = transfer_features(task, b);
  for (std::size_t i = 0; i < Task::layer_feature_dim(); ++i)
    EXPECT_DOUBLE_EQ(fa[i], fb[i]) << "layer prefix must not depend on config";
}

}  // namespace
}  // namespace glimpse::searchspace
