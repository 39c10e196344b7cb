#include "common/logging.hpp"
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "searchspace/features.hpp"
#include "searchspace/models.hpp"
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(FeatureTest, LogTableMatchesLibm) {
  // Every table entry, the last one (4095) and the first computed value
  // (4096), against libm on an argument the compiler cannot fold.
  for (long long n = 0; n <= kLog2TableSize; ++n) {
    volatile double arg = static_cast<double>(n);
    ASSERT_EQ(bits(log2_int(n)), bits(std::log2(arg))) << "n " << n;
  }
  EXPECT_EQ(bits(log2_int(1LL << 40)), bits(40.0));
}

// The featurizer with every log computed by libm: log2 of each split part,
// log2(v + 1) of each categorical value and of each derived quantity.
void reference_featurize(const Task& task, const Config& config, linalg::Vector& features,
                         linalg::Vector& derived) {
  auto log2p = [](double v) { return std::log2(v + 1.0); };
  const ConfigSpace& s = task.space();
  const DerivedConfig d = derive(task, config);
  features.clear();
  for (std::size_t i = 0; i < s.num_knobs(); ++i) {
    auto o = s.option_of(config, i);
    if (s.knob(i).kind() == Knob::Kind::kSplit) {
      for (int part : o) features.push_back(std::log2(static_cast<double>(part)));
    } else {
      features.push_back(log2p(o[0]));
    }
  }
  derived = {log2p(static_cast<double>(d.threads_per_block)),
             log2p(static_cast<double>(d.num_blocks)),
             log2p(static_cast<double>(d.vthreads)),
             log2p(static_cast<double>(d.work_per_thread)),
             log2p(d.shared_bytes),
             log2p(d.regs_per_thread),
             log2p(d.global_bytes),
             log2p(d.inner_x),
             log2p(d.thread_x),
             log2p(static_cast<double>(d.reduce_steps)),
             log2p(static_cast<double>(d.unrolled_body))};
  features.insert(features.end(), derived.begin(), derived.end());
  derived.push_back(d.unroll_step > 0 ? 1.0 : 0.0);
  derived.push_back(d.unroll_explicit ? 1.0 : 0.0);
  derived.push_back(d.use_tensor_core ? 1.0 : 0.0);
}

// Every option of every knob, on every task of the evaluation and scenario
// models, featurizes bit for bit as the all-libm reference does.
TEST(FeatureTest, TableFeaturizeMatchesLibmFeaturizeOnEveryKnobOption) {
  std::vector<Model> models = evaluation_models();
  for (Model& m : scenario_models()) models.push_back(std::move(m));
  std::size_t tasks = 0, configs = 0;
  linalg::Vector want_f, want_d;
  for (const Model& model : models) {
    const TaskSet set(model);
    for (const Task& task : set.tasks()) {
      ++tasks;
      const ConfigSpace& s = task.space();
      Rng rng(tasks);
      const Config base = s.random_config(rng);
      linalg::Vector got_f(config_feature_dim(task)), got_d(kDerivedFeatureDim);
      for (std::size_t k = 0; k < s.num_knobs(); ++k) {
        for (std::size_t o = 0; o < s.knob(k).num_options(); ++o) {
          Config c = base;
          c[k] = static_cast<std::uint32_t>(o);
          featurize_into(task, c, got_f, got_d);
          reference_featurize(task, c, want_f, want_d);
          ++configs;
          ASSERT_EQ(got_f.size(), want_f.size());
          for (std::size_t i = 0; i < got_f.size(); ++i)
            ASSERT_EQ(bits(got_f[i]), bits(want_f[i]))
                << task.name() << " knob " << k << " option " << o << " feature " << i;
          for (std::size_t i = 0; i < got_d.size(); ++i)
            ASSERT_EQ(bits(got_d[i]), bits(want_d[i]))
                << task.name() << " knob " << k << " option " << o << " derived " << i;
        }
      }
    }
  }
  EXPECT_EQ(tasks, 63u);
  EXPECT_GT(configs, 1000u);
}

}  // namespace
}  // namespace glimpse::searchspace
