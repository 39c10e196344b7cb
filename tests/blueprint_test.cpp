#include "common/logging.hpp"
#include <gtest/gtest.h>

#include "glimpse/blueprint.hpp"
#include "test_util.hpp"

namespace glimpse::core {
namespace {

TEST(BlueprintTest, EncodeProducesRequestedDim) {
  BlueprintEncoder enc(8);
  EXPECT_EQ(enc.dim(), 8u);
  auto b = enc.encode(glimpse::testing::titan_xp());
  EXPECT_EQ(b.size(), 8u);
}

TEST(BlueprintTest, DifferentGpusGetDifferentEmbeddings) {
  BlueprintEncoder enc(8);
  auto a = enc.encode(glimpse::testing::titan_xp());
  auto b = enc.encode(glimpse::testing::rtx3090());
  EXPECT_NE(a, b);
}

TEST(BlueprintTest, SimilarGpusAreCloserThanDissimilarOnes) {
  BlueprintEncoder enc(8);
  const auto* a2070 = hwspec::find_gpu("RTX 2070");
  const auto* a2070s = hwspec::find_gpu("RTX 2070 Super");
  const auto* a3090 = hwspec::find_gpu("RTX 3090");
  ASSERT_TRUE(a2070 && a2070s && a3090);
  auto e1 = enc.encode(*a2070), e2 = enc.encode(*a2070s), e3 = enc.encode(*a3090);
  EXPECT_LT(linalg::sqdist(e1, e2), linalg::sqdist(e1, e3));
}

TEST(BlueprintTest, DecodeApproximatesDatasheet) {
  BlueprintEncoder enc(default_blueprint_dim());
  const auto& gpu = glimpse::testing::titan_xp();
  auto features = gpu.to_features();
  auto back = enc.decode(enc.encode(gpu));
  ASSERT_EQ(back.size(), features.size());
  // High-dimensional embedding should reconstruct within a few percent of
  // each feature's scale. "Scale" is the feature's largest magnitude across
  // the whole database, not this GPU's value: features that are zero here
  // but large elsewhere (tensor-core columns on pre-Volta parts) still
  // reconstruct to small-relative-to-scale, not small-absolute, values.
  std::vector<double> scale(features.size(), 0.0);
  for (const auto& g : hwspec::gpu_database()) {
    auto f = g.to_features();
    for (std::size_t i = 0; i < f.size(); ++i)
      scale[i] = std::max(scale[i], std::abs(f[i]));
  }
  for (std::size_t i = 0; i < features.size(); ++i)
    EXPECT_NEAR(back[i], features[i],
                0.15 * std::abs(features[i]) + 0.02 * scale[i] + 1.0)
        << i;
}

TEST(BlueprintTest, DseLossIsMonotoneNonIncreasing) {
  auto dse = BlueprintEncoder::design_space_exploration();
  ASSERT_EQ(dse.size(), hwspec::GpuSpec::feature_names().size());
  for (std::size_t i = 1; i < dse.size(); ++i) {
    EXPECT_LE(dse[i].information_loss, dse[i - 1].information_loss + 1e-9);
    EXPECT_GE(dse[i].explained_variance, dse[i - 1].explained_variance - 1e-9);
  }
  EXPECT_DOUBLE_EQ(dse.front().size_fraction, 1.0 / dse.size());
  EXPECT_DOUBLE_EQ(dse.back().size_fraction, 1.0);
  // Full-size embedding loses (numerically) nothing.
  EXPECT_NEAR(dse.back().information_loss, 0.0, 1e-6);
}

TEST(BlueprintTest, DseShowsStrongCompression) {
  // The datasheet features are heavily correlated (cores ~ SMs x clock,
  // GFLOPS ~ cores x clock), so half-size embeddings must already capture
  // >99 % of the variance — the premise of the paper's Fig. 8 knee.
  auto dse = BlueprintEncoder::design_space_exploration();
  std::size_t half = dse.size() / 2;
  EXPECT_GT(dse[half - 1].explained_variance, 0.99);
}

TEST(BlueprintTest, ChooseDimRespectsThreshold) {
  // choose_dim thresholds on variance loss (1 - explained variance).
  std::size_t k = BlueprintEncoder::choose_dim(0.05);
  auto dse = BlueprintEncoder::design_space_exploration();
  EXPECT_LT(1.0 - dse[k - 1].explained_variance, 0.05);
  if (k > 1) {
    EXPECT_GE(1.0 - dse[k - 2].explained_variance, 0.05);
  }
}

TEST(BlueprintTest, DefaultDimIsStableAndCompressive) {
  std::size_t d = default_blueprint_dim();
  EXPECT_EQ(d, default_blueprint_dim());
  EXPECT_GE(d, 2u);
  EXPECT_LT(d, hwspec::GpuSpec::feature_names().size());
}

TEST(BlueprintTest, RejectsBadDim) {
  EXPECT_THROW(BlueprintEncoder(0), CheckError);
  EXPECT_THROW(BlueprintEncoder(999), CheckError);
}

}  // namespace
}  // namespace glimpse::core
