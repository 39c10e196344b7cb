#include "common/logging.hpp"
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "gp/deep_kernel.hpp"
#include "gp/gp_regression.hpp"

namespace glimpse::gp {
namespace {

TEST(KernelTest, Matern52Properties) {
  auto k = [](const linalg::Vector& a, const linalg::Vector& b) { return matern52(a, b, 1.0); };
  linalg::Vector a = {0.0};
  linalg::Vector b = {0.5};
  EXPECT_NEAR(k(a, a), 1.0, 1e-12);
  EXPECT_GT(k(a, b), 0.0);
  EXPECT_LT(k(a, b), 1.0);
  EXPECT_DOUBLE_EQ(k(a, b), k(b, a));
}

TEST(GpRegressorTest, InterpolatesTrainingPoints) {
  GpRegressor gp(1.0, 1e-6);
  linalg::Matrix x{{0.0}, {1.0}, {2.0}};
  linalg::Vector y = {0.0, 1.0, 4.0};
  gp.fit(x, y);
  for (std::size_t i = 0; i < 3; ++i) {
    auto p = gp.predict(x.row(i));
    EXPECT_NEAR(p.mean, y[i], 1e-2);
    EXPECT_LT(p.variance, 1e-2);
  }
}

TEST(GpRegressorTest, UncertaintyGrowsAwayFromData) {
  GpRegressor gp(0.5, 1e-4);
  linalg::Matrix x{{0.0}, {1.0}};
  linalg::Vector y = {0.0, 1.0};
  gp.fit(x, y);
  auto near = gp.predict(linalg::Vector{0.5});
  auto far = gp.predict(linalg::Vector{10.0});
  EXPECT_GT(far.variance, near.variance);
}

TEST(GpRegressorTest, FarPredictionsRevertToMean) {
  GpRegressor gp(0.5, 1e-4);
  linalg::Matrix x{{0.0}, {1.0}};
  linalg::Vector y = {3.0, 5.0};  // mean 4
  gp.fit(x, y);
  auto far = gp.predict(linalg::Vector{100.0});
  EXPECT_NEAR(far.mean, 4.0, 1e-6);
}

TEST(GpRegressorTest, PredictBeforeFitThrows) {
  GpRegressor gp(1.0, 1e-3);
  EXPECT_THROW(gp.predict(linalg::Vector{0.0}), CheckError);
}

TEST(GpRegressorTest, LearnsSmoothFunction) {
  Rng rng(1);
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  for (int i = 0; i < 40; ++i) {
    double t = rng.uniform(0, 6.28);
    rows.push_back({t});
    y.push_back(std::sin(t));
  }
  GpRegressor gp(1.0, 1e-4);
  gp.fit(linalg::Matrix::from_rows(rows), y);
  for (double t : {0.5, 2.0, 4.0, 5.5})
    EXPECT_NEAR(gp.predict(linalg::Vector{t}).mean, std::sin(t), 0.15) << t;
}

TEST(DeepKernelGpTest, EmbeddingHasConfiguredDim) {
  Rng rng(3);
  DeepKernelGp dk(5, {.embed_dim = 7, .hidden = 8, .pretrain_epochs = 1}, rng);
  linalg::Matrix x{{1.0, 2.0, 3.0, 4.0, 5.0}};
  EXPECT_EQ(dk.embed_batch(x).cols(), 7u);
}

}  // namespace
}  // namespace glimpse::gp
