#include "common/logging.hpp"
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/losses.hpp"
#include "nn/mlp.hpp"

namespace glimpse::nn {
namespace {

TEST(MlpTest, ForwardShapeAndDeterminism) {
  Rng rng(1);
  Mlp net({3, 8, 2}, Activation::kRelu, rng);
  linalg::Vector x = {1.0, -2.0, 0.5};
  auto a = net.forward(x);
  auto b = net.forward(x);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a, b);
}

TEST(MlpTest, InputSizeChecked) {
  Rng rng(2);
  Mlp net({3, 4, 1}, Activation::kTanh, rng);
  linalg::Vector wrong = {1.0, 2.0};
  EXPECT_THROW(net.forward(wrong), CheckError);
}

TEST(MlpTest, NumParamsMatchesArchitecture) {
  Rng rng(3);
  Mlp net({4, 5, 2}, Activation::kRelu, rng);
  // (4*5 + 5) + (5*2 + 2) = 37
  EXPECT_EQ(net.params().num_params(), 37u);
}

TEST(MlpTest, GradientMatchesFiniteDifferences) {
  Rng rng(4);
  Mlp net({3, 5, 2}, Activation::kTanh, rng);
  linalg::Vector x = {0.3, -0.7, 1.2};
  linalg::Vector target = {0.5, -0.25};

  auto loss_of = [&]() {
    auto out = net.forward(x);
    linalg::Vector d;
    return mse_grad(out, target, d);
  };

  Mlp::Cache cache;
  auto out = net.forward(x, cache);
  linalg::Vector dout;
  mse_grad(out, target, dout);
  MlpParams g = net.zero_like();
  net.backward(x, cache, dout, 1.0, g);

  const double eps = 1e-6;
  // Check several weight entries in each layer.
  for (std::size_t l = 0; l < net.params().w.size(); ++l) {
    for (std::size_t idx : {std::size_t{0}, std::size_t{3}}) {
      double& w = net.params().w[l].data()[idx];
      double orig = w;
      w = orig + eps;
      double lp = loss_of();
      w = orig - eps;
      double lm = loss_of();
      w = orig;
      double numeric = (lp - lm) / (2 * eps);
      EXPECT_NEAR(g.w[l].data()[idx], numeric, 1e-5)
          << "layer " << l << " weight " << idx;
    }
    double& b = net.params().b[l][0];
    double orig = b;
    b = orig + eps;
    double lp = loss_of();
    b = orig - eps;
    double lm = loss_of();
    b = orig;
    EXPECT_NEAR(g.b[l][0], (lp - lm) / (2 * eps), 1e-5) << "layer " << l << " bias";
  }
}

TEST(MlpTest, InputGradientMatchesFiniteDifferences) {
  Rng rng(5);
  Mlp net({2, 6, 1}, Activation::kRelu, rng);
  linalg::Vector x = {0.9, -0.4};
  linalg::Vector target = {2.0};

  Mlp::Cache cache;
  auto out = net.forward(x, cache);
  linalg::Vector dout;
  mse_grad(out, target, dout);
  linalg::Vector dx;
  MlpParams g = net.zero_like();
  net.backward(x, cache, dout, 1.0, g, &dx);
  ASSERT_EQ(dx.size(), 2u);

  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    linalg::Vector xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    linalg::Vector d;
    double lp = mse_grad(net.forward(xp), target, d);
    double lm = mse_grad(net.forward(xm), target, d);
    EXPECT_NEAR(dx[i], (lp - lm) / (2 * eps), 1e-5);
  }
}

TEST(MlpTest, LearnsXorWithAdam) {
  Rng rng(6);
  Mlp net({2, 12, 1}, Activation::kTanh, rng);
  Adam adam(net, {.lr = 0.02});
  const std::vector<std::pair<linalg::Vector, double>> data = {
      {{0.0, 0.0}, 0.0}, {{0.0, 1.0}, 1.0}, {{1.0, 0.0}, 1.0}, {{1.0, 1.0}, 0.0}};
  for (int epoch = 0; epoch < 800; ++epoch) {
    MlpParams grad = net.zero_like();
    for (const auto& [x, y] : data) {
      Mlp::Cache cache;
      auto out = net.forward(x, cache);
      linalg::Vector dout;
      linalg::Vector target = {y};
      mse_grad(out, target, dout);
      net.backward(x, cache, dout, 0.25, grad);
    }
    adam.step(net, grad);
  }
  for (const auto& [x, y] : data)
    EXPECT_NEAR(net.forward(x)[0], y, 0.2) << x[0] << "," << x[1];
}

TEST(MlpParamsTest, AxpyAndScale) {
  Rng rng(7);
  Mlp net({2, 3, 1}, Activation::kRelu, rng);
  MlpParams a = net.zero_like();
  a.fill(1.0);
  MlpParams b = net.zero_like();
  b.fill(2.0);
  a.axpy(3.0, b);  // 1 + 3*2 = 7
  EXPECT_DOUBLE_EQ(a.w[0].data()[0], 7.0);
  a.scale(0.5);
  EXPECT_DOUBLE_EQ(a.b[0][0], 3.5);
}

TEST(AdamTest, StepReducesLossOnQuadratic) {
  Rng rng(8);
  Mlp net({1, 4, 1}, Activation::kTanh, rng);
  Adam adam(net, {.lr = 0.01});
  linalg::Vector x = {0.5};
  linalg::Vector target = {0.9};
  double first_loss = 0.0, last_loss = 0.0;
  for (int i = 0; i < 200; ++i) {
    Mlp::Cache cache;
    auto out = net.forward(x, cache);
    linalg::Vector dout;
    double loss = mse_grad(out, target, dout);
    if (i == 0) first_loss = loss;
    last_loss = loss;
    MlpParams g = net.zero_like();
    net.backward(x, cache, dout, 1.0, g);
    adam.step(net, g);
  }
  EXPECT_LT(last_loss, first_loss * 0.01);
}

// ---------- losses ----------

TEST(LossTest, SoftmaxNormalizesAndOrders) {
  linalg::Vector logits = {1.0, 2.0, 3.0};
  auto p = softmax(logits);
  double sum = p[0] + p[1] + p[2];
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(LossTest, SoftmaxStableForHugeLogits) {
  linalg::Vector logits = {1000.0, 1001.0};
  auto p = softmax(logits);
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(LossTest, CrossEntropyGradSumsToZero) {
  linalg::Vector logits = {0.2, -1.0, 0.7};
  linalg::Vector d;
  double loss = cross_entropy_grad(logits, 2, d);
  EXPECT_GT(loss, 0.0);
  EXPECT_NEAR(d[0] + d[1] + d[2], 0.0, 1e-12);
  EXPECT_LT(d[2], 0.0);  // pulls target logit up
}

TEST(LossTest, CrossEntropyAgainstDistribution) {
  linalg::Vector logits = {0.0, 0.0};
  linalg::Vector target = {0.5, 0.5};
  linalg::Vector d;
  double loss = cross_entropy_grad(logits, target, d);
  EXPECT_NEAR(loss, std::log(2.0), 1e-9);
  EXPECT_NEAR(d[0], 0.0, 1e-12);
}

TEST(LossTest, MseGradIsResidual) {
  linalg::Vector pred = {2.0, -1.0};
  linalg::Vector target = {1.0, 1.0};
  linalg::Vector d;
  double loss = mse_grad(pred, target, d);
  EXPECT_DOUBLE_EQ(loss, 0.5 * (1.0 + 4.0));
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], -2.0);
}

}  // namespace
}  // namespace glimpse::nn
