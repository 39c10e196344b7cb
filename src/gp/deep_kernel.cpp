#include "gp/deep_kernel.hpp"

#include <algorithm>
#include <memory>

#include "common/logging.hpp"
#include "nn/losses.hpp"

namespace glimpse::gp {

namespace {

constexpr double kPretrainLr = 3e-3;
constexpr double kGpNoise = 5e-3;
constexpr double kGpLengthscale = 3.0;

}  // namespace

DeepKernelGp::DeepKernelGp(std::size_t input_dim, DeepKernelOptions options, Rng& rng)
    : options_(options),
      embedder_({input_dim, options.hidden, options.embed_dim, 1},
                nn::Activation::kTanh, rng) {}

void DeepKernelGp::pretrain(const linalg::Matrix& x, const linalg::Vector& y, Rng& rng) {
  GLIMPSE_CHECK(x.rows() == y.size() && x.rows() >= 4);
  scaler_.fit(x);

  nn::Adam adam(embedder_, {.lr = kPretrainLr});
  const linalg::Matrix z = scaler_.transform(x);
  std::size_t n = x.rows();
  std::size_t batch = std::min<std::size_t>(32, n);
  nn::MlpParams grad = embedder_.zero_like();
  nn::Mlp::Cache cache;
  linalg::Vector dout;
  for (int epoch = 0; epoch < options_.pretrain_epochs; ++epoch) {
    auto order = rng.sample_without_replacement(n, n);
    for (std::size_t start = 0; start + batch <= n; start += batch) {
      grad.fill(0.0);
      for (std::size_t i = start; i < start + batch; ++i) {
        std::size_t r = order[i];
        linalg::Vector out = embedder_.forward(z.row(r), cache);
        const double target = y[r];
        nn::mse_grad(out, {&target, 1}, dout);
        embedder_.backward(z.row(r), cache, dout, 1.0 / static_cast<double>(batch), grad);
      }
      adam.step(embedder_, grad);
    }
  }
  pretrained_ = true;
}

linalg::Vector DeepKernelGp::embed(std::span<const double> x) const {
  linalg::Vector z = scaler_.fitted() ? scaler_.transform(x)
                                      : linalg::Vector(x.begin(), x.end());
  nn::Mlp::Cache cache;
  embedder_.forward(z, cache);
  // Penultimate post-activation is the embedding (layers: hidden, embed, out).
  const auto& post = cache.post;
  GLIMPSE_CHECK(post.size() >= 2);
  return post[post.size() - 2];
}

linalg::Matrix DeepKernelGp::embed_batch(const linalg::Matrix& x) const {
  linalg::Matrix z = scaler_.fitted() ? scaler_.transform(x) : x;
  nn::Mlp::BatchCache cache;
  embedder_.forward_batch(z, &cache);
  const auto& post = cache.post;
  GLIMPSE_CHECK(post.size() >= 2);
  return post[post.size() - 2];
}

void DeepKernelGp::fit(const linalg::Matrix& x, const linalg::Vector& y, Rng& rng) {
  GLIMPSE_CHECK(x.rows() == y.size() && x.rows() >= 1);
  std::size_t n = x.rows();
  std::vector<std::size_t> rows;
  if (n > options_.max_gp_points) {
    rows = rng.sample_without_replacement(n, options_.max_gp_points);
  } else {
    rows.resize(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = i;
  }

  linalg::Matrix sub(rows.size(), x.cols());
  linalg::Vector ey(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto src = x.row(rows[i]);
    std::copy(src.begin(), src.end(), sub.row(i).begin());
    ey[i] = y[rows[i]];
  }
  linalg::Matrix ex = embed_batch(sub);

  gp_.emplace(std::make_unique<Matern52Kernel>(kGpLengthscale, 1.0), kGpNoise);
  gp_->fit(ex, ey);
}

GpPrediction DeepKernelGp::predict(std::span<const double> x) const {
  GLIMPSE_CHECK(fitted()) << "DeepKernelGp::predict before fit";
  return gp_->predict(embed(x));
}

}  // namespace glimpse::gp
