#include "gp/deep_kernel.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "nn/adam.hpp"
#include "nn/losses.hpp"

namespace glimpse::gp {

namespace {

constexpr double kPretrainLr = 3e-3;

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

linalg::Matrix DeepKernelGp::embed_batch(const linalg::Matrix& x) const {
  linalg::Matrix z = scaler_.fitted() ? scaler_.transform(x) : x;
  nn::Mlp::BatchCache cache;
  embedder_.forward_batch(z, &cache);
  const auto& post = cache.post;
  GLIMPSE_CHECK(post.size() >= 2);
  return post[post.size() - 2];
}

}  // namespace glimpse::gp
