#include "ml/autoencoder.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "nn/losses.hpp"

namespace glimpse::ml {

namespace {

constexpr double kLr = 4e-3;

}  // namespace

Autoencoder::Autoencoder(const linalg::Matrix& x, std::size_t k, Rng& rng,
                         AutoencoderOptions options)
    : k_(k),
      encoder_({x.cols(), options.hidden, k}, nn::Activation::kTanh, rng),
      decoder_({k, options.hidden, x.cols()}, nn::Activation::kTanh, rng) {
  GLIMPSE_CHECK(x.rows() >= 2 && k >= 1 && k <= x.cols());
  scaler_.fit(x);

  nn::Adam enc_opt(encoder_, {.lr = kLr});
  nn::Adam dec_opt(decoder_, {.lr = kLr});
  const linalg::Matrix zs = scaler_.transform(x);
  std::size_t n = x.rows();
  const double scale = 1.0 / static_cast<double>(n);

  nn::MlpParams enc_grad = encoder_.zero_like();
  nn::MlpParams dec_grad = decoder_.zero_like();
  nn::Mlp::Cache enc_cache, dec_cache;
  linalg::Vector dout, dcode;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    auto order = rng.sample_without_replacement(n, n);
    enc_grad.fill(0.0);
    dec_grad.fill(0.0);
    for (std::size_t r : order) {
      auto z = zs.row(r);
      linalg::Vector code = encoder_.forward(z, enc_cache);
      linalg::Vector out = decoder_.forward(code, dec_cache);
      nn::mse_grad(out, z, dout);
      dcode.clear();
      decoder_.backward(code, dec_cache, dout, scale, dec_grad, &dcode);
      encoder_.backward(z, enc_cache, dcode, scale, enc_grad);
    }
    enc_opt.step(encoder_, enc_grad);
    dec_opt.step(decoder_, dec_grad);
  }
}

linalg::Vector Autoencoder::encode(std::span<const double> x) const {
  return encoder_.forward(scaler_.transform(x));
}

linalg::Vector Autoencoder::decode(std::span<const double> z) const {
  return scaler_.inverse_transform(decoder_.forward(z));
}

double Autoencoder::reconstruction_rmse(const linalg::Matrix& x) const {
  double se = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    linalg::Vector z = scaler_.transform(x.row(r));
    linalg::Vector back = decoder_.forward(encoder_.forward(z));
    for (std::size_t c = 0; c < z.size(); ++c) {
      double d = z[c] - back[c];
      se += d * d;
      ++n;
    }
  }
  return std::sqrt(se / static_cast<double>(n));
}

std::size_t Autoencoder::num_params() const {
  return encoder_.params().num_params() + decoder_.params().num_params();
}

}  // namespace glimpse::ml
