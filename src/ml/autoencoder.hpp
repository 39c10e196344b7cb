// Neural autoencoder for dimensionality reduction — the alternative the
// paper's Blueprint design *rejects* in favor of PCA (§3.1: PCA "provides an
// intuitive knob that allows us to balance the size with the information
// loss", while "neural networks required more computation to achieve the
// same dimensionality reduction"). Implemented so the claim can be measured:
// bench/fig8_blueprint_dse compares reconstruction loss and fitting cost of
// both at equal embedding sizes.
#pragma once

#include "ml/scaler.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace glimpse::ml {

/// The learning rate is a constant in autoencoder.cpp.
struct AutoencoderOptions {
  std::size_t hidden = 16;  ///< hidden width of encoder and decoder
  int epochs = 400;
};

/// Symmetric MLP autoencoder (d -> hidden -> k -> hidden -> d) trained with
/// MSE on standardized inputs; exposes the same encode/decode surface as
/// the PCA-based Blueprint for apples-to-apples comparison.
class Autoencoder {
 public:
  /// Fit on the rows of `x`, compressing to `k` dimensions.
  Autoencoder(const linalg::Matrix& x, std::size_t k, Rng& rng,
              AutoencoderOptions options = {});

  linalg::Vector encode(std::span<const double> x) const;
  linalg::Vector decode(std::span<const double> z) const;

  std::size_t bottleneck_dim() const { return k_; }
  /// Reconstruction RMSE on `x` in standardized units — directly comparable
  /// with Pca::reconstruction_rmse.
  double reconstruction_rmse(const linalg::Matrix& x) const;
  /// Trainable parameters (the "more computation" side of the trade-off).
  std::size_t num_params() const;

 private:
  std::size_t k_;
  StandardScaler scaler_;
  nn::Mlp encoder_;
  nn::Mlp decoder_;
};

}  // namespace glimpse::ml
