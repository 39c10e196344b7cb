// Parametric neural surrogate cost model f' (paper §3.1: "We use a
// parametric neural model f'_k instead of non-parametric Gaussian
// processes").
//
// A small ensemble of MLPs trained online on the measured configurations of
// the current task; the ensemble mean is the surrogate value (the annealing
// energy function of Algorithm 1) and the ensemble spread is the
// uncertainty proxy the neural acquisition function consumes.
#pragma once

#include <utility>
#include <vector>

#include "ml/scaler.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace glimpse::core {

/// Each member's hidden width and learning rate are constants in
/// surrogate.cpp.
struct SurrogateOptions {
  std::size_t ensemble = 3;
  int epochs_per_fit = 10;
};

class NeuralSurrogate {
 public:
  NeuralSurrogate(std::size_t input_dim, Rng& rng, SurrogateOptions options = {});

  /// Incremental fit on the full history (keeps previous weights as warm
  /// start). x rows align with y.
  void fit(const linalg::Matrix& x, const linalg::Vector& y, Rng& rng);

  struct Prediction {
    double mean = 0.0;
    double std = 0.0;  ///< ensemble disagreement (epistemic proxy)
  };
  Prediction predict(std::span<const double> x) const;

  /// Score a batch of inputs (rows of x): one packed forward pass per member.
  std::vector<Prediction> predict_batch(const linalg::Matrix& x) const;

  bool fitted() const { return fitted_; }

 private:
  SurrogateOptions options_;
  ml::StandardScaler scaler_;
  std::vector<nn::Mlp> nets_;
  std::vector<nn::Adam> opts_;
  bool fitted_ = false;
};

}  // namespace glimpse::core
