// Adam optimizer over MlpParams-shaped gradients.
#pragma once

#include "nn/mlp.hpp"

namespace glimpse::nn {

/// The moment decays and epsilon are constants in adam.cpp.
struct AdamOptions {
  double lr = 1e-3;
};

class Adam {
 public:
  Adam(const Mlp& model, AdamOptions options = {});

  /// Apply one update of `model` from gradient `g` (same shape as params).
  void step(Mlp& model, const MlpParams& g);

 private:
  AdamOptions options_;
  MlpParams m_, v_;
  long t_ = 0;
};

}  // namespace glimpse::nn
