// Exact Gaussian-process regression with a Matern-5/2 kernel and Cholesky
// solves.
//
// Targets are standardized internally; predictive mean/variance come back in
// the original units. Training cost is O(n^3) — callers cap n (the DGP
// baseline subsamples its history, matching practical GP tuner usage).
#pragma once

#include <span>
#include <vector>

#include "linalg/decompositions.hpp"

namespace glimpse::gp {

/// Matern 5/2 covariance at unit variance, the default in most BO packages:
/// (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r) with r = ||a - b|| / lengthscale.
double matern52(std::span<const double> a, std::span<const double> b, double lengthscale);

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;  ///< predictive variance (>= 0)
};

class GpRegressor {
 public:
  explicit GpRegressor(double lengthscale, double noise = 1e-3);

  /// Fit on rows of x against y (same length). Replaces any previous fit.
  void fit(const linalg::Matrix& x, const linalg::Vector& y);

  GpPrediction predict(std::span<const double> x) const;

  /// Predict every row of x: out[i] is predict(x.row(i)).
  std::vector<GpPrediction> predict_batch(const linalg::Matrix& x) const;

  bool fitted() const { return fitted_; }

 private:
  double lengthscale_;
  double noise_;
  linalg::Matrix x_;
  linalg::Matrix chol_;     ///< L with K + noise I = L L^T
  linalg::Vector alpha_;    ///< (K + noise I)^{-1} y_std
  double y_mean_ = 0.0, y_std_ = 1.0;
  bool fitted_ = false;
};

}  // namespace glimpse::gp
