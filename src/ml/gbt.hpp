// Gradient-boosted regression trees (XGBoost-lite).
//
// This is the learned cost model of the AutoTVM baseline (and of Chameleon,
// which builds on it): trees boosted on squared error over config features,
// refit from scratch on all measured data each tuning round — matching
// AutoTVM's usage, at a scale (hundreds of samples, tens of features) where
// an exact reimplementation of XGBoost is unnecessary.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace glimpse::ml {

/// The learning rate, leaf size, split-threshold count and row subsampling
/// are constants in gbt.cpp.
struct GbtOptions {
  int num_trees = 60;
  int max_depth = 4;
};

/// One regression tree, stored as a flat node array.
class RegressionTree {
 public:
  struct Node {
    int feature = -1;       ///< -1 for leaves
    double threshold = 0.0; ///< go left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    double value = 0.0;     ///< leaf prediction
  };

  /// Fit to (x rows, residuals) over the given row subset.
  void fit(const linalg::Matrix& x, std::span<const double> y,
           std::span<const std::size_t> rows, const GbtOptions& options);

  double predict(std::span<const double> x) const;

 private:
  int build(const linalg::Matrix& x, std::span<const double> y,
            std::vector<std::size_t>& rows, std::size_t begin, std::size_t end,
            int depth, const GbtOptions& options);
  std::vector<Node> nodes_;
};

class GbtRegressor {
 public:
  explicit GbtRegressor(GbtOptions options = {}) : options_(options) {}

  /// Fit from scratch on (x, y). Requires at least 2 rows.
  void fit(const linalg::Matrix& x, std::span<const double> y, Rng& rng);

  double predict(std::span<const double> x) const;
  linalg::Vector predict(const linalg::Matrix& x) const;

  bool fitted() const { return fitted_; }
  std::size_t num_trees() const { return trees_.size(); }

 private:
  GbtOptions options_;
  std::vector<RegressionTree> trees_;
  double base_ = 0.0;
  bool fitted_ = false;
};

}  // namespace glimpse::ml
