// Gradient-boosted regression trees (XGBoost-lite).
//
// This is the learned cost model of the AutoTVM baseline (and of Chameleon,
// which builds on it): trees boosted on squared error over config features,
// refit from scratch on all measured data each tuning round — matching
// AutoTVM's usage, at a scale (hundreds of samples, tens of features) where
// an exact reimplementation of XGBoost is unnecessary.
//
// The split search is exact over quantile thresholds. A fit presorts every
// feature column once; each node reads its thresholds off that presort and
// lists every feature's candidates as lanes. An SSE2 kernel (run where
// linalg::kernels::select() names AVX2, like every SIMD body, with a scalar
// fallback of the same additions) sums four lanes per pass over the node's
// rows in eight registers, each lane in row order, and computes their gains.
// Scoring runs on a flat copy of the ensemble: complete trees of depth
// max_depth, evaluated tree-outer and sample-inner over a batch. Both must
// stay bit-identical to a naive per-node sort and per-row tree walk:
// tests/ml_test.cpp keeps one as an oracle, and the tuners' decisions depend
// on every split and score.
// DESIGN.md §17 has the measured phase shares (the kernel is about half of
// fit time, lane building about 30 %), the variants that measured slower
// (counted-lane split loops, generic-width scalar lane blocks), and why the
// presort is not carried across fits.
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

class TreeBuilder;  // gbt.cpp: presorted split search over one fit's data

/// One regression tree, stored as a flat node array (root first, then the
/// left subtree, then the right, depth first).
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

  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  friend class TreeBuilder;
  std::vector<Node> nodes_;
};

class GbtRegressor {
 public:
  explicit GbtRegressor(GbtOptions options = {}) : options_(options) {}

  /// Fit from scratch on (x, y). Requires at least 2 rows and 1 column.
  void fit(const linalg::Matrix& x, std::span<const double> y, Rng& rng);

  /// Both overloads throw CheckError before a fit and when the input width
  /// differs from the fit's column count. Row r of the batch overload is
  /// bit-identical to predict(x.row(r)).
  double predict(std::span<const double> x) const;
  linalg::Vector predict(const linalg::Matrix& x) const;

  bool fitted() const { return num_features_ > 0; }
  std::size_t num_trees() const { return trees_.size(); }
  const std::vector<RegressionTree>& trees() const { return trees_; }

 private:
  /// base + Σ lr·leaf over the flat forest for `n` rows of width
  /// num_features_ stored contiguously at `x`.
  void predict_rows(const double* x, std::size_t n, double* out) const;

  GbtOptions options_;
  std::vector<RegressionTree> trees_;
  // The flat forest: tree t is a complete binary tree of depth max_depth
  // with internal nodes [t·I, (t+1)·I) and leaves [t·2^d, (t+1)·2^d), where
  // I = 2^d - 1. A leaf above the last level is padded by copying it into
  // both subtrees.
  std::vector<int> flat_feature_;
  std::vector<double> flat_threshold_;
  std::vector<double> flat_leaf_;
  std::size_t num_features_ = 0;  ///< the fit's column count; 0 before a fit
  double base_ = 0.0;
};

}  // namespace glimpse::ml
