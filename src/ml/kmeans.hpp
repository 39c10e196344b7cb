// k-means clustering (k-means++ init, Lloyd iterations).
//
// Used by the Chameleon baseline's adaptive sampling: cluster a candidate
// batch in feature space and measure only the configurations nearest each
// centroid. Its O(n*k*iters) cost is the comparison point for Glimpse's
// O(1) threshold predictors (paper §3.3).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace glimpse::ml {

struct KMeansResult {
  linalg::Matrix centroids;            ///< k x d
  std::vector<std::size_t> assignment; ///< per input row
  std::vector<std::size_t> medoids;    ///< input row nearest each centroid
  double inertia = 0.0;                ///< sum of squared distances
  int iterations = 0;
};

/// Cluster the rows of `x` into k clusters. k must be in [1, rows]. The
/// iteration cap and convergence tolerance are constants in kmeans.cpp.
KMeansResult kmeans(const linalg::Matrix& x, std::size_t k, Rng& rng);

}  // namespace glimpse::ml
