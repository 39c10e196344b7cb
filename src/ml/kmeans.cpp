#include "ml/kmeans.hpp"

#include <cmath>
#include <limits>

#include "common/logging.hpp"

namespace glimpse::ml {

namespace {

constexpr int kMaxIterations = 25;
constexpr double kTol = 1e-6;  ///< relative inertia improvement to keep iterating

}  // namespace

KMeansResult kmeans(const linalg::Matrix& x, std::size_t k, Rng& rng) {
  std::size_t n = x.rows(), d = x.cols();
  GLIMPSE_CHECK(k >= 1 && k <= n) << "kmeans: k=" << k << " n=" << n;

  // k-means++ seeding.
  linalg::Matrix centroids(k, d);
  std::vector<double> min_sq(n, std::numeric_limits<double>::max());
  std::size_t first = rng.index(n);
  for (std::size_t c = 0; c < d; ++c) centroids(0, c) = x(first, c);
  for (std::size_t j = 1; j < k; ++j) {
    for (std::size_t i = 0; i < n; ++i)
      min_sq[i] = std::min(min_sq[i], linalg::sqdist(x.row(i), centroids.row(j - 1)));
    std::size_t pick = rng.weighted_index(min_sq);
    for (std::size_t c = 0; c < d; ++c) centroids(j, c) = x(pick, c);
  }

  KMeansResult result;
  result.assignment.assign(n, 0);
  double prev_inertia = std::numeric_limits<double>::max();

  for (int iter = 0; iter < kMaxIterations; ++iter) {
    result.iterations = iter + 1;
    // Assign.
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::max();
      std::size_t bj = 0;
      for (std::size_t j = 0; j < k; ++j) {
        double sq = linalg::sqdist(x.row(i), centroids.row(j));
        if (sq < best) {
          best = sq;
          bj = j;
        }
      }
      result.assignment[i] = bj;
      inertia += best;
    }
    result.inertia = inertia;

    // Update.
    linalg::Matrix sums(k, d);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t j = result.assignment[i];
      ++counts[j];
      auto row = x.row(i);
      for (std::size_t c = 0; c < d; ++c) sums(j, c) += row[c];
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (counts[j] == 0) {
        // Re-seed an empty cluster at a random point.
        std::size_t pick = rng.index(n);
        for (std::size_t c = 0; c < d; ++c) centroids(j, c) = x(pick, c);
        continue;
      }
      for (std::size_t c = 0; c < d; ++c)
        centroids(j, c) = sums(j, c) / static_cast<double>(counts[j]);
    }

    if (prev_inertia - inertia <= kTol * std::max(1.0, prev_inertia)) break;
    prev_inertia = inertia;
  }
  result.centroids = centroids;

  // Medoids: input row nearest each centroid.
  result.medoids.assign(k, 0);
  for (std::size_t j = 0; j < k; ++j) {
    double best = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < n; ++i) {
      double sq = linalg::sqdist(x.row(i), result.centroids.row(j));
      if (sq < best) {
        best = sq;
        result.medoids[j] = i;
      }
    }
  }
  return result;
}

}  // namespace glimpse::ml
