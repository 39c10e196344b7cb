#include "ml/gbt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.hpp"

namespace glimpse::ml {

namespace {

constexpr double kLearningRate = 0.25;
constexpr int kMinSamplesLeaf = 4;
constexpr int kMaxThresholds = 16;  ///< candidate split thresholds per feature (quantiles)
constexpr double kSubsample = 0.85;  ///< row subsampling per tree

struct BestSplit {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

/// SSE reduction of splitting `rows[begin,end)` at (feature, threshold).
BestSplit find_best_split(const linalg::Matrix& x, std::span<const double> y,
                          std::span<const std::size_t> rows) {
  std::size_t n = rows.size();
  double sum = 0.0;
  for (std::size_t r : rows) sum += y[r];
  double parent_mean = sum / static_cast<double>(n);
  double parent_sse = 0.0;
  for (std::size_t r : rows) {
    double d = y[r] - parent_mean;
    parent_sse += d * d;
  }

  BestSplit best;
  std::vector<double> values(n);
  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t i = 0; i < n; ++i) values[i] = x(rows[i], f);
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front() == sorted.back()) continue;  // constant feature here

    // Candidate thresholds at quantiles (midpoints between distinct values).
    int nt = std::min<int>(kMaxThresholds, static_cast<int>(n) - 1);
    for (int t = 1; t <= nt; ++t) {
      std::size_t qi = static_cast<std::size_t>(
          static_cast<double>(t) / (nt + 1) * static_cast<double>(n - 1));
      std::size_t qj = std::min(qi + 1, n - 1);
      if (sorted[qi] == sorted[qj]) continue;
      double thr = 0.5 * (sorted[qi] + sorted[qj]);

      double lsum = 0.0, lsq = 0.0, rsum = 0.0, rsq = 0.0;
      std::size_t ln = 0;
      for (std::size_t i = 0; i < n; ++i) {
        double yy = y[rows[i]];
        if (values[i] <= thr) {
          lsum += yy;
          lsq += yy * yy;
          ++ln;
        } else {
          rsum += yy;
          rsq += yy * yy;
        }
      }
      std::size_t rn = n - ln;
      if (ln < static_cast<std::size_t>(kMinSamplesLeaf) ||
          rn < static_cast<std::size_t>(kMinSamplesLeaf))
        continue;
      double lsse = lsq - lsum * lsum / static_cast<double>(ln);
      double rsse = rsq - rsum * rsum / static_cast<double>(rn);
      double gain = parent_sse - (lsse + rsse);
      if (gain > best.gain + 1e-12) {
        best = {static_cast<int>(f), thr, gain};
      }
    }
  }
  return best;
}

}  // namespace

int RegressionTree::build(const linalg::Matrix& x, std::span<const double> y,
                          std::vector<std::size_t>& rows, std::size_t begin,
                          std::size_t end, int depth, const GbtOptions& options) {
  std::size_t n = end - begin;
  double mean = 0.0;
  for (std::size_t i = begin; i < end; ++i) mean += y[rows[i]];
  mean /= static_cast<double>(n);

  int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[node_id].value = mean;

  if (depth >= options.max_depth || n < 2 * static_cast<std::size_t>(kMinSamplesLeaf))
    return node_id;

  std::span<const std::size_t> subset(rows.data() + begin, n);
  BestSplit split = find_best_split(x, y, subset);
  if (split.feature < 0) return node_id;

  // Partition rows[begin,end) in place.
  auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return x(r, split.feature) <= split.threshold; });
  std::size_t mid = static_cast<std::size_t>(mid_it - rows.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition

  nodes_[node_id].feature = split.feature;
  nodes_[node_id].threshold = split.threshold;
  int left = build(x, y, rows, begin, mid, depth + 1, options);
  int right = build(x, y, rows, mid, end, depth + 1, options);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

void RegressionTree::fit(const linalg::Matrix& x, std::span<const double> y,
                         std::span<const std::size_t> rows, const GbtOptions& options) {
  GLIMPSE_CHECK(!rows.empty());
  nodes_.clear();
  std::vector<std::size_t> mutable_rows(rows.begin(), rows.end());
  build(x, y, mutable_rows, 0, mutable_rows.size(), 0, options);
}

double RegressionTree::predict(std::span<const double> x) const {
  GLIMPSE_CHECK(!nodes_.empty());
  int id = 0;
  while (nodes_[id].feature >= 0) {
    const Node& n = nodes_[id];
    id = (x[static_cast<std::size_t>(n.feature)] <= n.threshold) ? n.left : n.right;
  }
  return nodes_[id].value;
}

void GbtRegressor::fit(const linalg::Matrix& x, std::span<const double> y, Rng& rng) {
  GLIMPSE_CHECK(x.rows() == y.size());
  GLIMPSE_CHECK(x.rows() >= 2) << "GbtRegressor needs at least 2 samples";
  trees_.clear();

  base_ = 0.0;
  for (double v : y) base_ += v;
  base_ /= static_cast<double>(y.size());

  std::vector<double> residual(y.begin(), y.end());
  for (double& r : residual) r -= base_;

  std::size_t n = x.rows();
  std::size_t sub = std::max<std::size_t>(
      2, static_cast<std::size_t>(kSubsample * static_cast<double>(n)));
  for (int t = 0; t < options_.num_trees; ++t) {
    std::vector<std::size_t> rows = rng.sample_without_replacement(n, sub);
    RegressionTree tree;
    tree.fit(x, residual, rows, options_);
    // Update residuals on all rows.
    for (std::size_t i = 0; i < n; ++i)
      residual[i] -= kLearningRate * tree.predict(x.row(i));
    trees_.push_back(std::move(tree));
  }
  fitted_ = true;
}

double GbtRegressor::predict(std::span<const double> x) const {
  GLIMPSE_CHECK(fitted_);
  double p = base_;
  for (const auto& t : trees_) p += kLearningRate * t.predict(x);
  return p;
}

linalg::Vector GbtRegressor::predict(const linalg::Matrix& x) const {
  linalg::Vector out(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) out[r] = predict(x.row(r));
  return out;
}

}  // namespace glimpse::ml
