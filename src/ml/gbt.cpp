#include "ml/gbt.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "common/logging.hpp"
#include "common/telemetry/telemetry.hpp"

namespace glimpse::ml {

namespace {

constexpr double kLearningRate = 0.25;
constexpr int kMinSamplesLeaf = 4;
constexpr int kMaxThresholds = 16;  ///< candidate split thresholds per feature (quantiles)
constexpr double kSubsample = 0.85;  ///< row subsampling per tree
constexpr int kMaxFlatDepth = 16;    ///< a flat tree holds 2^max_depth leaves

struct BestSplit {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

}  // namespace

/// Split search and tree growth over one fit's data. The constructor copies
/// x into columns and sorts each column once; build() then grows a tree over
/// a row subset, reusing the same buffers for every node and every tree.
///
/// A node is a segment [begin, end) of two arrays. rows_ holds its rows in
/// the order std::partition leaves them, which is the order every sum runs
/// in. sorted_ holds, per feature, the same rows ascending by that feature,
/// so the node's quantile thresholds are read off directly. A split
/// partitions rows_ in place and each feature's segment stably, so both
/// children's segments stay sorted.
class TreeBuilder {
 public:
  explicit TreeBuilder(const linalg::Matrix& x);

  void build(RegressionTree& tree, std::span<const double> y,
             std::span<const std::size_t> rows, int max_depth);

 private:
  int grow(std::size_t begin, std::size_t end, int depth);
  BestSplit best_split(std::size_t begin, std::size_t end);
  /// Stable-partitions every feature's sorted segment of [begin, end) so
  /// that the rows of rows_[begin, mid) come first.
  void split_sorted(std::size_t begin, std::size_t mid, std::size_t end);

  std::size_t n_ = 0;                   ///< rows of x
  std::size_t width_ = 0;               ///< columns of x
  std::vector<double> cols_;            ///< x column-major: cols_[f·n + r]
  std::vector<std::uint32_t> presort_;  ///< per feature, rows 0..n-1 ascending

  // The tree being grown and its scratch.
  RegressionTree* tree_ = nullptr;
  std::span<const double> y_;
  int max_depth_ = 0;
  std::vector<std::size_t> rows_;
  std::vector<std::uint32_t> sorted_;  ///< per feature, rows_.size() entries
  std::vector<std::uint32_t> spill_;   ///< right-hand rows during split_sorted
  std::vector<std::uint32_t> count_;   ///< per row of x: copies in rows_
  std::vector<unsigned char> left_;    ///< per row of x: goes left at this split
  std::vector<double> ys_, ysq_;       ///< the node's y and y·y in row order
};

TreeBuilder::TreeBuilder(const linalg::Matrix& x)
    : n_(x.rows()),
      width_(x.cols()),
      cols_(n_ * width_),
      presort_(n_ * width_),
      count_(n_, 0),
      left_(n_, 0) {
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t f = 0; f < width_; ++f) cols_[f * n_ + r] = x(r, f);
  for (std::size_t f = 0; f < width_; ++f) {
    std::uint32_t* order = presort_.data() + f * n_;
    const double* col = cols_.data() + f * n_;
    std::iota(order, order + n_, 0u);
    std::sort(order, order + n_,
              [col](std::uint32_t a, std::uint32_t b) { return col[a] < col[b]; });
  }
}

void TreeBuilder::build(RegressionTree& tree, std::span<const double> y,
                        std::span<const std::size_t> rows, int max_depth) {
  GLIMPSE_CHECK(!rows.empty());
  GLIMPSE_CHECK(y.size() == n_);
  tree_ = &tree;
  y_ = y;
  max_depth_ = max_depth;
  tree.nodes_.clear();

  // The root's sorted segments: each presorted column filtered to the
  // tree's rows (with multiplicity).
  rows_.assign(rows.begin(), rows.end());
  const std::size_t m = rows_.size();
  for (std::size_t r : rows_) {
    GLIMPSE_CHECK(r < n_);
    ++count_[r];
  }
  sorted_.resize(width_ * m);
  for (std::size_t f = 0; f < width_; ++f) {
    std::uint32_t* out = sorted_.data() + f * m;
    const std::uint32_t* order = presort_.data() + f * n_;
    for (std::size_t i = 0; i < n_; ++i)
      for (std::uint32_t c = count_[order[i]]; c > 0; --c) *out++ = order[i];
  }
  for (std::size_t r : rows_) count_[r] = 0;
  spill_.resize(m);
  ys_.resize(m);
  ysq_.resize(m);
  grow(0, m, 0);
}

int TreeBuilder::grow(std::size_t begin, std::size_t end, int depth) {
  const std::size_t n = end - begin;
  double mean = 0.0;
  for (std::size_t i = begin; i < end; ++i) mean += y_[rows_[i]];
  mean /= static_cast<double>(n);

  auto& nodes = tree_->nodes_;
  int node_id = static_cast<int>(nodes.size());
  nodes.push_back(RegressionTree::Node{});
  nodes[node_id].value = mean;

  if (depth >= max_depth_ || n < 2 * static_cast<std::size_t>(kMinSamplesLeaf))
    return node_id;

  BestSplit split = best_split(begin, end);
  if (split.feature < 0) return node_id;

  const double* col = cols_.data() + static_cast<std::size_t>(split.feature) * n_;
  auto mid_it = std::partition(
      rows_.begin() + static_cast<std::ptrdiff_t>(begin),
      rows_.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return col[r] <= split.threshold; });
  std::size_t mid = static_cast<std::size_t>(mid_it - rows_.begin());
  if (mid == begin || mid == end) return node_id;  // degenerate partition
  if (depth + 1 < max_depth_) split_sorted(begin, mid, end);

  nodes[node_id].feature = split.feature;
  nodes[node_id].threshold = split.threshold;
  int left = grow(begin, mid, depth + 1);
  int right = grow(mid, end, depth + 1);
  nodes[node_id].left = left;
  nodes[node_id].right = right;
  return node_id;
}

void TreeBuilder::split_sorted(std::size_t begin, std::size_t mid, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) left_[rows_[i]] = i < mid;
  const std::size_t m = rows_.size();
  for (std::size_t f = 0; f < width_; ++f) {
    std::uint32_t* seg = sorted_.data() + f * m + begin;
    std::size_t l = 0, s = 0;
    for (std::size_t i = 0; i < end - begin; ++i) {  // branch-free: both stores, one kept
      const std::uint32_t r = seg[i];
      seg[l] = r;
      spill_[s] = r;
      l += left_[r];
      s += 1 - left_[r];
    }
    std::copy(spill_.begin(), spill_.begin() + static_cast<std::ptrdiff_t>(s), seg + l);
  }
}

/// SSE reduction of the best (feature, quantile threshold) split of the node.
/// A feature's thresholds are lanes filled in one pass over the node's rows:
/// each row adds to the left or the right sums of every lane through a bit
/// mask, not a branch, so each lane sums exactly its own rows in row order.
/// Gains are then scanned in (feature, threshold) order with the tie rule
/// `gain > best + 1e-12`, so the first of equal splits wins.
BestSplit TreeBuilder::best_split(std::size_t begin, std::size_t end) {
  const std::size_t n = end - begin;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ys_[i] = y_[rows_[begin + i]];
    ysq_[i] = ys_[i] * ys_[i];
    sum += ys_[i];
  }
  double parent_mean = sum / static_cast<double>(n);
  double parent_sse = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double d = ys_[i] - parent_mean;
    parent_sse += d * d;
  }

  // Candidate thresholds sit at quantile positions of the sorted values
  // (midpoints between distinct neighbours); the positions depend on n only.
  int nt = std::min<int>(kMaxThresholds, static_cast<int>(n) - 1);
  std::size_t qi[kMaxThresholds], qj[kMaxThresholds];
  for (int t = 1; t <= nt; ++t) {
    qi[t - 1] = static_cast<std::size_t>(
        static_cast<double>(t) / (nt + 1) * static_cast<double>(n - 1));
    qj[t - 1] = std::min(qi[t - 1] + 1, n - 1);
  }

  BestSplit best;
  const std::size_t m = rows_.size();
  double thr[kMaxThresholds], lsum[kMaxThresholds], lsq[kMaxThresholds],
      rsum[kMaxThresholds], rsq[kMaxThresholds];
  std::size_t ln[kMaxThresholds];
  for (std::size_t f = 0; f < width_; ++f) {
    const double* col = cols_.data() + f * n_;
    const std::uint32_t* sorted = sorted_.data() + f * m + begin;
    if (col[sorted[0]] == col[sorted[n - 1]]) continue;  // constant feature here

    // A lane per threshold that leaves kMinSamplesLeaf rows on each side
    // (the others could never win the scan below). The rows going left are
    // a prefix of the sorted segment: everything up to qi, plus ties with
    // qj when the midpoint rounds onto it.
    int lanes = 0;
    for (int t = 0; t < nt; ++t) {
      double a = col[sorted[qi[t]]], b = col[sorted[qj[t]]];
      if (a == b) continue;
      const double threshold = 0.5 * (a + b);
      std::size_t c = qi[t] + 1;
      while (c < n && col[sorted[c]] <= threshold) ++c;
      if (c < static_cast<std::size_t>(kMinSamplesLeaf) ||
          n - c < static_cast<std::size_t>(kMinSamplesLeaf))
        continue;
      thr[lanes] = threshold;
      ln[lanes++] = c;
    }
    if (lanes == 0) continue;

    std::fill_n(lsum, lanes, 0.0);
    std::fill_n(lsq, lanes, 0.0);
    std::fill_n(rsum, lanes, 0.0);
    std::fill_n(rsq, lanes, 0.0);
    // A masked-off row adds +0.0, which leaves a sum that started at +0.0
    // bit-unchanged (such a sum is never -0.0).
    for (std::size_t i = 0; i < n; ++i) {
      const double v = col[rows_[begin + i]], yy = ys_[i], yq = ysq_[i];
      const std::uint64_t yb = std::bit_cast<std::uint64_t>(yy),
                          qb = std::bit_cast<std::uint64_t>(yq);
      for (int j = 0; j < lanes; ++j) {
        const std::uint64_t left = -static_cast<std::uint64_t>(v <= thr[j]);
        lsum[j] += std::bit_cast<double>(yb & left);
        lsq[j] += std::bit_cast<double>(qb & left);
        rsum[j] += std::bit_cast<double>(yb & ~left);
        rsq[j] += std::bit_cast<double>(qb & ~left);
      }
    }

    for (int j = 0; j < lanes; ++j) {
      std::size_t rn = n - ln[j];
      double lsse = lsq[j] - lsum[j] * lsum[j] / static_cast<double>(ln[j]);
      double rsse = rsq[j] - rsum[j] * rsum[j] / static_cast<double>(rn);
      double gain = parent_sse - (lsse + rsse);
      if (gain > best.gain + 1e-12) {
        best = {static_cast<int>(f), thr[j], gain};
      }
    }
  }
  return best;
}

void RegressionTree::fit(const linalg::Matrix& x, std::span<const double> y,
                         std::span<const std::size_t> rows, const GbtOptions& options) {
  TreeBuilder(x).build(*this, y, rows, options.max_depth);
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
  GLIMPSE_SPAN("gbt.fit");
  GLIMPSE_CHECK(x.rows() == y.size());
  GLIMPSE_CHECK(x.rows() >= 2) << "GbtRegressor needs at least 2 samples";
  GLIMPSE_CHECK(x.cols() >= 1) << "GbtRegressor needs at least 1 feature";
  GLIMPSE_CHECK(options_.max_depth >= 0 && options_.max_depth <= kMaxFlatDepth)
      << "GbtRegressor max_depth must lie in [0, " << kMaxFlatDepth << "]";
  trees_.clear();
  num_features_ = 0;

  base_ = 0.0;
  for (double v : y) base_ += v;
  base_ /= static_cast<double>(y.size());

  std::vector<double> residual(y.begin(), y.end());
  for (double& r : residual) r -= base_;

  std::size_t n = x.rows();
  std::size_t sub = std::max<std::size_t>(
      2, static_cast<std::size_t>(kSubsample * static_cast<double>(n)));
  TreeBuilder builder(x);
  for (int t = 0; t < options_.num_trees; ++t) {
    std::vector<std::size_t> rows = rng.sample_without_replacement(n, sub);
    RegressionTree tree;
    builder.build(tree, residual, rows, options_.max_depth);
    // Update residuals on all rows.
    for (std::size_t i = 0; i < n; ++i)
      residual[i] -= kLearningRate * tree.predict(x.row(i));
    trees_.push_back(std::move(tree));
  }

  // Flatten every tree into a complete tree of depth max_depth.
  const int depth = options_.max_depth;
  const std::size_t leaves = std::size_t{1} << depth, inner = leaves - 1;
  flat_feature_.assign(trees_.size() * inner, 0);
  flat_threshold_.assign(trees_.size() * inner, 0.0);
  flat_leaf_.assign(trees_.size() * leaves, 0.0);
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const auto& nodes = trees_[t].nodes();
    int* feature = flat_feature_.data() + t * inner;
    double* threshold = flat_threshold_.data() + t * inner;
    double* leaf = flat_leaf_.data() + t * leaves;
    auto place = [&](auto& self, int id, std::size_t pos, int level) -> void {
      const RegressionTree::Node& node = nodes[static_cast<std::size_t>(id)];
      if (level == depth) {
        leaf[pos - inner] = node.value;
        return;
      }
      if (node.feature >= 0) {
        feature[pos] = node.feature;
        threshold[pos] = node.threshold;
      }
      // A leaf above the last level fills both subtrees (padding nodes keep
      // feature 0, threshold 0: either way leads to the same value).
      self(self, node.feature >= 0 ? node.left : id, 2 * pos + 1, level + 1);
      self(self, node.feature >= 0 ? node.right : id, 2 * pos + 2, level + 1);
    };
    place(place, 0, 0, 0);
  }
  num_features_ = x.cols();
}

void GbtRegressor::predict_rows(const double* x, std::size_t n, double* out) const {
  const int depth = options_.max_depth;
  const std::size_t leaves = std::size_t{1} << depth, inner = leaves - 1;
  std::fill_n(out, n, base_);
  // Blocks of samples descend each tree one level at a time, so the
  // samples' independent compare-and-step chains overlap.
  constexpr std::size_t kBlock = 64;
  std::size_t ids[kBlock];
  for (std::size_t b = 0; b < n; b += kBlock) {
    const std::size_t bn = std::min(kBlock, n - b);
    const double* rows = x + b * num_features_;
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      const int* feature = flat_feature_.data() + t * inner;
      const double* threshold = flat_threshold_.data() + t * inner;
      const double* leaf = flat_leaf_.data() + t * leaves;
      std::fill_n(ids, bn, std::size_t{0});
      for (int d = 0; d < depth; ++d) {
        for (std::size_t s = 0; s < bn; ++s) {
          const std::size_t id = ids[s];
          const double v = rows[s * num_features_ + static_cast<std::size_t>(feature[id])];
          ids[s] = 2 * id + 1 + static_cast<std::size_t>(!(v <= threshold[id]));
        }
      }
      for (std::size_t s = 0; s < bn; ++s) out[b + s] += kLearningRate * leaf[ids[s] - inner];
    }
  }
}

double GbtRegressor::predict(std::span<const double> x) const {
  GLIMPSE_CHECK(fitted());
  GLIMPSE_CHECK(x.size() == num_features_)
      << "GbtRegressor fit on " << num_features_ << " features, got " << x.size();
  double p = 0.0;
  predict_rows(x.data(), 1, &p);
  return p;
}

linalg::Vector GbtRegressor::predict(const linalg::Matrix& x) const {
  GLIMPSE_CHECK(fitted());
  GLIMPSE_CHECK(x.cols() == num_features_)
      << "GbtRegressor fit on " << num_features_ << " features, got " << x.cols();
  linalg::Vector out(x.rows());
  predict_rows(x.data().data(), x.rows(), out.data());
  return out;
}

}  // namespace glimpse::ml
