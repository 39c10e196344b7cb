#include "ml/gbt.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

#include "common/logging.hpp"
#include "common/telemetry/telemetry.hpp"
#include "linalg/simd.hpp"

namespace glimpse::ml {

namespace {

constexpr double kLearningRate = 0.25;
constexpr int kMinSamplesLeaf = 4;
constexpr int kMaxThresholds = 16;  ///< candidate split thresholds per feature (quantiles)
constexpr double kSubsample = 0.85;  ///< row subsampling per tree
constexpr int kMaxFlatDepth = 16;    ///< a flat tree holds 2^max_depth leaves
/// ORed into a double's bits, makes it a NaN.
constexpr std::uint64_t kQuietNan = 0x7ff8'0000'0000'0000;

struct BestSplit {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

/// A node's split candidates, all features' in (feature, threshold) order.
/// Lane k sends the node's rows with col[k][row] <= thr[k] left: n_left[k]
/// of them, a whole number held as a double for the gain. The arrays have
/// room for whole blocks of four lanes.
struct Lanes {
  std::vector<const double*> col;
  std::vector<double> thr, n_left, gain;
  std::vector<int> feature;

  void resize(std::size_t n) {
    col.resize(n);
    thr.resize(n);
    n_left.resize(n);
    gain.resize(n);
    feature.resize(n);
  }
  /// Fills [count, next multiple of four) with copies of lane count - 1.
  void pad(std::size_t count) {
    for (std::size_t k = count; k % 4 != 0; ++k) {
      col[k] = col[count - 1];
      thr[k] = thr[count - 1];
      n_left[k] = n_left[count - 1];
    }
  }
};

/// gain[k] = parent_sse − (left SSE + right SSE) of lane k < `count`. Row i
/// of the node is rows[i], and yq[4i, 4i + 4) holds its y, y, y·y, y·y (each
/// twice, so the blocked kernel loads them as pairs). Each lane sums
/// its left and right y and y·y in row order: a row's values are ANDed with
/// an all-ones or all-zeros mask from `v <= thr`, so it adds itself or +0.0,
/// which leaves a sum that started at +0.0 bit-unchanged (such a sum is
/// never -0.0).
void lane_gains_scalar(Lanes& lanes, std::size_t count, const std::size_t* rows,
                       const double* yq, std::size_t n, double parent_sse) {
  for (std::size_t k = 0; k < count; ++k) {
    const double* col = lanes.col[k];
    const double thr = lanes.thr[k];
    double lsum = 0.0, lsq = 0.0, rsum = 0.0, rsq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t left = -static_cast<std::uint64_t>(col[rows[i]] <= thr);
      const std::uint64_t yb = std::bit_cast<std::uint64_t>(yq[4 * i]),
                          qb = std::bit_cast<std::uint64_t>(yq[4 * i + 2]);
      lsum += std::bit_cast<double>(yb & left);
      lsq += std::bit_cast<double>(qb & left);
      rsum += std::bit_cast<double>(yb & ~left);
      rsq += std::bit_cast<double>(qb & ~left);
    }
    const double lsse = lsq - lsum * lsum / lanes.n_left[k];
    const double rsse = rsq - rsum * rsum / (static_cast<double>(n) - lanes.n_left[k]);
    lanes.gain[k] = parent_sse - (lsse + rsse);
  }
}

#if GLIMPSE_SIMD_X86
/// lane_gains_scalar, bit for bit, one pass over the rows per block of four
/// lanes: the block's 16 sums live in eight registers, and the masks come
/// from _mm_cmple_pd, all-ones exactly where `v <= thr` holds (NaN goes
/// right in both). The gains are the same elementwise operations, two lanes
/// at a time. The lanes past `count` in the last block are computed and
/// ignored.
void lane_gains_sse2(Lanes& lanes, std::size_t count, const std::size_t* rows,
                     const double* yq, std::size_t n, double parent_sse) {
  const __m128d parent = _mm_set1_pd(parent_sse), node_n = _mm_set1_pd(static_cast<double>(n));
  for (std::size_t k = 0; k < count; k += 4) {
    const double *c0 = lanes.col[k], *c1 = lanes.col[k + 1], *c2 = lanes.col[k + 2],
                 *c3 = lanes.col[k + 3];
    const __m128d t01 = _mm_loadu_pd(&lanes.thr[k]), t23 = _mm_loadu_pd(&lanes.thr[k + 2]);
    __m128d ls01 = _mm_setzero_pd(), ls23 = _mm_setzero_pd();
    __m128d lq01 = _mm_setzero_pd(), lq23 = _mm_setzero_pd();
    __m128d rs01 = _mm_setzero_pd(), rs23 = _mm_setzero_pd();
    __m128d rq01 = _mm_setzero_pd(), rq23 = _mm_setzero_pd();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = rows[i];
      const __m128d v01 = _mm_set_pd(c1[r], c0[r]), v23 = _mm_set_pd(c3[r], c2[r]);
      const __m128d y = _mm_loadu_pd(yq + 4 * i), q = _mm_loadu_pd(yq + 4 * i + 2);
      const __m128d m01 = _mm_cmple_pd(v01, t01), m23 = _mm_cmple_pd(v23, t23);
      ls01 = _mm_add_pd(ls01, _mm_and_pd(m01, y));
      ls23 = _mm_add_pd(ls23, _mm_and_pd(m23, y));
      lq01 = _mm_add_pd(lq01, _mm_and_pd(m01, q));
      lq23 = _mm_add_pd(lq23, _mm_and_pd(m23, q));
      rs01 = _mm_add_pd(rs01, _mm_andnot_pd(m01, y));
      rs23 = _mm_add_pd(rs23, _mm_andnot_pd(m23, y));
      rq01 = _mm_add_pd(rq01, _mm_andnot_pd(m01, q));
      rq23 = _mm_add_pd(rq23, _mm_andnot_pd(m23, q));
    }
    auto gain = [&](__m128d ls, __m128d lq, __m128d rs, __m128d rq, std::size_t j) {
      const __m128d n_left = _mm_loadu_pd(&lanes.n_left[j]);
      const __m128d lsse = _mm_sub_pd(lq, _mm_div_pd(_mm_mul_pd(ls, ls), n_left));
      const __m128d rsse =
          _mm_sub_pd(rq, _mm_div_pd(_mm_mul_pd(rs, rs), _mm_sub_pd(node_n, n_left)));
      _mm_storeu_pd(&lanes.gain[j], _mm_sub_pd(parent, _mm_add_pd(lsse, rsse)));
    };
    gain(ls01, lq01, rs01, rq01, k);
    gain(ls23, lq23, rs23, rq23, k + 2);
  }
}
#endif

void lane_gains(Lanes& lanes, std::size_t count, const std::size_t* rows, const double* yq,
                std::size_t n, double parent_sse, linalg::kernels::Isa isa) {
#if GLIMPSE_SIMD_X86
  if (isa == linalg::kernels::Isa::kAvx2) {
    lane_gains_sse2(lanes, count, rows, yq, n, parent_sse);
    return;
  }
#else
  (void)isa;
#endif
  lane_gains_scalar(lanes, count, rows, yq, n, parent_sse);
}

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

  /// Per row of x: the node id of the leaf the last build() put it in, or
  /// -1 when the row was not in that tree's rows.
  const std::vector<int>& leaf_of() const { return leaf_; }

 private:
  int grow(std::size_t begin, std::size_t end, int depth);
  /// `mean` is the node's mean y, summed in row order.
  BestSplit best_split(std::size_t begin, std::size_t end, double mean);
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
  std::vector<int> leaf_;              ///< per row of x: see leaf_of()
  std::vector<double> yq_;             ///< the node's y and y·y in row order (lane_gains)
  Lanes lanes_;                        ///< the node's split candidates
};

TreeBuilder::TreeBuilder(const linalg::Matrix& x)
    : n_(x.rows()),
      width_(x.cols()),
      cols_(n_ * width_),
      presort_(n_ * width_),
      count_(n_, 0),
      left_(n_, 0),
      leaf_(n_, -1) {
  // Room for every threshold of every feature, one written past the last
  // kept lane, and the padding of the last block.
  lanes_.resize(width_ * kMaxThresholds + 4);
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
  // Branch-free but for repeated rows: every row is stored and the cursor
  // advances by its count, so a row outside the tree is overwritten by the
  // next one. The last feature's may land in the slack slot at the end.
  sorted_.resize(width_ * m + 1);
  for (std::size_t f = 0; f < width_; ++f) {
    std::uint32_t* out = sorted_.data() + f * m;
    const std::uint32_t* order = presort_.data() + f * n_;
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint32_t r = order[i], c = count_[r];
      *out = r;
      if (c > 1) std::fill_n(out + 1, c - 1, r);
      out += c;
    }
  }
  for (std::size_t r : rows_) count_[r] = 0;
  std::fill(leaf_.begin(), leaf_.end(), -1);
  spill_.resize(m);
  yq_.resize(4 * m);
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
  auto leaf = [&] {
    for (std::size_t i = begin; i < end; ++i) leaf_[rows_[i]] = node_id;
    return node_id;
  };

  if (depth >= max_depth_ || n < 2 * static_cast<std::size_t>(kMinSamplesLeaf))
    return leaf();

  BestSplit split = best_split(begin, end, mean);
  if (split.feature < 0) return leaf();

  const double* col = cols_.data() + static_cast<std::size_t>(split.feature) * n_;
  auto mid_it = std::partition(
      rows_.begin() + static_cast<std::ptrdiff_t>(begin),
      rows_.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return col[r] <= split.threshold; });
  std::size_t mid = static_cast<std::size_t>(mid_it - rows_.begin());
  if (mid == begin || mid == end) return leaf();  // degenerate partition
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

/// The best (feature, quantile threshold) split of the node. Every feature's
/// thresholds become lanes of one list, whose gains lane_gains computes in
/// one pass over the node's rows per block of four lanes. Gains are then
/// scanned in (feature, threshold) order with the tie rule
/// `gain > best + 1e-12`, so the first of equal splits wins.
BestSplit TreeBuilder::best_split(std::size_t begin, std::size_t end, double mean) {
  const std::size_t n = end - begin;
  double parent_sse = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double y = y_[rows_[begin + i]], d = y - mean;
    yq_[4 * i] = yq_[4 * i + 1] = y;
    yq_[4 * i + 2] = yq_[4 * i + 3] = y * y;
    parent_sse += d * d;
  }

  // Candidate thresholds sit at quantile positions of the sorted values
  // (midpoints between distinct neighbours); the positions depend on n only.
  // At least qi + 1 rows go left at a threshold, so only the first `nt`
  // positions can leave kMinSamplesLeaf rows on the right.
  const std::size_t min_leaf = kMinSamplesLeaf;
  const int quantiles = std::min<int>(kMaxThresholds, static_cast<int>(n) - 1);
  int nt = 0;
  std::size_t qi[kMaxThresholds];
  for (int t = 1; t <= quantiles; ++t) {
    const auto q = static_cast<std::size_t>(static_cast<double>(t) / (quantiles + 1) *
                                            static_cast<double>(n - 1));
    if (q + 1 + min_leaf > n) break;
    qi[nt++] = q;
  }

  // A lane per threshold between distinct neighbours a < b that leaves
  // kMinSamplesLeaf rows on each side (the others could never win the scan
  // below). The rows going left are a prefix of the sorted segment:
  // everything up to a, plus ties with b when the midpoint rounds onto b.
  // Every threshold is written and the lane count advances only for a kept
  // one, so the data-dependent tests are not branches.
  const std::size_t m = rows_.size();
  const double** lane_col = lanes_.col.data();
  double* lane_thr = lanes_.thr.data();
  double* lane_n_left = lanes_.n_left.data();
  int* lane_feature = lanes_.feature.data();
  std::size_t count = 0;
  for (std::size_t f = 0; f < width_; ++f) {
    const double* col = cols_.data() + f * n_;
    const std::uint32_t* sorted = sorted_.data() + f * m + begin;
    if (col[sorted[0]] == col[sorted[n - 1]]) continue;  // constant feature here
    for (int t = 0; t < nt; ++t) {
      const std::size_t c0 = qi[t] + 1;  // < n, so b exists
      const double a = col[sorted[c0 - 1]], b = col[sorted[c0]];
      const double threshold = 0.5 * (a + b);
      const bool distinct = a != b;
      // Tied neighbours probe with NaN, so the one branch is taken only when
      // the midpoint of distinct a < b rounds onto b.
      const double probe = std::bit_cast<double>(
          std::bit_cast<std::uint64_t>(b) | (-std::uint64_t{!distinct} & kQuietNan));
      std::size_t c = c0;
      if (probe <= threshold)
        while (c < n && col[sorted[c]] <= threshold) ++c;
      lane_col[count] = col;
      lane_thr[count] = threshold;
      lane_n_left[count] = static_cast<double>(c);
      lane_feature[count] = static_cast<int>(f);
      count += distinct & (c >= min_leaf) & (n - c >= min_leaf);
    }
  }
  BestSplit best;
  if (count == 0) return best;
  lanes_.pad(count);
  lane_gains(lanes_, count, rows_.data() + begin, yq_.data(), n, parent_sse,
             linalg::kernels::select(linalg::simd_enabled()));
  for (std::size_t k = 0; k < count; ++k)
    if (lanes_.gain[k] > best.gain + 1e-12)
      best = {lanes_.feature[k], lanes_.thr[k], lanes_.gain[k]};
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
    // Update residuals on all rows. The builder knows the leaf of every row
    // it grew the tree on (the split's `<=` test is the walk's); only the
    // rows outside the subsample walk the tree.
    const std::vector<int>& leaf = builder.leaf_of();
    const auto& nodes = tree.nodes();
    for (std::size_t i = 0; i < n; ++i)
      residual[i] -= kLearningRate * (leaf[i] >= 0 ? nodes[static_cast<std::size_t>(leaf[i])].value
                                                   : tree.predict(x.row(i)));
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
