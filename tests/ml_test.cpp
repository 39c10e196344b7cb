#include "common/logging.hpp"
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ml/autoencoder.hpp"
#include "ml/gbt.hpp"
#include "ml/kmeans.hpp"
#include "ml/pca.hpp"
#include "ml/scaler.hpp"

namespace glimpse::ml {
namespace {

// ---------- scaler ----------

TEST(ScalerTest, TransformZeroMeanUnitStd) {
  linalg::Matrix x{{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  StandardScaler s;
  s.fit(x);
  auto z = s.transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    linalg::Vector col = z.col_copy(c);
    EXPECT_NEAR(mean(col), 0.0, 1e-12);
    EXPECT_NEAR(stddev(col), 1.0, 1e-12);
  }
}

TEST(ScalerTest, InverseTransformRoundTrips) {
  linalg::Matrix x{{1.0, -5.0}, {4.0, 0.0}, {9.0, 5.0}};
  StandardScaler s;
  s.fit(x);
  linalg::Vector v = {2.0, 3.0};
  auto back = s.inverse_transform(s.transform(v));
  EXPECT_NEAR(back[0], 2.0, 1e-12);
  EXPECT_NEAR(back[1], 3.0, 1e-12);
}

TEST(ScalerTest, ConstantColumnPassesThrough) {
  linalg::Matrix x{{5.0, 1.0}, {5.0, 2.0}};
  StandardScaler s;
  s.fit(x);
  auto z = s.transform(linalg::Vector{5.0, 1.5});
  EXPECT_DOUBLE_EQ(z[0], 0.0);
  EXPECT_FALSE(std::isnan(z[1]));
}

// ---------- PCA ----------

TEST(PcaTest, RecoversDominantDirection) {
  // Points along y = 2x with small noise: first PC should explain ~all
  // variance.
  Rng rng(1);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 200; ++i) {
    double t = rng.normal();
    rows.push_back({t + 0.01 * rng.normal(), 2.0 * t + 0.01 * rng.normal()});
  }
  Pca pca;
  pca.fit(linalg::Matrix::from_rows(rows), 1);
  EXPECT_GT(pca.explained_variance_ratio(), 0.99);
  EXPECT_LT(pca.reconstruction_rmse(linalg::Matrix::from_rows(rows)), 0.1);
}

TEST(PcaTest, FullRankReconstructionIsExact) {
  Rng rng(2);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 30; ++i)
    rows.push_back({rng.normal(), rng.normal(), rng.normal()});
  linalg::Matrix x = linalg::Matrix::from_rows(rows);
  Pca pca;
  pca.fit(x, 3);
  EXPECT_NEAR(pca.reconstruction_rmse(x), 0.0, 1e-8);
  EXPECT_NEAR(pca.explained_variance_ratio(), 1.0, 1e-9);
}

TEST(PcaTest, TransformRoundTripThroughInverse) {
  Rng rng(3);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 50; ++i) {
    double a = rng.normal(), b = rng.normal();
    rows.push_back({a, b, a + b, a - b});  // rank 2
  }
  linalg::Matrix x = linalg::Matrix::from_rows(rows);
  Pca pca;
  pca.fit(x, 2);
  // Rank-2 data reconstructs exactly from 2 components.
  linalg::Vector v = rows[7];
  auto back = pca.inverse_transform(pca.transform(v));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(back[i], v[i], 1e-8);
}

TEST(PcaTest, MoreComponentsNeverWorse) {
  Rng rng(4);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 40; ++i)
    rows.push_back({rng.normal(), rng.normal(), rng.normal(), rng.normal(),
                    rng.normal()});
  linalg::Matrix x = linalg::Matrix::from_rows(rows);
  double prev = 1e9;
  for (std::size_t k = 1; k <= 5; ++k) {
    Pca pca;
    pca.fit(x, k);
    double loss = pca.reconstruction_rmse(x);
    EXPECT_LE(loss, prev + 1e-9);
    prev = loss;
  }
}

TEST(PcaTest, RejectsBadK) {
  linalg::Matrix x{{1.0, 2.0}, {3.0, 4.0}};
  Pca pca;
  EXPECT_THROW(pca.fit(x, 0), CheckError);
  EXPECT_THROW(pca.fit(x, 3), CheckError);
}

// ---------- k-means ----------

TEST(KMeansTest, SeparatesObviousClusters) {
  Rng rng(5);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 40; ++i) rows.push_back({rng.normal(0, 0.1), rng.normal(0, 0.1)});
  for (int i = 0; i < 40; ++i)
    rows.push_back({rng.normal(10, 0.1), rng.normal(10, 0.1)});
  auto r = kmeans(linalg::Matrix::from_rows(rows), 2, rng);
  // All points of each half share an assignment, different across halves.
  for (int i = 1; i < 40; ++i) EXPECT_EQ(r.assignment[i], r.assignment[0]);
  for (int i = 41; i < 80; ++i) EXPECT_EQ(r.assignment[i], r.assignment[40]);
  EXPECT_NE(r.assignment[0], r.assignment[40]);
}

TEST(KMeansTest, MedoidsAreInputRows) {
  Rng rng(6);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 30; ++i) rows.push_back({rng.normal(), rng.normal()});
  auto r = kmeans(linalg::Matrix::from_rows(rows), 5, rng);
  ASSERT_EQ(r.medoids.size(), 5u);
  for (auto m : r.medoids) EXPECT_LT(m, rows.size());
}

TEST(KMeansTest, KEqualsNGivesZeroInertia) {
  Rng rng(7);
  std::vector<linalg::Vector> rows = {{0.0, 0.0}, {5.0, 0.0}, {0.0, 5.0}};
  auto r = kmeans(linalg::Matrix::from_rows(rows), 3, rng);
  EXPECT_NEAR(r.inertia, 0.0, 1e-9);
}

TEST(KMeansTest, RejectsBadK) {
  Rng rng(8);
  linalg::Matrix x{{1.0}, {2.0}};
  EXPECT_THROW(kmeans(x, 0, rng), CheckError);
  EXPECT_THROW(kmeans(x, 3, rng), CheckError);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  Rng rng(9);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 100; ++i) rows.push_back({rng.normal(), rng.normal()});
  linalg::Matrix x = linalg::Matrix::from_rows(rows);
  auto r2 = kmeans(x, 2, rng);
  auto r10 = kmeans(x, 10, rng);
  EXPECT_LT(r10.inertia, r2.inertia);
}

// ---------- GBT ----------

TEST(GbtTest, FitsLinearFunction) {
  Rng rng(10);
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  for (int i = 0; i < 300; ++i) {
    double a = rng.uniform(-2, 2), b = rng.uniform(-2, 2);
    rows.push_back({a, b});
    y.push_back(3.0 * a - b);
  }
  GbtRegressor gbt;
  gbt.fit(linalg::Matrix::from_rows(rows), y, rng);
  double se = 0.0;
  for (int i = 0; i < 50; ++i) {
    double a = rng.uniform(-1.5, 1.5), b = rng.uniform(-1.5, 1.5);
    double pred = gbt.predict(linalg::Vector{a, b});
    se += (pred - (3.0 * a - b)) * (pred - (3.0 * a - b));
  }
  EXPECT_LT(std::sqrt(se / 50), 0.8);
}

TEST(GbtTest, FitsNonlinearInteraction) {
  Rng rng(11);
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  for (int i = 0; i < 500; ++i) {
    double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    rows.push_back({a, b});
    y.push_back(a * b > 0 ? 1.0 : 0.0);  // XOR-like
  }
  GbtRegressor gbt({.num_trees = 80, .max_depth = 4});
  gbt.fit(linalg::Matrix::from_rows(rows), y, rng);
  int correct = 0;
  for (int i = 0; i < 100; ++i) {
    double a = rng.uniform(-1, 1), b = rng.uniform(-1, 1);
    if (std::abs(a) < 0.15 || std::abs(b) < 0.15) {
      --i;  // skip ambiguous band... re-draw
      continue;
    }
    double pred = gbt.predict(linalg::Vector{a, b});
    if ((pred > 0.5) == (a * b > 0)) ++correct;
  }
  EXPECT_GT(correct, 85);
}

TEST(GbtTest, RankingQualityOnMonotoneTarget) {
  Rng rng(12);
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  for (int i = 0; i < 400; ++i) {
    double a = rng.uniform(0, 1);
    rows.push_back({a, rng.uniform(0, 1)});
    y.push_back(a * a);
  }
  GbtRegressor gbt;
  gbt.fit(linalg::Matrix::from_rows(rows), y, rng);
  std::vector<double> truth, pred;
  for (int i = 0; i < 200; ++i) {
    double a = rng.uniform(0, 1);
    truth.push_back(a * a);
    pred.push_back(gbt.predict(linalg::Vector{a, 0.5}));
  }
  EXPECT_GT(kendall_tau(truth, pred), 0.7);
}

TEST(GbtTest, PredictBeforeFitThrows) {
  GbtRegressor gbt;
  EXPECT_THROW(gbt.predict(linalg::Vector{1.0}), CheckError);
}

TEST(GbtTest, RequiresAtLeastTwoSamples) {
  GbtRegressor gbt;
  Rng rng(13);
  linalg::Matrix x{{1.0}};
  linalg::Vector y = {1.0};
  EXPECT_THROW(gbt.fit(x, y, rng), CheckError);
}

TEST(GbtTest, ConstantTargetPredictsConstant) {
  Rng rng(14);
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  for (int i = 0; i < 50; ++i) {
    rows.push_back({rng.normal()});
    y.push_back(7.0);
  }
  GbtRegressor gbt;
  gbt.fit(linalg::Matrix::from_rows(rows), y, rng);
  EXPECT_NEAR(gbt.predict(linalg::Vector{0.3}), 7.0, 1e-6);
}

TEST(GbtTest, PredictWithWrongWidthThrows) {
  Rng rng(16);
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({rng.normal(), rng.normal(), rng.normal()});
    y.push_back(rows.back()[0]);
  }
  GbtRegressor gbt;
  gbt.fit(linalg::Matrix::from_rows(rows), y, rng);
  EXPECT_NO_THROW(gbt.predict(linalg::Vector{0.1, 0.2, 0.3}));
  EXPECT_THROW(gbt.predict(linalg::Vector{0.1, 0.2}), CheckError);
  EXPECT_THROW(gbt.predict(linalg::Vector{0.1, 0.2, 0.3, 0.4}), CheckError);
  EXPECT_THROW(gbt.predict(linalg::Matrix(5, 2)), CheckError);
  EXPECT_EQ(gbt.predict(linalg::Matrix(5, 3)).size(), 5u);
}

// ---------- GBT: the per-node copy-and-sort fit, kept as an oracle ----------

namespace oracle {

constexpr double kLearningRate = 0.25;
constexpr int kMinSamplesLeaf = 4;
constexpr int kMaxThresholds = 16;
constexpr double kSubsample = 0.85;

using Node = RegressionTree::Node;

struct BestSplit {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

/// The split-search shapes a fit went through: how many thresholds of one
/// feature were kept at a node, and how many a node kept over all features,
/// modulo four (what a four-lane block leaves over).
struct LaneTally {
  std::set<int> per_feature;
  std::set<int> node_tail;
};

/// Copies and sorts each feature's node values, then sums every quantile
/// threshold in its own pass over the node's rows.
BestSplit find_best_split(const linalg::Matrix& x, std::span<const double> y,
                          std::span<const std::size_t> rows, LaneTally* tally) {
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
  int node_lanes = 0;
  std::vector<double> values(n);
  for (std::size_t f = 0; f < x.cols(); ++f) {
    for (std::size_t i = 0; i < n; ++i) values[i] = x(rows[i], f);
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front() == sorted.back()) continue;

    int nt = std::min<int>(kMaxThresholds, static_cast<int>(n) - 1);
    int lanes = 0;
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
      ++lanes;
      double lsse = lsq - lsum * lsum / static_cast<double>(ln);
      double rsse = rsq - rsum * rsum / static_cast<double>(rn);
      double gain = parent_sse - (lsse + rsse);
      if (gain > best.gain + 1e-12) best = {static_cast<int>(f), thr, gain};
    }
    if (tally != nullptr && lanes > 0) tally->per_feature.insert(lanes);
    node_lanes += lanes;
  }
  if (tally != nullptr && node_lanes > 0) tally->node_tail.insert(node_lanes % 4);
  return best;
}

int build(std::vector<Node>& nodes, const linalg::Matrix& x, std::span<const double> y,
          std::vector<std::size_t>& rows, std::size_t begin, std::size_t end, int depth,
          int max_depth, LaneTally* tally = nullptr) {
  std::size_t n = end - begin;
  double mean = 0.0;
  for (std::size_t i = begin; i < end; ++i) mean += y[rows[i]];
  mean /= static_cast<double>(n);

  int node_id = static_cast<int>(nodes.size());
  nodes.push_back(Node{});
  nodes[node_id].value = mean;
  if (depth >= max_depth || n < 2 * static_cast<std::size_t>(kMinSamplesLeaf))
    return node_id;

  BestSplit split = find_best_split(x, y, {rows.data() + begin, n}, tally);
  if (split.feature < 0) return node_id;
  auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t r) { return x(r, split.feature) <= split.threshold; });
  std::size_t mid = static_cast<std::size_t>(mid_it - rows.begin());
  if (mid == begin || mid == end) return node_id;

  nodes[node_id].feature = split.feature;
  nodes[node_id].threshold = split.threshold;
  int left = build(nodes, x, y, rows, begin, mid, depth + 1, max_depth, tally);
  int right = build(nodes, x, y, rows, mid, end, depth + 1, max_depth, tally);
  nodes[node_id].left = left;
  nodes[node_id].right = right;
  return node_id;
}

double walk(const std::vector<Node>& nodes, std::span<const double> x) {
  int id = 0;
  while (nodes[id].feature >= 0) {
    const Node& n = nodes[id];
    id = (x[static_cast<std::size_t>(n.feature)] <= n.threshold) ? n.left : n.right;
  }
  return nodes[id].value;
}

struct Forest {
  double base = 0.0;
  std::vector<std::vector<Node>> trees;

  double predict(std::span<const double> x) const {
    double p = base;
    for (const auto& t : trees) p += kLearningRate * walk(t, x);
    return p;
  }
};

Forest fit(const linalg::Matrix& x, std::span<const double> y, const GbtOptions& options,
           Rng& rng, LaneTally* tally = nullptr) {
  Forest forest;
  for (double v : y) forest.base += v;
  forest.base /= static_cast<double>(y.size());
  std::vector<double> residual(y.begin(), y.end());
  for (double& r : residual) r -= forest.base;
  std::size_t n = x.rows();
  std::size_t sub = std::max<std::size_t>(
      2, static_cast<std::size_t>(kSubsample * static_cast<double>(n)));
  for (int t = 0; t < options.num_trees; ++t) {
    std::vector<std::size_t> rows = rng.sample_without_replacement(n, sub);
    std::vector<Node> nodes;
    build(nodes, x, residual, rows, 0, rows.size(), 0, options.max_depth, tally);
    for (std::size_t i = 0; i < n; ++i)
      residual[i] -= kLearningRate * walk(nodes, x.row(i));
    forest.trees.push_back(std::move(nodes));
  }
  return forest;
}

}  // namespace oracle

/// A random fit input full of what trips a split search: tied values, constant
/// columns, few-level columns (repeated quantiles) and tied targets.
void random_fit_input(Rng& gen, std::size_t n, std::size_t cols, linalg::Matrix& x,
                      linalg::Vector& y) {
  x = linalg::Matrix(n, cols);
  for (std::size_t f = 0; f < cols; ++f) {
    std::size_t kind = gen.index(4);
    double level = gen.normal();
    for (std::size_t r = 0; r < n; ++r) {
      switch (kind) {
        case 0: x(r, f) = gen.normal(); break;                       // continuous
        case 1: x(r, f) = static_cast<double>(gen.index(3)); break;  // three levels
        case 2: x(r, f) = level; break;                              // constant
        default: x(r, f) = gen.chance(0.85) ? level : gen.normal();  // mostly tied
      }
    }
  }
  y.assign(n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    y[r] = gen.chance(0.3) ? 1.0 : x(r, 0) + 0.5 * gen.normal();
}

/// `v` stepped up by `k` representable doubles.
double ulps_above(double v, std::size_t k) {
  for (; k > 0; --k) v = std::nextafter(v, std::numeric_limits<double>::infinity());
  return v;
}

/// A fit input shaped like the tuners': mostly few-level columns of log2
/// split factors and log2(1 + count), some log-scaled derived quantities
/// (wide-ranging, or over 64 values with ties), some constant knobs; targets
/// with ties at 0 (invalid configs). Some columns hold adjacent doubles,
/// whose midpoints round onto a neighbour: then rows equal the threshold
/// and go left, and on a round onto the right neighbour its ties go left too.
void tuner_fit_input(Rng& gen, std::size_t n, std::size_t cols, linalg::Matrix& x,
                     linalg::Vector& y) {
  x = linalg::Matrix(n, cols);
  for (std::size_t f = 0; f < cols; ++f) {
    const std::size_t kind = gen.index(9);
    const std::size_t levels = 2 + gen.index(7);  // 2..8
    for (std::size_t r = 0; r < n; ++r) {
      const auto factor = static_cast<double>(std::size_t{1} << gen.index(levels));
      switch (kind) {
        case 0: x(r, f) = 3.0; break;                                  // one-option knob
        case 1: x(r, f) = std::log2(gen.uniform(1.0, 1e6) + 1.0); break;  // derived
        case 2: x(r, f) = std::log2(static_cast<double>(1 + gen.index(64))); break;
        case 3: x(r, f) = std::log2(factor + 1.0); break;                // count
        case 4: x(r, f) = ulps_above(1.5, gen.index(levels)); break;     // adjacent doubles
        default: x(r, f) = std::log2(factor);                            // split factor
      }
    }
  }
  y.assign(n, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    y[r] = gen.chance(0.25) ? 0.0 : 1.0 + x(r, 0) - 0.5 * x(r, cols - 1) + 0.3 * gen.normal();
}

void expect_same_nodes(const std::vector<RegressionTree::Node>& got,
                       const std::vector<RegressionTree::Node>& want, std::size_t tree) {
  ASSERT_EQ(got.size(), want.size()) << "tree " << tree;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].feature, want[i].feature) << "tree " << tree << " node " << i;
    EXPECT_EQ(got[i].threshold, want[i].threshold) << "tree " << tree << " node " << i;
    EXPECT_EQ(got[i].left, want[i].left) << "tree " << tree << " node " << i;
    EXPECT_EQ(got[i].right, want[i].right) << "tree " << tree << " node " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "tree " << tree << " node " << i;
  }
}

/// Fits (x, y) and the oracle from one seed; node arrays and predictions
/// (training rows, fresh rows drawn from `gen`, a NaN row) must be equal.
void expect_fit_matches_reference(const linalg::Matrix& x, const linalg::Vector& y,
                                  const GbtOptions& options, std::uint64_t seed, Rng& gen,
                                  oracle::LaneTally* tally = nullptr) {
  Rng rng(seed), ref_rng(seed);
  GbtRegressor gbt(options);
  gbt.fit(x, y, rng);
  const oracle::Forest ref = oracle::fit(x, y, options, ref_rng, tally);

  ASSERT_EQ(gbt.num_trees(), ref.trees.size());
  for (std::size_t t = 0; t < ref.trees.size(); ++t)
    expect_same_nodes(gbt.trees()[t].nodes(), ref.trees[t], t);

  // The training rows, fresh rows, and a NaN row (which goes right at
  // every split, as the node walk sends it).
  const std::size_t cols = x.cols();
  std::vector<linalg::Vector> queries;
  for (std::size_t r = 0; r < x.rows(); ++r)
    queries.emplace_back(x.row(r).begin(), x.row(r).end());
  for (int q = 0; q < 8; ++q) {
    linalg::Vector v(cols);
    for (double& e : v) e = gen.normal();
    queries.push_back(v);
  }
  queries.emplace_back(cols, std::numeric_limits<double>::quiet_NaN());
  const linalg::Matrix qx = linalg::Matrix::from_rows(queries);
  const linalg::Vector batch = gbt.predict(qx);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t r = 0; r < queries.size(); ++r) {
    const double want = ref.predict(queries[r]);
    EXPECT_EQ(gbt.predict(queries[r]), want) << "query " << r;
    EXPECT_EQ(batch[r], want) << "query " << r;
  }
}

TEST(GbtTest, FitMatchesReferenceBitForBit) {
  Rng gen(17);
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t n = 2 + gen.index(199);  // 2..200 rows
    const std::size_t cols = 1 + gen.index(8);
    const GbtOptions options{.num_trees = 1 + static_cast<int>(gen.index(10)),
                             .max_depth = 1 + static_cast<int>(gen.index(6))};
    linalg::Matrix x;
    linalg::Vector y;
    random_fit_input(gen, n, cols, x, y);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ": n=" << n << " cols=" << cols
                                      << " trees=" << options.num_trees
                                      << " depth=" << options.max_depth);
    expect_fit_matches_reference(x, y, options, 1000 + trial, gen);
  }

  // The tuners' regime: 12-80 rows of 20-32 mostly few-level columns. The
  // node splits there keep 1 to 16 thresholds of a feature, and every
  // remainder of a node's lanes over blocks of four.
  oracle::LaneTally tally;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 12 + gen.index(69);
    const std::size_t cols = 20 + gen.index(13);
    const GbtOptions options{.num_trees = 10 + static_cast<int>(gen.index(51)),
                             .max_depth = 3 + static_cast<int>(gen.index(3))};
    linalg::Matrix x;
    linalg::Vector y;
    tuner_fit_input(gen, n, cols, x, y);
    SCOPED_TRACE(::testing::Message() << "tuner trial " << trial << ": n=" << n
                                      << " cols=" << cols << " trees=" << options.num_trees
                                      << " depth=" << options.max_depth);
    expect_fit_matches_reference(x, y, options, 2000 + trial, gen, &tally);
  }
  const std::set<int> one_to_sixteen = [] {
    std::set<int> all;
    for (int k = 1; k <= 16; ++k) all.insert(k);
    return all;
  }();
  EXPECT_EQ(tally.per_feature, one_to_sixteen);
  EXPECT_EQ(tally.node_tail, (std::set<int>{0, 1, 2, 3}));
}

TEST(GbtTest, BatchPredictMatchesPerRowBitForBit) {
  Rng gen(18);
  for (int depth : {0, 1, 4, 6}) {
    linalg::Matrix x;
    linalg::Vector y;
    random_fit_input(gen, 120, 6, x, y);
    GbtRegressor gbt({.num_trees = 25, .max_depth = depth});
    gbt.fit(x, y, gen);
    linalg::Matrix q(48, 6);
    for (double& v : q.data()) v = gen.chance(0.5) ? x(gen.index(120), 0) : gen.normal();
    const linalg::Vector batch = gbt.predict(q);
    ASSERT_EQ(batch.size(), 48u);
    for (std::size_t r = 0; r < q.rows(); ++r)
      EXPECT_EQ(batch[r], gbt.predict(q.row(r))) << "depth " << depth << " row " << r;
  }
}

// ---------- autoencoder ----------

TEST(AutoencoderTest, CompressesLowRankData) {
  // Rank-2 structure in 4 dims: a 2-dim bottleneck should reconstruct well.
  Rng rng(20);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 60; ++i) {
    double a = rng.normal(), b = rng.normal();
    rows.push_back({a, b, 0.5 * a + 0.5 * b, a - b});
  }
  linalg::Matrix x = linalg::Matrix::from_rows(rows);
  Autoencoder ae(x, 2, rng, {.hidden = 12, .epochs = 300});
  EXPECT_LT(ae.reconstruction_rmse(x), 0.35);
  EXPECT_EQ(ae.bottleneck_dim(), 2u);
}

TEST(AutoencoderTest, EncodeDecodeShapes) {
  Rng rng(21);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 20; ++i) rows.push_back({rng.normal(), rng.normal(), rng.normal()});
  linalg::Matrix x = linalg::Matrix::from_rows(rows);
  Autoencoder ae(x, 2, rng, {.hidden = 8, .epochs = 10});
  auto z = ae.encode(rows[0]);
  EXPECT_EQ(z.size(), 2u);
  EXPECT_EQ(ae.decode(z).size(), 3u);
}

TEST(AutoencoderTest, ParamCountReflectsArchitecture) {
  Rng rng(22);
  linalg::Matrix x{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  Autoencoder ae(x, 1, rng, {.hidden = 4, .epochs = 1});
  // encoder (2*4+4)+(4*1+1) + decoder (1*4+4)+(4*2+2) = 17 + 18 = 35
  EXPECT_EQ(ae.num_params(), 35u);
}

TEST(AutoencoderTest, RejectsBadBottleneck) {
  Rng rng(23);
  linalg::Matrix x{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_THROW(Autoencoder(x, 0, rng), CheckError);
  EXPECT_THROW(Autoencoder(x, 3, rng), CheckError);
}

// RegressionTree::fit takes rows with multiplicity: a row passed k times
// counts k times in every sum and is routed as one.
TEST(RegressionTreeTest, RepeatedRowsMatchReference) {
  Rng gen(19);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 12 + gen.index(69);
    const std::size_t cols = 1 + gen.index(32);
    const int depth = static_cast<int>(gen.index(7));
    linalg::Matrix x;
    linalg::Vector y;
    if (trial % 2 == 0)
      random_fit_input(gen, n, cols, x, y);
    else
      tuner_fit_input(gen, n, cols, x, y);
    // Drawn with replacement, then one row three more times.
    std::vector<std::size_t> rows(1 + gen.index(2 * n));
    for (std::size_t& r : rows) r = gen.index(n);
    rows.insert(rows.end(), 3, rows[gen.index(rows.size())]);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ": n=" << n << " cols=" << cols
                                      << " rows=" << rows.size() << " depth=" << depth);

    RegressionTree tree;
    tree.fit(x, y, rows, GbtOptions{.max_depth = depth});
    std::vector<RegressionTree::Node> want;
    std::vector<std::size_t> ref_rows = rows;
    oracle::build(want, x, y, ref_rows, 0, ref_rows.size(), 0, depth);
    expect_same_nodes(tree.nodes(), want, 0);
  }
}

TEST(RegressionTreeTest, SingleSplitRecoversStep) {
  // y = 1 for x > 0.5 else 0; one split should capture it.
  Rng rng(15);
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  for (int i = 0; i < 200; ++i) {
    double a = rng.uniform(0, 1);
    rows.push_back({a});
    y.push_back(a > 0.5 ? 1.0 : 0.0);
  }
  linalg::Matrix x = linalg::Matrix::from_rows(rows);
  std::vector<std::size_t> all(200);
  for (std::size_t i = 0; i < 200; ++i) all[i] = i;
  RegressionTree tree;
  tree.fit(x, y, all, GbtOptions{.max_depth = 2});
  EXPECT_NEAR(tree.predict(linalg::Vector{0.9}), 1.0, 0.1);
  EXPECT_NEAR(tree.predict(linalg::Vector{0.1}), 0.0, 0.1);
}

}  // namespace
}  // namespace glimpse::ml
