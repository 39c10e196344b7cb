#include "gp/gp_regression.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/stats.hpp"

namespace glimpse::gp {

double matern52(std::span<const double> a, std::span<const double> b, double lengthscale) {
  double r = std::sqrt(linalg::sqdist(a, b)) / lengthscale;
  double s5r = std::sqrt(5.0) * r;
  return (1.0 + s5r + 5.0 * r * r / 3.0) * std::exp(-s5r);
}

GpRegressor::GpRegressor(double lengthscale, double noise)
    : lengthscale_(lengthscale), noise_(noise) {
  GLIMPSE_CHECK(lengthscale_ > 0.0);
  GLIMPSE_CHECK(noise_ > 0.0);
}

void GpRegressor::fit(const linalg::Matrix& x, const linalg::Vector& y) {
  GLIMPSE_CHECK(x.rows() == y.size() && x.rows() >= 1);
  x_ = x;
  y_mean_ = mean(y);
  y_std_ = std::max(1e-9, stddev(y));

  std::size_t n = x.rows();
  linalg::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double v = matern52(x.row(i), x.row(j), lengthscale_);
      k(i, j) = v;
      k(j, i) = v;
    }
    k(i, i) += noise_;
  }
  chol_ = linalg::cholesky(k);

  linalg::Vector ys(n);
  for (std::size_t i = 0; i < n; ++i) ys[i] = (y[i] - y_mean_) / y_std_;
  alpha_ = linalg::cholesky_solve(chol_, ys);
  fitted_ = true;
}

GpPrediction GpRegressor::predict(std::span<const double> x) const {
  GLIMPSE_CHECK(fitted_) << "GpRegressor::predict before fit";
  std::size_t n = x_.rows();
  linalg::Vector kstar(n);
  for (std::size_t i = 0; i < n; ++i) kstar[i] = matern52(x_.row(i), x, lengthscale_);

  GpPrediction p;
  p.mean = linalg::dot(kstar, alpha_) * y_std_ + y_mean_;
  linalg::Vector v = linalg::forward_substitute(chol_, kstar);
  double kss = matern52(x, x, lengthscale_);
  double var = kss - linalg::dot(v, v);
  p.variance = std::max(0.0, var) * y_std_ * y_std_;
  return p;
}

std::vector<GpPrediction> GpRegressor::predict_batch(const linalg::Matrix& x) const {
  GLIMPSE_CHECK(fitted_) << "GpRegressor::predict_batch before fit";
  GLIMPSE_CHECK(x.empty() || x.cols() == x_.cols())
      << "predict_batch feature dim " << x.cols() << " != train dim " << x_.cols();
  std::vector<GpPrediction> out;
  out.reserve(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) out.push_back(predict(x.row(i)));
  return out;
}

}  // namespace glimpse::gp
