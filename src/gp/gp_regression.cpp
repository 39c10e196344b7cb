#include "gp/gp_regression.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/stats.hpp"

namespace glimpse::gp {

GpRegressor::GpRegressor(std::unique_ptr<Kernel> kernel, double noise)
    : kernel_(std::move(kernel)), noise_(noise) {
  GLIMPSE_CHECK(kernel_ != nullptr);
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
      double v = (*kernel_)(x.row(i), x.row(j));
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
  for (std::size_t i = 0; i < n; ++i) kstar[i] = (*kernel_)(x_.row(i), x);

  GpPrediction p;
  p.mean = linalg::dot(kstar, alpha_) * y_std_ + y_mean_;
  linalg::Vector v = linalg::forward_substitute(chol_, kstar);
  double kss = (*kernel_)(x, x);
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
