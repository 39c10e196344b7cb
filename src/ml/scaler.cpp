#include "ml/scaler.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace glimpse::ml {

void StandardScaler::fit(const linalg::Matrix& x) {
  GLIMPSE_CHECK(x.rows() > 0);
  std::size_t d = x.cols();
  mean_.assign(d, 0.0);
  std_.assign(d, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < d; ++c) mean_[c] += x(r, c);
  for (double& m : mean_) m /= static_cast<double>(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < d; ++c) {
      double dv = x(r, c) - mean_[c];
      std_[c] += dv * dv;
    }
  for (double& s : std_) {
    s = std::sqrt(s / static_cast<double>(x.rows()));
    if (s < 1e-12) s = 1.0;  // constant column: pass through
  }
}

linalg::Vector StandardScaler::transform(std::span<const double> x) const {
  GLIMPSE_CHECK(fitted() && x.size() == mean_.size());
  linalg::Vector z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = (x[i] - mean_[i]) / std_[i];
  return z;
}

linalg::Matrix StandardScaler::transform(const linalg::Matrix& x) const {
  GLIMPSE_CHECK(fitted() && x.cols() == mean_.size());
  linalg::Matrix z(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    auto xr = x.row(r);
    auto zr = z.row(r);
    for (std::size_t c = 0; c < xr.size(); ++c) zr[c] = (xr[c] - mean_[c]) / std_[c];
  }
  return z;
}

linalg::Vector StandardScaler::inverse_transform(std::span<const double> z) const {
  GLIMPSE_CHECK(fitted() && z.size() == mean_.size());
  linalg::Vector x(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) x[i] = z[i] * std_[i] + mean_[i];
  return x;
}

}  // namespace glimpse::ml

namespace glimpse::ml {

void StandardScaler::save(TextWriter& w) const {
  w.tag("scaler");
  w.vector(mean_);
  w.vector(std_);
}

StandardScaler StandardScaler::load(TextReader& r) {
  r.expect("scaler");
  StandardScaler s;
  s.mean_ = r.vector();
  s.std_ = r.vector();
  GLIMPSE_CHECK(s.mean_.size() == s.std_.size());
  return s;
}

}  // namespace glimpse::ml
