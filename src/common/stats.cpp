#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hpp"

namespace glimpse {

double mean(std::span<const double> xs) {
  GLIMPSE_CHECK(!xs.empty());
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  GLIMPSE_CHECK(!xs.empty());
  GLIMPSE_CHECK(p >= 0.0 && p <= 100.0);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double geomean(std::span<const double> xs) {
  GLIMPSE_CHECK(!xs.empty());
  double s = 0.0;
  for (double x : xs) {
    GLIMPSE_CHECK(x > 0.0) << "geomean requires positive values, got " << x;
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(xs.size()));
}

double kendall_tau(std::span<const double> xs, std::span<const double> ys) {
  GLIMPSE_CHECK(xs.size() == ys.size());
  std::size_t n = xs.size();
  if (n < 2) return 0.0;
  long long concordant = 0, discordant = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double dx = xs[i] - xs[j], dy = ys[i] - ys[j];
      double prod = dx * dy;
      if (prod > 0) ++concordant;
      else if (prod < 0) ++discordant;
      // ties contribute to neither (tau-a)
    }
  }
  double pairs = static_cast<double>(n) * static_cast<double>(n - 1) / 2.0;
  return static_cast<double>(concordant - discordant) / pairs;
}

}  // namespace glimpse
