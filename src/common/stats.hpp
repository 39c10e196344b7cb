// Small statistics helpers shared by metrics, ML code, and benches.
#pragma once

#include <span>
#include <vector>

namespace glimpse {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  // population variance
double stddev(std::span<const double> xs);
double median(std::vector<double> xs);  // by value: needs to sort a copy
double percentile(std::vector<double> xs, double p);  // p in [0,100]
double geomean(std::span<const double> xs);           // all xs must be > 0

/// Kendall rank correlation (tau-a); O(n^2), fine for n <= a few thousand.
double kendall_tau(std::span<const double> xs, std::span<const double> ys);

}  // namespace glimpse
