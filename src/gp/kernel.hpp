// Covariance kernels for Gaussian-process regression.
#pragma once

#include <memory>
#include <span>

namespace glimpse::gp {

class Kernel {
 public:
  virtual ~Kernel() = default;
  virtual double operator()(std::span<const double> a,
                            std::span<const double> b) const = 0;
  virtual std::unique_ptr<Kernel> clone() const = 0;
};

/// Squared-exponential kernel: variance * exp(-||a-b||^2 / (2 l^2)).
class RbfKernel final : public Kernel {
 public:
  explicit RbfKernel(double lengthscale = 1.0, double variance = 1.0)
      : lengthscale_(lengthscale), variance_(variance) {}
  double operator()(std::span<const double> a, std::span<const double> b) const override;
  std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<RbfKernel>(*this);
  }

 private:
  double lengthscale_;
  double variance_;
};

/// Matern 5/2 kernel — the default in most BO packages; less smooth than RBF.
class Matern52Kernel final : public Kernel {
 public:
  explicit Matern52Kernel(double lengthscale = 1.0, double variance = 1.0)
      : lengthscale_(lengthscale), variance_(variance) {}
  double operator()(std::span<const double> a, std::span<const double> b) const override;
  std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<Matern52Kernel>(*this);
  }

 private:
  double lengthscale_;
  double variance_;
};

}  // namespace glimpse::gp
