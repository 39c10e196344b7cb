#include "nn/adam.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace glimpse::nn {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

}  // namespace

Adam::Adam(const Mlp& model, AdamOptions options) : options_(options) {
  m_ = model.zero_like();
  v_ = model.zero_like();
}

void Adam::step(Mlp& model, const MlpParams& g) {
  MlpParams& p = model.params();
  GLIMPSE_CHECK(p.w.size() == g.w.size());
  ++t_;
  double bc1 = 1.0 - std::pow(kBeta1, t_);
  double bc2 = 1.0 - std::pow(kBeta2, t_);

  auto update = [&](double& param, double& m, double& v, double grad) {
    m = kBeta1 * m + (1.0 - kBeta1) * grad;
    v = kBeta2 * v + (1.0 - kBeta2) * grad * grad;
    double mhat = m / bc1;
    double vhat = v / bc2;
    param -= options_.lr * mhat / (std::sqrt(vhat) + kEps);
  };

  for (std::size_t l = 0; l < p.w.size(); ++l) {
    auto pw = p.w[l].data();
    auto gw = g.w[l].data();
    auto mw = m_.w[l].data();
    auto vw = v_.w[l].data();
    for (std::size_t i = 0; i < pw.size(); ++i) update(pw[i], mw[i], vw[i], gw[i]);
    for (std::size_t i = 0; i < p.b[l].size(); ++i)
      update(p.b[l][i], m_.b[l][i], v_.b[l][i], g.b[l][i]);
  }
}

}  // namespace glimpse::nn
