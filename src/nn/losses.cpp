#include "nn/losses.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace glimpse::nn {

linalg::Vector softmax(std::span<const double> logits) {
  GLIMPSE_CHECK(!logits.empty());
  double mx = *std::max_element(logits.begin(), logits.end());
  linalg::Vector p(logits.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    p[i] = std::exp(logits[i] - mx);
    sum += p[i];
  }
  for (double& v : p) v /= sum;
  return p;
}

double cross_entropy_grad(std::span<const double> logits, std::size_t target,
                          linalg::Vector& dlogits) {
  GLIMPSE_CHECK(target < logits.size());
  linalg::Vector p = softmax(logits);
  dlogits.assign(p.begin(), p.end());
  dlogits[target] -= 1.0;
  return -std::log(std::max(p[target], 1e-12));
}

double cross_entropy_grad(std::span<const double> logits,
                          std::span<const double> target_dist,
                          linalg::Vector& dlogits) {
  GLIMPSE_CHECK(logits.size() == target_dist.size());
  linalg::Vector p = softmax(logits);
  dlogits.assign(p.begin(), p.end());
  double loss = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    dlogits[i] -= target_dist[i];
    if (target_dist[i] > 0.0)
      loss -= target_dist[i] * std::log(std::max(p[i], 1e-12));
  }
  return loss;
}

double mse_grad(std::span<const double> pred, std::span<const double> target,
                linalg::Vector& dpred) {
  GLIMPSE_CHECK(pred.size() == target.size());
  dpred.resize(pred.size());
  double loss = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    double d = pred[i] - target[i];
    dpred[i] = d;
    loss += 0.5 * d * d;
  }
  return loss;
}

}  // namespace glimpse::nn
