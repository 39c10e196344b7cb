// Losses and output-layer transforms for the nn module.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace glimpse::nn {

/// Numerically stable softmax.
linalg::Vector softmax(std::span<const double> logits);

/// Cross-entropy of softmax(logits) against a target class.
/// Fills dlogits (softmax(logits) - onehot(target)) and returns the loss.
double cross_entropy_grad(std::span<const double> logits, std::size_t target,
                          linalg::Vector& dlogits);

/// Cross-entropy against a full target distribution (sums to 1).
double cross_entropy_grad(std::span<const double> logits,
                          std::span<const double> target_dist,
                          linalg::Vector& dlogits);

/// Squared-error loss 0.5*(pred-target)^2 summed; fills dpred = pred-target.
double mse_grad(std::span<const double> pred, std::span<const double> target,
                linalg::Vector& dpred);

}  // namespace glimpse::nn
