// Small dense neural networks (MLPs) with manual backprop.
//
// Replaces the paper's PyTorch dependency for its three "light-weight"
// neural models: the prior-distribution generator H (multi-head softmax),
// the neural acquisition function (scalar scorer) and the parametric
// surrogate cost model. Sized for thousands of parameters, not millions.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "linalg/matrix.hpp"

namespace glimpse::nn {

enum class Activation { kRelu, kTanh };

/// Weights and biases of an MLP; also the shape of its gradients.
struct MlpParams {
  std::vector<linalg::Matrix> w;  ///< w[l]: (out x in) for layer l
  std::vector<linalg::Vector> b;

  /// this += scale * other (for gradient accumulation / SGD steps).
  void axpy(double scale, const MlpParams& other);
  void scale(double s);
  void fill(double v);
  std::size_t num_params() const;
};

/// Feed-forward network: hidden layers use `activation`, output is linear.
class Mlp {
 public:
  /// sizes = {input, hidden..., output}; weights get He/Xavier init from rng.
  Mlp(std::vector<std::size_t> sizes, Activation activation, Rng& rng);

  linalg::Vector forward(std::span<const double> x) const;

  /// Per-layer activations captured during a forward pass, for backprop.
  /// Reusing one Cache across samples reuses its buffers.
  struct Cache {
    std::vector<linalg::Vector> pre;   ///< pre-activation per layer
    std::vector<linalg::Vector> post;  ///< post-activation per layer
  };
  linalg::Vector forward(std::span<const double> x, Cache& cache) const;

  /// Post-activation matrices of a batched pass (rows align with the input
  /// batch; back() is the network output).
  struct BatchCache {
    std::vector<linalg::Matrix> post;
  };

  /// Batched forward over the rows of x: returns an (x.rows() x output_dim)
  /// matrix whose row i equals forward(x.row(i)) bit-exactly — the batched
  /// layer product (matmul_nt) and the per-sample matvec both compute each
  /// unit as the canonical dot of its weight row and input, four units per
  /// blocked pass. One call runs one matrix product per layer over all rows
  /// instead of one matvec per sample; a one-wide output layer blocks four
  /// input rows against its single weight row. Inside a tuner's proposal it
  /// runs inline on the calling thread (the scheduler's plan phase is where
  /// jobs run in parallel).
  linalg::Matrix forward_batch(const linalg::Matrix& x,
                               BatchCache* cache = nullptr) const;

  /// Backprop dL/doutput through the cached pass and accumulate the
  /// parameter gradients into `acc`: acc += scale * grad, element by element,
  /// with no gradient buffer of its own. Optionally accumulates dL/dinput
  /// into *dx (assigned when *dx is empty).
  void backward(std::span<const double> x, const Cache& cache,
                std::span<const double> dout, double scale, MlpParams& acc,
                linalg::Vector* dx = nullptr) const;

  /// Zero-initialized gradient buffer with this network's shape.
  MlpParams zero_like() const;

  /// Persist / restore the full network (architecture + weights).
  void save(TextWriter& w) const;
  static Mlp load(TextReader& r);

  MlpParams& params() { return p_; }
  const MlpParams& params() const { return p_; }
  std::size_t input_dim() const { return sizes_.front(); }
  std::size_t output_dim() const { return sizes_.back(); }
  const std::vector<std::size_t>& sizes() const { return sizes_; }

 private:
  Mlp() = default;  // for load()

  std::vector<std::size_t> sizes_;
  Activation activation_ = Activation::kRelu;
  MlpParams p_;
};

}  // namespace glimpse::nn
