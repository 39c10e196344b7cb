#include "glimpse/surrogate.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/telemetry/telemetry.hpp"
#include "nn/losses.hpp"

namespace glimpse::core {

namespace {

constexpr std::size_t kHidden = 24;
constexpr double kLr = 4e-3;

}  // namespace

NeuralSurrogate::NeuralSurrogate(std::size_t input_dim, Rng& rng,
                                 SurrogateOptions options)
    : options_(options) {
  for (std::size_t e = 0; e < options_.ensemble; ++e) {
    nets_.emplace_back(std::vector<std::size_t>{input_dim, kHidden, 1},
                       nn::Activation::kRelu, rng);
    opts_.emplace_back(nets_.back(), nn::AdamOptions{.lr = kLr});
  }
}

void NeuralSurrogate::fit(const linalg::Matrix& x, const linalg::Vector& y, Rng& rng) {
  GLIMPSE_CHECK(x.rows() == y.size() && x.rows() >= 2);
  GLIMPSE_SPAN("surrogate.fit");
  const std::uint64_t fit_start_ns = telemetry::now_ns();
  scaler_.fit(x);

  const linalg::Matrix z = scaler_.transform(x);
  std::size_t n = x.rows();
  std::size_t batch = std::min<std::size_t>(16, n);
  // Each member shuffles from its own forked stream, so its weights depend
  // only on the seed and its index.
  const std::uint64_t base_seed = rng.engine()();
  nn::Mlp::Cache cache;
  linalg::Vector dout;
  for (std::size_t e = 0; e < nets_.size(); ++e) {
    GLIMPSE_SPAN("surrogate.net_fit");
    Rng net_rng = Rng::fork(base_seed, e);
    nn::MlpParams grad = nets_[e].zero_like();
    for (int epoch = 0; epoch < options_.epochs_per_fit; ++epoch) {
      GLIMPSE_SPAN("surrogate.epoch");
      auto order = net_rng.sample_without_replacement(n, n);
      for (std::size_t start = 0; start + batch <= n; start += batch) {
        grad.fill(0.0);
        for (std::size_t i = start; i < start + batch; ++i) {
          std::size_t r = order[i];
          linalg::Vector out = nets_[e].forward(z.row(r), cache);
          const double target = y[r];
          nn::mse_grad(out, {&target, 1}, dout);
          nets_[e].backward(z.row(r), cache, dout, 1.0 / static_cast<double>(batch), grad);
        }
        opts_[e].step(nets_[e], grad);
      }
    }
  }
  fitted_ = true;
  if (telemetry::metrics_enabled()) {
    GLIMPSE_COUNTER("surrogate.fits").add(1);
    GLIMPSE_COUNTER("surrogate.epochs").add(
        nets_.size() * static_cast<std::size_t>(std::max(0, options_.epochs_per_fit)));
    GLIMPSE_GAUGE("surrogate.train_size").set(static_cast<double>(n));
    GLIMPSE_HISTOGRAM("surrogate.fit_s")
        .record(static_cast<double>(telemetry::now_ns() - fit_start_ns) / 1e9);
  }
}

NeuralSurrogate::Prediction NeuralSurrogate::predict(std::span<const double> x) const {
  GLIMPSE_CHECK(fitted_) << "NeuralSurrogate::predict before fit";
  linalg::Vector z = scaler_.transform(x);
  double sum = 0.0, sumsq = 0.0;
  for (const auto& net : nets_) {
    double v = net.forward(z)[0];
    sum += v;
    sumsq += v * v;
  }
  double n = static_cast<double>(nets_.size());
  Prediction p;
  p.mean = sum / n;
  p.std = std::sqrt(std::max(0.0, sumsq / n - p.mean * p.mean));
  return p;
}

std::vector<NeuralSurrogate::Prediction> NeuralSurrogate::predict_batch(
    const linalg::Matrix& x) const {
  GLIMPSE_CHECK(fitted_) << "NeuralSurrogate::predict_batch before fit";
  GLIMPSE_SPAN("surrogate.predict_batch");
  if (telemetry::metrics_enabled())
    GLIMPSE_COUNTER("surrogate.predictions").add(x.rows());
  std::vector<Prediction> out(x.rows());
  if (out.empty()) return out;
  // One packed matrix product per ensemble member instead of one dot product
  // per (sample, net). Row i of each product is bit-identical to
  // predict(x.row(i)) (matmul_nt and matvec compute every element as the
  // same dot), and members accumulate in ensemble order, so batch and
  // single-sample predictions agree exactly.
  linalg::Matrix z = scaler_.transform(x);
  linalg::Vector sum(out.size(), 0.0), sumsq(out.size(), 0.0);
  for (const auto& net : nets_) {
    linalg::Matrix o = net.forward_batch(z);
    for (std::size_t i = 0; i < out.size(); ++i) {
      double v = o(i, 0);
      sum[i] += v;
      sumsq[i] += v * v;
    }
  }
  const double n = static_cast<double>(nets_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].mean = sum[i] / n;
    out[i].std = std::sqrt(std::max(0.0, sumsq[i] / n - out[i].mean * out[i].mean));
  }
  return out;
}

}  // namespace glimpse::core
