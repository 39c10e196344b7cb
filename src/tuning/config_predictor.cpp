#include "tuning/config_predictor.hpp"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "common/logging.hpp"
#include "hwspec/database.hpp"
#include "nn/adam.hpp"
#include "searchspace/features.hpp"

namespace glimpse::tuning {

namespace {

/// Minimum explained-variance ratio the hardware embedding must cover (the
/// Blueprint's information-loss knob, paper §3.1).
constexpr double kMinExplainedVariance = 0.995;
/// Hidden layer widths of the predictor MLP.
constexpr std::size_t kHidden[] = {32, 16};

/// Smallest embedding dimension covering `min_ratio` of the datasheet
/// variance — the Blueprint's size-vs-information-loss knob, recomputed here
/// from the eigenvalue spectrum so one fit decides the dimension.
std::size_t choose_embed_dim(const linalg::Vector& eigenvalues, double min_ratio) {
  double total = 0.0;
  for (double v : eigenvalues) total += std::max(0.0, v);
  if (total <= 0.0) return 1;
  double cum = 0.0;
  for (std::size_t k = 0; k < eigenvalues.size(); ++k) {
    cum += std::max(0.0, eigenvalues[k]);
    if (cum / total >= min_ratio) return k + 1;
  }
  return eigenvalues.size();
}

}  // namespace

ml::Pca fit_blueprint_pca() {
  const linalg::Matrix x = hwspec::feature_matrix();
  ml::Pca pca;
  // Fit once at k=1 to obtain the full eigenvalue spectrum, then refit at
  // the chosen dimension.
  pca.fit(x, 1);
  std::size_t k = choose_embed_dim(pca.eigenvalues(), kMinExplainedVariance);
  k = std::clamp<std::size_t>(k, 1, std::min(x.rows(), x.cols()));
  pca.fit(x, k);
  return pca;
}

linalg::Vector ConfigPredictor::input_row(const searchspace::Task& task,
                                          const hwspec::GpuSpec& hw,
                                          const searchspace::Config& config) const {
  linalg::Vector row = searchspace::transfer_features(task, config);
  linalg::Vector embed = hw_pca_.transform(hw.to_features());
  row.insert(row.end(), embed.begin(), embed.end());
  return row;
}

void ConfigPredictor::fit(const std::vector<DatasetSample>& samples,
                          const PredictorTrainOptions& options) {
  if (samples.empty())
    throw std::invalid_argument("ConfigPredictor::fit: no samples");
  for (const auto& s : samples)
    GLIMPSE_CHECK(s.task != nullptr && s.hw != nullptr);

  // Hardware embedding: PCA over the full database spectrum (not just the
  // devices present in the samples) so a predictor generalizes to GPUs it
  // never saw a record for.
  hw_pca_ = fit_blueprint_pca();

  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  rows.reserve(samples.size());
  for (const auto& s : samples) {
    rows.push_back(input_row(*s.task, *s.hw, s.config));
    y.push_back(std::clamp(s.score, 0.0, 1.0));
  }
  const linalg::Matrix x_raw = linalg::Matrix::from_rows(rows);
  scaler_.fit(x_raw);
  const linalg::Matrix x = scaler_.transform(x_raw);

  std::vector<std::size_t> sizes;
  sizes.push_back(x.cols());
  for (std::size_t h : kHidden) sizes.push_back(h);
  sizes.push_back(1);
  Rng rng(options.seed);
  mlp_.emplace(sizes, nn::Activation::kRelu, rng);
  nn::AdamOptions adam_opts;
  adam_opts.lr = options.lr;
  nn::Adam adam(*mlp_, adam_opts);

  const std::size_t n = x.rows();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const std::size_t batch = std::max<std::size_t>(1, options.batch);
  nn::MlpParams grad = mlp_->zero_like();
  nn::Mlp::Cache cache;
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t base = 0; base < n; base += batch) {
      const std::size_t hi = std::min(base + batch, n);
      grad.fill(0.0);
      for (std::size_t q = base; q < hi; ++q) {
        const std::size_t i = order[q];
        linalg::Vector out = mlp_->forward(x.row(i), cache);
        const double err = out[0] - y[i];
        const double dout = 2.0 * err / static_cast<double>(hi - base);
        mlp_->backward(x.row(i), cache, {&dout, 1}, 1.0, grad);
      }
      adam.step(*mlp_, grad);
    }
  }

  double sse = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double err = mlp_->forward(x.row(i))[0] - y[i];
    sse += err * err;
  }
  train_mse_ = sse / static_cast<double>(n);
  train_samples_ = n;
}

double ConfigPredictor::predict(const searchspace::Task& task,
                                const hwspec::GpuSpec& hw,
                                const searchspace::Config& config) const {
  GLIMPSE_CHECK(fitted()) << "ConfigPredictor::predict before fit/load";
  linalg::Vector z = scaler_.transform(input_row(task, hw, config));
  return mlp_->forward(z)[0];
}

std::vector<std::pair<searchspace::Config, double>> ConfigPredictor::rank(
    const searchspace::Task& task, const hwspec::GpuSpec& hw,
    const std::vector<searchspace::Config>& candidates, std::size_t k) const {
  std::vector<std::pair<searchspace::Config, double>> scored;
  scored.reserve(candidates.size());
  for (const auto& c : candidates) {
    bool dup = false;
    for (const auto& [seen, s] : scored)
      if (seen == c) {
        dup = true;
        break;
      }
    if (dup) continue;
    scored.emplace_back(c, predict(task, hw, c));
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

void ConfigPredictor::save(TextWriter& w) const {
  w.tag("config_predictor_v1");
  w.scalar_u(fitted() ? 1 : 0);
  if (!fitted()) return;
  hw_pca_.save(w);
  scaler_.save(w);
  mlp_->save(w);
  w.scalar(train_mse_);
  w.scalar_u(train_samples_);
}

ConfigPredictor ConfigPredictor::load(TextReader& r) {
  r.expect("config_predictor_v1");
  ConfigPredictor p;
  if (r.scalar_u() == 0) return p;
  p.hw_pca_ = ml::Pca::load(r);
  p.scaler_ = ml::StandardScaler::load(r);
  p.mlp_.emplace(nn::Mlp::load(r));
  p.train_mse_ = r.scalar();
  p.train_samples_ = r.scalar_u();
  return p;
}

void ConfigPredictor::save_file(const std::string& path) const {
  std::ofstream os(path);
  GLIMPSE_CHECK(os.good()) << "cannot open " << path;
  TextWriter w(os);
  save(w);
  os.flush();
  GLIMPSE_CHECK(os.good()) << "write failed: " << path;
}

ConfigPredictor ConfigPredictor::load_file(const std::string& path) {
  std::ifstream is(path);
  GLIMPSE_CHECK(is.good()) << "cannot open " << path;
  TextReader r(is);
  return load(r);
}

}  // namespace glimpse::tuning
