#include "baselines/dgp.hpp"

#include <cmath>
#include <numeric>

#include "common/logging.hpp"
#include "searchspace/features.hpp"

namespace glimpse::baselines {

using searchspace::transfer_features;

namespace {

constexpr double kUcbKappa = 1.6;  ///< exploration weight in mean + k*sigma
constexpr std::size_t kPlanSize = 48;
constexpr std::size_t kMinDataToFit = 8;
constexpr std::size_t kMaxGpPoints = 200;  ///< local-GP history cap
constexpr double kGpNoise = 5e-3;
constexpr double kGpLengthscale = 3.0;

}  // namespace

std::shared_ptr<const gp::DeepKernelGp> pretrain_dgp_embedder(
    const tuning::OfflineDataset& dataset, Rng& rng, gp::DeepKernelOptions options) {
  GLIMPSE_CHECK(dataset.size() >= 32) << "transfer dataset too small";
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  rows.reserve(dataset.size());
  for (const auto& s : dataset.samples()) {
    rows.push_back(transfer_features(*s.task, s.config));
    y.push_back(s.score);
  }
  auto model = std::make_shared<gp::DeepKernelGp>(searchspace::transfer_feature_dim(),
                                                  options, rng);
  model->pretrain(linalg::Matrix::from_rows(rows), y, rng);
  return model;
}

DgpTuner::DgpTuner(const searchspace::Task& task, const hwspec::GpuSpec& hw,
                   std::uint64_t seed, std::shared_ptr<const gp::DeepKernelGp> embedder)
    : TunerBase(task, hw, seed), embedder_(std::move(embedder)) {
  GLIMPSE_CHECK(embedder_ != nullptr && embedder_->pretrained());
}

std::vector<double> DgpTuner::ucb_batch(const std::vector<tuning::Config>& cs) const {
  GLIMPSE_CHECK(gp_.has_value());
  std::vector<linalg::Vector> rows;
  rows.reserve(cs.size());
  for (const tuning::Config& c : cs) rows.push_back(transfer_features(task_, c));
  auto preds = gp_->predict_batch(
      embedder_->embed_batch(linalg::Matrix::from_rows(rows)));
  std::vector<double> out(cs.size());
  for (std::size_t i = 0; i < cs.size(); ++i)
    out[i] = preds[i].mean + kUcbKappa * std::sqrt(preds[i].variance);
  return out;
}

void DgpTuner::refit_gp() {
  // Keep every measurement, including invalid ones at score 0, so the GP
  // learns to steer away from invalid regions.
  std::vector<std::size_t> valid_rows(measured_results_.size());
  std::iota(valid_rows.begin(), valid_rows.end(), std::size_t{0});
  if (valid_rows.size() > kMaxGpPoints) {
    // Keep the most recent window (the GP tracks the posterior as it narrows).
    valid_rows.erase(valid_rows.begin(),
                     valid_rows.end() - static_cast<std::ptrdiff_t>(kMaxGpPoints));
  }
  std::vector<linalg::Vector> feats(valid_rows.size());
  linalg::Vector y(valid_rows.size());
  for (std::size_t i = 0; i < valid_rows.size(); ++i) {
    std::size_t r = valid_rows[i];
    feats[i] = transfer_features(task_, measured_configs_[r]);
    y[i] = (measured_results_[r].valid && best_gflops_ > 0.0)
               ? measured_results_[r].gflops / best_gflops_
               : 0.0;
  }
  linalg::Matrix x = embedder_->embed_batch(linalg::Matrix::from_rows(feats));
  gp_.emplace(kGpLengthscale, kGpNoise);
  gp_->fit(x, y);
  needs_refit_ = false;
}

std::vector<tuning::Config> DgpTuner::propose(std::size_t n) {
  std::size_t valid = 0;
  for (const auto& r : measured_results_)
    if (r.valid) ++valid;

  std::vector<tuning::Config> out;
  if (valid < kMinDataToFit) {
    fill_random(out, n);
    return out;
  }

  if (needs_refit_) refit_gp();

  std::vector<tuning::Config> init;
  if (!best_config_.empty()) init.push_back(best_config_);
  tuning::BatchScoreFn acquisition =
      [this](const std::vector<tuning::Config>& cs, std::span<const std::uint64_t>) {
        return ucb_batch(cs);
      };
  tuning::SaResult sa =
      tuning::simulated_annealing(task_.space(), acquisition, kPlanSize, rng_, {},
                                  std::move(init));

  for (const auto& c : sa.configs) {
    if (out.size() >= n) break;
    if (is_visited(c)) continue;
    mark_visited(c);
    out.push_back(c);
  }
  fill_random(out, n);
  return out;
}

void DgpTuner::update(const std::vector<tuning::Config>& configs,
                      const std::vector<tuning::MeasureResult>& results) {
  record_results(configs, results);
  needs_refit_ = true;
}

tuning::TunerFactory dgp_factory(std::shared_ptr<const gp::DeepKernelGp> embedder) {
  return [embedder](const searchspace::Task& task, const hwspec::GpuSpec& hw,
                    std::uint64_t seed) {
    return std::make_unique<DgpTuner>(task, hw, seed, embedder);
  };
}

}  // namespace glimpse::baselines
