// DGP baseline (Sun et al., ICCV'21 "Fast and efficient DNN deployment via
// deep Gaussian transfer learning"): a deep-kernel Gaussian process whose
// embedding is pretrained on tuning logs of other tasks, with a UCB
// acquisition optimized by simulated annealing. The pretrained embedder is
// shared across per-task tuners (pretraining is a one-off offline cost).
// The acquisition and local-GP constants live in dgp.cpp.
#pragma once

#include <memory>
#include <optional>

#include "gp/deep_kernel.hpp"
#include "gp/gp_regression.hpp"
#include "tuning/dataset.hpp"
#include "tuning/sa.hpp"
#include "tuning/tuner.hpp"

namespace glimpse::baselines {

/// Pretrain the shared embedding on an offline dataset (transfer source).
std::shared_ptr<const gp::DeepKernelGp> pretrain_dgp_embedder(
    const tuning::OfflineDataset& dataset, Rng& rng,
    gp::DeepKernelOptions options = {});

class DgpTuner final : public tuning::TunerBase {
 public:
  DgpTuner(const searchspace::Task& task, const hwspec::GpuSpec& hw,
           std::uint64_t seed, std::shared_ptr<const gp::DeepKernelGp> embedder);

  std::string name() const override { return "DGP"; }
  std::vector<tuning::Config> propose(std::size_t n) override;
  void update(const std::vector<tuning::Config>& configs,
              const std::vector<tuning::MeasureResult>& results) override;

 private:
  /// UCB acquisition (mean + kappa * sigma) for a whole lockstep SA round:
  /// one featurize, one batched embed and one GP query.
  std::vector<double> ucb_batch(const std::vector<tuning::Config>& cs) const;
  void refit_gp();

  std::shared_ptr<const gp::DeepKernelGp> embedder_;
  std::optional<gp::GpRegressor> gp_;
  bool needs_refit_ = true;
};

tuning::TunerFactory dgp_factory(std::shared_ptr<const gp::DeepKernelGp> embedder);

}  // namespace glimpse::baselines
