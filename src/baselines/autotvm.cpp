#include "baselines/autotvm.hpp"

#include <algorithm>
#include <map>

#include "common/logging.hpp"
#include "searchspace/features.hpp"

namespace glimpse::baselines {

using searchspace::config_feature_dim;
using searchspace::config_features;
using searchspace::config_features_into;

namespace {

constexpr double kEpsilon = 0.12;            ///< random fraction of each batch
constexpr std::size_t kPlanSize = 48;        ///< candidate pool kept from annealing
constexpr std::size_t kMinDataToFit = 12;    ///< valid measurements before first fit
constexpr std::size_t kMaxTlKnobs = 8;       ///< knobs (= features) tl_features keeps

/// Feature representation available to naive cross-run cost-model transfer:
/// the raw knob choices (normalized option indices, padded to a fixed knob
/// count). For the *same task on different hardware* these align exactly —
/// the model faithfully reuses the other GPUs' experience — but they carry
/// no hardware conditioning and only crude meaning across shapes, which is
/// why the paper finds transfer learning "prone to being misguided" (§4.1).
/// Writes kMaxTlKnobs values into `out`.
void tl_features_into(const searchspace::Task& task, const tuning::Config& config,
                      std::span<double> out) {
  GLIMPSE_CHECK(out.size() == kMaxTlKnobs);
  std::fill(out.begin(), out.end(), 0.0);
  const auto& space = task.space();
  for (std::size_t k = 0; k < space.num_knobs() && k < kMaxTlKnobs; ++k)
    out[k] = static_cast<double>(config[k]) /
             static_cast<double>(space.knob(k).num_options());
}

}  // namespace

std::shared_ptr<const ml::GbtRegressor> fit_transfer_model(
    const std::vector<const tuning::DatasetSample*>& samples, Rng& rng) {
  if (samples.size() < 16) return nullptr;

  // Normalize each sample's gflops by its (task, hw) group's best so scores
  // are comparable across layers and devices.
  std::map<std::pair<std::string, std::string>, double> group_best;
  for (const auto* s : samples) {
    auto key = std::make_pair(s->task->name(), s->hw->name);
    auto [it, inserted] = group_best.try_emplace(key, s->gflops);
    if (!inserted) it->second = std::max(it->second, s->gflops);
  }

  linalg::Matrix x(samples.size(), kMaxTlKnobs);
  linalg::Vector y;
  y.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto* s = samples[i];
    double best = group_best[{s->task->name(), s->hw->name}];
    tl_features_into(*s->task, s->config, x.row(i));
    y.push_back((s->valid && best > 0.0) ? s->gflops / best : 0.0);
  }

  auto model = std::make_shared<ml::GbtRegressor>();
  model->fit(x, y, rng);
  return model;
}

AutoTvmTuner::AutoTvmTuner(const searchspace::Task& task, const hwspec::GpuSpec& hw,
                           std::uint64_t seed,
                           std::shared_ptr<const ml::GbtRegressor> transfer_model)
    : TunerBase(task, hw, seed), transfer_model_(std::move(transfer_model)) {}

std::size_t AutoTvmTuner::num_valid_measured() const {
  std::size_t n = 0;
  for (const auto& r : measured_results_)
    if (r.valid) ++n;
  return n;
}

bool AutoTvmTuner::model_ready() const {
  return local_fitted_ || transfer_model_ != nullptr;
}

std::vector<double> AutoTvmTuner::score(const std::vector<tuning::Config>& configs) const {
  GLIMPSE_CHECK(model_ready());
  const bool local = local_fitted_;
  linalg::Matrix x(configs.size(), local ? config_feature_dim(task_) : kMaxTlKnobs);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (local)
      config_features_into(task_, configs[i], x.row(i));
    else
      tl_features_into(task_, configs[i], x.row(i));
  }
  return local ? local_model_.predict(x) : transfer_model_->predict(x);
}

void AutoTvmTuner::set_warm_start(const std::vector<tuning::Config>& configs,
                                  const std::vector<double>& scores) {
  GLIMPSE_CHECK(configs.size() == scores.size());
  // Advisory only before the first proposal.
  if (proposed_any_) return;
  warm_configs_.clear();
  warm_scores_.clear();
  warm_proposed_ = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (!task_.space().contains(configs[i])) continue;  // foreign-task seed
    bool dup = false;
    for (const auto& c : warm_configs_)
      if (c == configs[i]) {
        dup = true;
        break;
      }
    if (dup) continue;
    warm_configs_.push_back(configs[i]);
    warm_scores_.push_back(std::clamp(scores[i], 0.0, 1.0));
  }
}

void AutoTvmTuner::warm_fill(std::vector<tuning::Config>& out, std::size_t n) {
  while (warm_proposed_ < warm_configs_.size() && out.size() < n) {
    const tuning::Config& c = warm_configs_[warm_proposed_++];
    if (is_visited(c)) continue;  // already measured; no need to repropose
    mark_visited(c);
    out.push_back(c);
  }
}

std::vector<tuning::Config> AutoTvmTuner::sa_init() const {
  std::vector<tuning::Config> init;
  if (!best_config_.empty()) init.push_back(best_config_);
  // Warm seeds stay SA chain starts for the whole session: even after the
  // local model takes over, the donor's good region remains a basin worth
  // descending from.
  for (const auto& c : warm_configs_) init.push_back(c);
  return init;
}

void AutoTvmTuner::maybe_refit() {
  if (!needs_refit_) return;
  // Warm seeds count toward the fit threshold: each carries a donor-measured
  // prior score, so the surrogate can come online rounds earlier than a cold
  // run. At least one local measurement is still required — the first fit
  // must be anchored to this device's truth (and best_gflops_ > 0 needs it).
  const std::size_t valid = num_valid_measured();
  if (valid == 0 || valid + warm_configs_.size() < kMinDataToFit)
    return;
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  rows.reserve(measured_configs_.size() + warm_configs_.size());
  for (std::size_t i = 0; i < measured_configs_.size(); ++i) {
    rows.push_back(config_features(task_, measured_configs_[i]));
    y.push_back((measured_results_[i].valid && best_gflops_ > 0.0)
                    ? measured_results_[i].gflops / best_gflops_
                    : 0.0);
  }
  // Prior rows: donor-relative scores for the warm seeds. Where a seed has
  // also been measured locally the two rows disagree by exactly the transfer
  // error, and the growing local history outvotes the fixed prior over time.
  for (std::size_t i = 0; i < warm_configs_.size(); ++i) {
    rows.push_back(config_features(task_, warm_configs_[i]));
    y.push_back(warm_scores_[i]);
  }
  local_model_.fit(linalg::Matrix::from_rows(rows), y, rng_);
  local_fitted_ = true;
  needs_refit_ = false;
}

std::vector<tuning::Config> AutoTvmTuner::propose(std::size_t n) {
  proposed_any_ = true;
  maybe_refit();
  std::vector<tuning::Config> out;
  warm_fill(out, n);  // seeds first: measure the donors' winners immediately
  if (out.size() >= n) return out;

  if (!model_ready()) {
    // Cold start: pure random until the first model fit is possible.
    fill_random(out, n);
    return out;
  }

  // Plan candidates by simulated annealing over the model, seeding chains
  // with the best measured configs and the warm seeds.
  tuning::BatchScoreFn score_batch = [this](const std::vector<tuning::Config>& cs,
                                            std::span<const std::uint64_t>) {
    return score(cs);
  };
  tuning::SaResult sa = tuning::simulated_annealing(task_.space(), score_batch, kPlanSize,
                                                    rng_, {}, sa_init());

  // Epsilon-greedy batch over the remaining capacity: top-scoring unvisited
  // candidates plus random picks.
  const std::size_t want = n - out.size();
  std::size_t n_random = static_cast<std::size_t>(kEpsilon * want + 0.5);
  std::size_t n_top = want - std::min(want, n_random);
  const std::size_t top_goal = out.size() + n_top;
  for (const auto& c : sa.configs) {
    if (out.size() >= top_goal) break;
    if (is_visited(c)) continue;
    mark_visited(c);
    out.push_back(c);
  }
  fill_random(out, n);
  return out;
}

void AutoTvmTuner::update(const std::vector<tuning::Config>& configs,
                          const std::vector<tuning::MeasureResult>& results) {
  record_results(configs, results);
  needs_refit_ = true;
}

tuning::TunerFactory autotvm_factory(
    std::shared_ptr<const ml::GbtRegressor> transfer_model) {
  return [transfer_model](const searchspace::Task& task, const hwspec::GpuSpec& hw,
                          std::uint64_t seed) {
    return std::make_unique<AutoTvmTuner>(task, hw, seed, transfer_model);
  };
}

}  // namespace glimpse::baselines
