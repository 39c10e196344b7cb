#include "glimpse/glimpse_tuner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <memory>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/telemetry/telemetry.hpp"
#include "searchspace/features.hpp"
#include "tuning/key_index.hpp"
#include "tuning/sa.hpp"

namespace glimpse::core {

using searchspace::Config;
using searchspace::config_features;

namespace {

constexpr std::size_t kPlanSize = 64;         ///< candidate pool from annealing
constexpr std::size_t kInitRounds = 3;        ///< batches drawn from the prior
constexpr std::size_t kMinDataToFit = 8;      ///< valid samples before surrogate fit
constexpr std::size_t kExpectedTrials = 400;  ///< T in the t/T progress feature
constexpr double kEpsilon = 0.10;             ///< random fraction per batch
/// Weight of the prior term in the annealing energy, decayed by search
/// progress (the prior's influence fades as real measurements accumulate).
constexpr double kPriorSaWeight = 1.0;

}  // namespace

GlimpseArtifacts pretrain_glimpse(const tuning::OfflineDataset& dataset,
                                  const std::vector<const hwspec::GpuSpec*>& train_gpus,
                                  std::size_t blueprint_dim, Rng& rng,
                                  PriorTrainOptions prior_options,
                                  MetaTrainOptions meta_options) {
  GlimpseArtifacts a;
  // The PCA population is the public database — the datasheet list is public
  // knowledge; only *tuning experience* must exclude the target combination.
  a.encoder = std::make_shared<BlueprintEncoder>(blueprint_dim);

  auto prior = std::make_shared<PriorGenerator>(blueprint_dim, rng, prior_options);
  prior->train(dataset, *a.encoder, rng);
  a.prior = prior;

  auto meta = std::make_shared<MetaOptimizer>(blueprint_dim, rng, meta_options);
  meta->train(dataset, *a.encoder, *prior, rng);
  a.meta = meta;

  a.validity = std::make_shared<ValidityEnsemble>(*a.encoder, train_gpus);
  return a;
}

void save_artifacts(const GlimpseArtifacts& artifacts, const std::string& path) {
  GLIMPSE_CHECK(artifacts.encoder && artifacts.prior && artifacts.meta &&
                artifacts.validity)
      << "save_artifacts: incomplete artifacts";
  std::ofstream os(path);
  GLIMPSE_CHECK(os.good()) << "cannot open " << path;
  TextWriter w(os);
  w.tag("glimpse_artifacts_v1");
  artifacts.encoder->save(w);
  artifacts.prior->save(w);
  artifacts.meta->save(w);
  artifacts.validity->save(w);
}

GlimpseArtifacts load_artifacts(const std::string& path) {
  std::ifstream is(path);
  GLIMPSE_CHECK(is.good()) << "cannot open " << path;
  TextReader r(is);
  r.expect("glimpse_artifacts_v1");
  GlimpseArtifacts a;
  a.encoder = std::make_shared<BlueprintEncoder>(BlueprintEncoder::load(r));
  a.prior = std::make_shared<PriorGenerator>(PriorGenerator::load(r));
  a.meta = std::make_shared<MetaOptimizer>(MetaOptimizer::load(r));
  a.validity = std::make_shared<ValidityEnsemble>(ValidityEnsemble::load(r));
  return a;
}

GlimpseTuner::GlimpseTuner(const searchspace::Task& task, const hwspec::GpuSpec& hw,
                           std::uint64_t seed, GlimpseArtifacts artifacts,
                           GlimpseOptions options)
    : TunerBase(task, hw, seed),
      artifacts_(std::move(artifacts)),
      options_(options),
      surrogate_(config_features(task, task.space().random_config(rng_)).size(), rng_) {
  GLIMPSE_CHECK(artifacts_.encoder && artifacts_.prior && artifacts_.meta &&
                artifacts_.validity)
      << "GlimpseTuner needs fully pretrained artifacts";
  blueprint_ = artifacts_.encoder->encode(hw_);
  prior_.emplace(artifacts_.prior->generate(task_, blueprint_));
  thresholds_ = artifacts_.validity->thresholds_for(blueprint_);

  // Calibrate the prior-score scale against random configurations so the
  // prior can be blended into normalized search energies.
  std::vector<double> scores;
  for (int i = 0; i < 192; ++i)
    scores.push_back(prior_->config_score(task_.space().random_config(rng_)));
  prior_mean_ = mean(scores);
  prior_std_ = std::max(1e-9, stddev(scores));
}

bool GlimpseTuner::sampler_accepts(const Config& c) {
  if (!options_.use_validity) return true;
  if (artifacts_.validity->accept(task_, c, thresholds_)) return true;
  ++rejected_by_sampler_;
  if (telemetry::metrics_enabled()) GLIMPSE_COUNTER("tuner.sampler_rejections").add(1);
  return false;
}

std::vector<Config> GlimpseTuner::propose_from_prior(std::size_t n) {
  GLIMPSE_SPAN("tuner.prior_draw");
  std::vector<Config> out;
  if (options_.use_prior) {
    // Hedge against a misleading prior (an off-population target): a
    // quarter of every prior batch is validity-filtered random exploration.
    std::size_t n_prior = n - n / 4;
    // Highest-probability combinations first ("enumerate combinations of the
    // argmax, weighted"), then weighted samples for diversity.
    for (auto& c : prior_->top_configs(n_prior)) {
      if (out.size() >= n_prior) break;
      if (is_visited(c) || !sampler_accepts(c)) continue;
      mark_visited(c);
      out.push_back(std::move(c));
    }
    int attempts = 0;
    int max_attempts = static_cast<int>(n) * 30;
    while (out.size() < n_prior && attempts++ < max_attempts) {
      Config c = prior_->sample(rng_);
      if (is_visited(c) || !sampler_accepts(c)) continue;
      mark_visited(c);
      out.push_back(std::move(c));
    }
  }
  // Fallback (and the no-prior ablation): validity-filtered random.
  int attempts = 0;
  int max_attempts = static_cast<int>(n) * 30;
  while (out.size() < n && attempts++ < max_attempts) {
    Config c;
    if (!random_unvisited(c)) break;
    if (!sampler_accepts(c)) continue;
    mark_visited(c);
    out.push_back(std::move(c));
  }
  fill_random(out, n);  // last resort: unfiltered random
  return out;
}

void GlimpseTuner::maybe_refit_surrogate() {
  std::size_t valid = 0;
  for (const auto& r : measured_results_)
    if (r.valid) ++valid;
  if (!surrogate_dirty_ || valid < kMinDataToFit) return;
  GLIMPSE_SPAN("tuner.surrogate_refit");

  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  rows.reserve(measured_configs_.size());
  for (std::size_t i = 0; i < measured_configs_.size(); ++i) {
    rows.push_back(config_features(task_, measured_configs_[i]));
    y.push_back((measured_results_[i].valid && best_gflops_ > 0.0)
                    ? measured_results_[i].gflops / best_gflops_
                    : 0.0);
  }
  surrogate_.fit(linalg::Matrix::from_rows(rows), y, rng_);
  surrogate_dirty_ = false;
}

std::vector<Config> GlimpseTuner::propose_from_search(std::size_t n) {
  GLIMPSE_SPAN("tuner.search");
  // Round constants of the annealing energy: surrogate mean, blended with
  // the (progress-decayed) Blueprint prior and the meta-learned acquisition.
  // Early in the search the online surrogate is immature; the acquisition
  // carries the offline, Blueprint-conditioned knowledge of the space into
  // the energy (H parameterizes the surrogate, §3.1), and its influence
  // decays as real measurements accumulate.
  const double progress0 = std::min(1.0, static_cast<double>(measured_configs_.size()) /
                                             static_cast<double>(kExpectedTrials));
  const double prior_w = options_.use_prior ? kPriorSaWeight * (1.0 - progress0) : 0.0;
  const double meta_w = options_.use_meta ? 0.6 * (1.0 - progress0) : 0.0;
  const MetaOptimizer& meta = *artifacts_.meta;

  // Per-round memo, keyed on the config's flat index. With the round
  // constants fixed, a config's energy is a pure function of the config, and
  // chains revisit configs, so each distinct config is scored EXACTLY once
  // per round: the configs an annealing step has not seen yet are featurized
  // into packed rows (one derive() each) and priced by one batched surrogate
  // predict and one batched acquisition forward. Batched rows are
  // bit-identical to per-config scoring (shared dot kernel), so batching
  // changes no energy. Memo hits are a lookup. The re-rank below reads the
  // same entries.
  struct Scored {
    double prior_score = 0.0;
    NeuralSurrogate::Prediction pred;
    double energy = 0.0;  ///< annealing energy this round
    /// meta-optimizer kernel-feature block
    std::array<double, searchspace::kDerivedFeatureDim> derived{};
  };
  tuning::KeyIndex memo_index;  // flat index -> position in memo
  std::vector<Scored> memo;
  const std::size_t feature_dim = searchspace::config_feature_dim(task_);
  // Score the memo entries `fresh` (config, memo position): one derive() per
  // config into packed rows, one batched surrogate predict, one batched
  // acquisition forward.
  auto score_fresh = [&](const std::vector<std::pair<const Config*, std::size_t>>& fresh) {
    linalg::Matrix x(fresh.size(), feature_dim);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      auto [c, at] = fresh[i];
      Scored& s = memo[at];
      searchspace::featurize_into(task_, *c, x.row(i), s.derived);
      s.prior_score = options_.use_prior ? prior_->config_score(*c) : 0.0;
    }
    auto preds = surrogate_.predict_batch(x);
    linalg::Vector acquisition;
    if (meta_w > 0.0) {
      linalg::Matrix rows(fresh.size(), meta.input_dim());
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        const Scored& sc = memo[fresh[i].second];
        MetaFeatures f;
        f.surrogate_mean = preds[i].mean;
        f.surrogate_std = preds[i].std;
        f.prior_z = options_.use_prior ? (sc.prior_score - prior_mean_) / prior_std_ : 0.0;
        f.progress = progress0;
        meta.write_row(f, blueprint_, sc.derived, rows.row(i));
      }
      acquisition = meta.score_batch(rows);
    }
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      Scored& sc = memo[fresh[i].second];
      sc.pred = preds[i];
      double energy = sc.pred.mean;
      if (prior_w > 0.0)
        energy += prior_w * 0.1 * (sc.prior_score - prior_mean_) / prior_std_;
      if (meta_w > 0.0) energy += meta_w * acquisition[i];
      sc.energy = energy;
    }
  };
  // The annealing energy of every config in `cs`, scoring the ones not
  // memoized yet.
  std::vector<std::size_t> positions;
  std::vector<std::pair<const Config*, std::size_t>> fresh;
  tuning::BatchScoreFn energy_batch = [&](const std::vector<Config>& cs,
                                          std::span<const std::uint64_t> keys) {
    positions.resize(cs.size());
    fresh.clear();
    for (std::size_t i = 0; i < cs.size(); ++i) {
      auto [at, inserted] = memo_index.insert(keys[i]);
      positions[i] = at;
      if (inserted) {
        memo.emplace_back();
        fresh.push_back({&cs[i], at});
      }
    }
    if (telemetry::metrics_enabled()) {
      GLIMPSE_COUNTER("tuner.memo_compute").add(fresh.size());
      GLIMPSE_COUNTER("tuner.memo_hit").add(cs.size() - fresh.size());
    }
    if (!fresh.empty()) score_fresh(fresh);
    std::vector<double> out;
    out.reserve(cs.size());
    for (std::size_t at : positions) out.push_back(memo[at].energy);
    return out;
  };

  // Lookup for configs known to be memoized (everything the annealer
  // returned).
  auto scored = [&](const Config& c) -> const Scored& {
    std::size_t at = memo_index.find(task_.space().to_flat_index(c));
    GLIMPSE_CHECK(at != tuning::KeyIndex::npos) << "config escaped the scoring memo";
    return memo[at];
  };

  // 1. Simulated annealing with the memoized energy.
  std::vector<Config> init;
  if (!best_config_.empty()) init.push_back(best_config_);
  if (options_.use_prior) init.push_back(prior_->sample(rng_));
  tuning::SaResult sa =
      tuning::simulated_annealing(task_.space(), energy_batch, kPlanSize, rng_, {},
                                  std::move(init));

  // Unvisited candidates that survive Hardware-Aware Sampling.
  std::vector<Config> pool;
  for (auto& c : sa.configs) {
    if (is_visited(c)) continue;
    if (!sampler_accepts(c)) continue;
    pool.push_back(std::move(c));
  }

  // 2. Hardware-Aware Exploration: the neural acquisition function re-ranks
  //    the pool using the Blueprint and the optimization progress, in one
  //    batched forward. Every pool config was scored during annealing, so
  //    these are memo hits.
  std::vector<double> rank_scores(pool.size());
  telemetry::Span rerank_span("tuner.rerank");  // acquisition re-rank + pick
  if (options_.use_meta && !pool.empty()) {
    std::vector<double> prior_scores(pool.size(), 0.0);
    if (options_.use_prior)
      for (std::size_t i = 0; i < pool.size(); ++i)
        prior_scores[i] = scored(pool[i]).prior_score;
    double pm = mean(prior_scores);
    double ps = std::max(1e-9, stddev(prior_scores));
    linalg::Matrix rows(pool.size(), meta.input_dim());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const Scored& sc = scored(pool[i]);
      MetaFeatures f;
      f.surrogate_mean = sc.pred.mean;
      f.surrogate_std = sc.pred.std;
      f.prior_z = (prior_scores[i] - pm) / ps;
      f.progress = progress0;
      meta.write_row(f, blueprint_, sc.derived, rows.row(i));
    }
    rank_scores = meta.score_batch(rows);
  } else {
    for (std::size_t i = 0; i < pool.size(); ++i)
      rank_scores[i] = scored(pool[i]).pred.mean;
  }

  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rank_scores[a] > rank_scores[b];
  });

  std::size_t n_random = static_cast<std::size_t>(kEpsilon * n + 0.5);
  std::size_t n_top = n - std::min(n, n_random);
  std::vector<Config> out;
  for (std::size_t i = 0; i < order.size() && out.size() < n_top; ++i) {
    Config& c = pool[order[i]];
    mark_visited(c);
    out.push_back(std::move(c));
  }
  // Exploration tail: prior samples (validity-filtered), then random.
  int attempts = 0;
  int max_attempts = static_cast<int>(n) * 30;
  while (out.size() < n && attempts++ < max_attempts) {
    Config c = options_.use_prior ? prior_->sample(rng_)
                                  : task_.space().random_config(rng_);
    if (is_visited(c) || !sampler_accepts(c)) continue;
    mark_visited(c);
    out.push_back(std::move(c));
  }
  fill_random(out, n);
  return out;
}

std::vector<Config> GlimpseTuner::propose(std::size_t n) {
  GLIMPSE_SPAN("tuner.propose");
  if (telemetry::metrics_enabled()) GLIMPSE_COUNTER("tuner.propose_rounds").add(1);
  maybe_refit_surrogate();
  ++rounds_;
  std::size_t valid = 0;
  for (const auto& r : measured_results_)
    if (r.valid) ++valid;
  if (rounds_ <= kInitRounds || valid < kMinDataToFit || !surrogate_.fitted())
    return propose_from_prior(n);
  return propose_from_search(n);
}

void GlimpseTuner::update(const std::vector<Config>& configs,
                          const std::vector<tuning::MeasureResult>& results) {
  record_results(configs, results);
  surrogate_dirty_ = true;
}

tuning::TunerFactory glimpse_factory(GlimpseArtifacts artifacts, GlimpseOptions options) {
  return [artifacts, options](const searchspace::Task& task, const hwspec::GpuSpec& hw,
                              std::uint64_t seed) {
    return std::make_unique<GlimpseTuner>(task, hw, seed, artifacts, options);
  };
}

}  // namespace glimpse::core
