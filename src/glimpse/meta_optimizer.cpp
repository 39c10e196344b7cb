#include "glimpse/meta_optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/telemetry/telemetry.hpp"
#include "nn/adam.hpp"
#include "nn/losses.hpp"
#include "searchspace/features.hpp"

namespace glimpse::core {

namespace {

constexpr double kStages[] = {0.15, 0.4, 0.75};  ///< emulated t/T points
constexpr std::size_t kCandidatesPerStage = 56;
constexpr std::size_t kMeasuredBase = 16;  ///< surrogate history at progress 0
constexpr double kLr = 2e-3;
constexpr std::size_t kHidden = 48;
constexpr std::size_t kScalarInputs = 4;  ///< the MetaFeatures fields

}  // namespace

MetaOptimizer::MetaOptimizer(std::size_t blueprint_dim, Rng& rng,
                             MetaTrainOptions options)
    : blueprint_dim_(blueprint_dim),
      options_(options),
      net_({kScalarInputs + blueprint_dim + searchspace::kDerivedFeatureDim, kHidden,
            kHidden, 1},
           nn::Activation::kRelu, rng) {}

void MetaOptimizer::write_row(const MetaFeatures& f, std::span<const double> blueprint,
                              std::span<const double> derived,
                              std::span<double> row) const {
  GLIMPSE_CHECK(blueprint.size() == blueprint_dim_);
  GLIMPSE_CHECK(derived.size() == searchspace::kDerivedFeatureDim);
  GLIMPSE_CHECK(row.size() == net_.input_dim());
  row[0] = f.surrogate_mean;
  row[1] = f.surrogate_std;
  row[2] = f.prior_z;
  row[3] = f.progress;
  std::copy(blueprint.begin(), blueprint.end(), row.begin() + kScalarInputs);
  std::copy(derived.begin(), derived.end(),
            row.begin() + static_cast<std::ptrdiff_t>(kScalarInputs + blueprint_dim_));
}

void MetaOptimizer::train(const tuning::OfflineDataset& dataset,
                          const BlueprintEncoder& encoder, const PriorGenerator& prior,
                          Rng& rng) {
  GLIMPSE_CHECK(prior.trained()) << "train the PriorGenerator before the MetaOptimizer";

  struct Example {
    linalg::Vector input;
    double target;
  };
  std::vector<Example> examples;

  // Sample groups to keep meta-training tractable.
  std::vector<std::size_t> group_ids(dataset.groups().size());
  for (std::size_t i = 0; i < group_ids.size(); ++i) group_ids[i] = i;
  rng.shuffle(group_ids);
  group_ids.resize(std::min(group_ids.size(), options_.max_groups));

  for (std::size_t gid : group_ids) {
    const auto& group = dataset.groups()[gid];
    const auto& samples = dataset.samples();
    std::vector<std::size_t> pool = group.sample_indices;
    if (pool.size() < kMeasuredBase + kCandidatesPerStage) continue;

    linalg::Vector blueprint = encoder.encode(*group.hw);
    Prior task_prior = prior.generate(*group.task, blueprint);

    for (double stage : kStages) {
      // Reconstruct a surrogate state of maturity `stage`: fit on a random
      // history whose size grows with progress, exactly as the online loop
      // would have accumulated by then.
      const double span = static_cast<double>(options_.measured_full - kMeasuredBase);
      std::size_t m = kMeasuredBase + static_cast<std::size_t>(stage * span);
      // Small groups: cap the emulated history so candidates remain.
      m = std::min(m, pool.size() - std::min(pool.size(), kCandidatesPerStage));
      if (m < 4) continue;
      rng.shuffle(pool);
      std::size_t n_cand = std::min(kCandidatesPerStage, pool.size() - m);
      if (n_cand == 0) continue;

      std::vector<linalg::Vector> hist_rows;
      linalg::Vector hist_y;
      for (std::size_t i = 0; i < m; ++i) {
        const auto& s = samples[pool[i]];
        hist_rows.push_back(searchspace::config_features(*group.task, s.config));
        hist_y.push_back(s.score);
      }
      Rng surrogate_rng = rng.fork(gid * 1000 + static_cast<std::uint64_t>(stage * 100));
      NeuralSurrogate surrogate(hist_rows[0].size(), surrogate_rng,
                                {.ensemble = 3, .epochs_per_fit = 8});
      surrogate.fit(linalg::Matrix::from_rows(hist_rows), hist_y, surrogate_rng);

      // Candidates: held-out samples; z-score their prior scores.
      std::vector<double> prior_scores;
      for (std::size_t i = m; i < m + n_cand; ++i)
        prior_scores.push_back(task_prior.config_score(samples[pool[i]].config));
      double pm = mean(prior_scores);
      double ps = std::max(1e-9, stddev(prior_scores));

      // Featurize the candidates into packed rows and score them with one
      // batched surrogate pass.
      linalg::Matrix cand_x(n_cand, hist_rows[0].size());
      linalg::Matrix cand_derived(n_cand, searchspace::kDerivedFeatureDim);
      for (std::size_t i = 0; i < n_cand; ++i)
        searchspace::featurize_into(*group.task, samples[pool[m + i]].config,
                                    cand_x.row(i), cand_derived.row(i));
      auto preds = surrogate.predict_batch(cand_x);
      for (std::size_t i = 0; i < n_cand; ++i) {
        MetaFeatures f;
        f.surrogate_mean = preds[i].mean;
        f.surrogate_std = preds[i].std;
        f.prior_z = (prior_scores[i] - pm) / ps;
        f.progress = stage;
        Example ex;
        ex.input.resize(net_.input_dim());
        write_row(f, blueprint, cand_derived.row(i), ex.input);
        ex.target = samples[pool[m + i]].score;
        examples.push_back(std::move(ex));
      }
    }
  }
  GLIMPSE_CHECK(examples.size() >= 64) << "meta-training set too small: "
                                       << examples.size();

  nn::Adam adam(net_, {.lr = kLr});
  std::size_t batch = std::min<std::size_t>(32, examples.size());
  nn::MlpParams grad = net_.zero_like();
  nn::Mlp::Cache cache;
  linalg::Vector dout;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    auto order = rng.sample_without_replacement(examples.size(), examples.size());
    for (std::size_t start = 0; start + batch <= examples.size(); start += batch) {
      grad.fill(0.0);
      for (std::size_t i = start; i < start + batch; ++i) {
        const Example& ex = examples[order[i]];
        linalg::Vector out = net_.forward(ex.input, cache);
        nn::mse_grad(out, {&ex.target, 1}, dout);
        net_.backward(ex.input, cache, dout, 1.0 / static_cast<double>(batch), grad);
      }
      adam.step(net_, grad);
    }
  }
  trained_ = true;
}

void MetaOptimizer::save(TextWriter& w) const {
  GLIMPSE_CHECK(trained_) << "save an untrained MetaOptimizer";
  w.tag("meta_optimizer");
  w.scalar_u(blueprint_dim_);
  net_.save(w);
}

MetaOptimizer MetaOptimizer::load(TextReader& r) {
  r.expect("meta_optimizer");
  std::size_t dim = r.scalar_u();
  nn::Mlp net = nn::Mlp::load(r);
  GLIMPSE_CHECK(net.input_dim() == kScalarInputs + dim + searchspace::kDerivedFeatureDim);
  return MetaOptimizer(dim, std::move(net));
}

double MetaOptimizer::score(const MetaFeatures& f, std::span<const double> blueprint,
                            std::span<const double> derived) const {
  linalg::Matrix row(1, net_.input_dim());
  write_row(f, blueprint, derived, row.row(0));
  return score_batch(row)[0];
}

linalg::Vector MetaOptimizer::score_batch(const linalg::Matrix& rows) const {
  GLIMPSE_CHECK(trained_) << "MetaOptimizer::score_batch before train";
  GLIMPSE_SPAN("meta.score_batch");
  if (telemetry::metrics_enabled()) GLIMPSE_COUNTER("meta.predictions").add(rows.rows());
  return net_.forward_batch(rows).col_copy(0);
}

}  // namespace glimpse::core
