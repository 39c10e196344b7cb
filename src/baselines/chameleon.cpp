#include "baselines/chameleon.hpp"

#include <algorithm>
#include <map>

#include "common/logging.hpp"
#include "ml/kmeans.hpp"
#include "searchspace/features.hpp"

namespace glimpse::baselines {

using searchspace::config_features;

namespace {

constexpr std::size_t kCandidatePool = 96;  ///< SA pool before clustering
constexpr double kExploreDecay = 0.8;       ///< SA-step decay when not improving
constexpr int kMinSaSteps = 30;
constexpr int kMaxSaSteps = tuning::SaOptions{}.num_steps;
constexpr double kImproveThreshold = 0.01;  ///< relative best-gflops gain per round

}  // namespace

ChameleonTuner::ChameleonTuner(const searchspace::Task& task, const hwspec::GpuSpec& hw,
                               std::uint64_t seed)
    : AutoTvmTuner(task, hw, seed), sa_steps_(kMaxSaSteps) {}

tuning::Config ChameleonTuner::synthesize(
    const std::vector<const tuning::Config*>& members) const {
  GLIMPSE_CHECK(!members.empty());
  tuning::Config out(members[0]->size());
  for (std::size_t k = 0; k < out.size(); ++k) {
    std::map<std::uint32_t, int> votes;
    for (const auto* m : members) ++votes[(*m)[k]];
    auto best = votes.begin();
    for (auto it = votes.begin(); it != votes.end(); ++it)
      if (it->second > best->second) best = it;
    out[k] = best->first;
  }
  return out;
}

std::vector<tuning::Config> ChameleonTuner::propose(std::size_t n) {
  maybe_refit();
  if (!model_ready()) return AutoTvmTuner::propose(n);  // warm_fill inside

  // Warm seeds first, even on the adaptive path: a late-arriving model must
  // not strand unproposed donor winners.
  std::vector<tuning::Config> warm;
  warm_fill(warm, n);
  if (warm.size() >= n) return warm;
  const std::size_t rem = n - warm.size();

  // Adaptive Exploration: anneal with the current (decayed) step budget,
  // chains seeded with the best measured config plus the warm seeds.
  tuning::SaOptions sa_opts;
  sa_opts.num_steps = sa_steps_;
  tuning::BatchScoreFn score_batch = [this](const std::vector<tuning::Config>& cs,
                                            std::span<const std::uint64_t>) {
    return score(cs);
  };
  tuning::SaResult sa = tuning::simulated_annealing(task_.space(), score_batch,
                                                    kCandidatePool, rng_, sa_opts, sa_init());

  // Keep unvisited candidates only, with their annealing scores.
  std::vector<const tuning::Config*> pool;
  std::vector<double> pool_scores;
  for (std::size_t i = 0; i < sa.configs.size(); ++i) {
    if (is_visited(sa.configs[i])) continue;
    pool.push_back(&sa.configs[i]);
    pool_scores.push_back(sa.scores[i]);
  }
  if (pool.size() <= rem) {
    std::vector<tuning::Config> out = std::move(warm);
    for (const auto* c : pool) {
      mark_visited(*c);
      out.push_back(*c);
    }
    fill_random(out, n);  // fall back to random to fill the batch
    return out;
  }

  // Adaptive Sampling: cluster the pool and measure one representative per
  // cluster. Fewer clusters than the requested batch — redundant
  // near-duplicate candidates are collapsed, which is how Chameleon spends
  // fewer real measurements per round than AutoTVM. Each cluster
  // contributes its best-scoring member, unless the synthesized per-knob
  // mode config scores higher (Chameleon's "sample synthesis").
  std::size_t k = std::max<std::size_t>(2, rem * 3 / 4);
  std::vector<linalg::Vector> rows;
  rows.reserve(pool.size());
  for (const auto* c : pool) rows.push_back(config_features(task_, *c));
  ml::KMeansResult km = ml::kmeans(linalg::Matrix::from_rows(rows), k, rng_);

  std::vector<tuning::Config> out = std::move(warm);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<const tuning::Config*> members;
    const tuning::Config* best_member = nullptr;
    double best_score = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (km.assignment[i] != j) continue;
      members.push_back(pool[i]);
      if (best_member == nullptr || pool_scores[i] > best_score) {
        best_score = pool_scores[i];
        best_member = pool[i];
      }
    }
    if (members.empty()) continue;
    tuning::Config chosen = *best_member;
    tuning::Config synth = synthesize(members);
    if (!is_visited(synth) && task_.space().contains(synth) &&
        score({synth})[0] > best_score)
      chosen = std::move(synth);
    if (is_visited(chosen)) continue;
    mark_visited(chosen);
    out.push_back(std::move(chosen));
    // k = max(2, ...) can exceed what the batch has room for once warm
    // seeds occupy part of it (and on a 1-trial tail batch). Overshooting
    // breaks the session's max_trials accounting — and with it checkpoint
    // batch boundaries, so a killed-and-resumed run would walk a different
    // trajectory than the uninterrupted one.
    if (out.size() >= n) break;
  }
  if (out.empty()) fill_random(out, 1);  // degenerate round: one random probe
  return out;
}

void ChameleonTuner::update(const std::vector<tuning::Config>& configs,
                            const std::vector<tuning::MeasureResult>& results) {
  AutoTvmTuner::update(configs, results);
  // Adaptive Exploration: decay the annealing budget when a round brings no
  // meaningful improvement; restore it when progress resumes.
  if (best_gflops_ <= last_round_best_ * (1.0 + kImproveThreshold)) {
    sa_steps_ = std::max(kMinSaSteps, static_cast<int>(sa_steps_ * kExploreDecay));
  } else {
    sa_steps_ = kMaxSaSteps;
  }
  last_round_best_ = best_gflops_;
}

tuning::TunerFactory chameleon_factory() {
  return [](const searchspace::Task& task, const hwspec::GpuSpec& hw,
            std::uint64_t seed) {
    return std::make_unique<ChameleonTuner>(task, hw, seed);
  };
}

}  // namespace glimpse::baselines
