#include "tuning/sa.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "common/logging.hpp"
#include "common/telemetry/telemetry.hpp"

namespace glimpse::tuning {

namespace {

/// The temperature decays linearly from kTempStart to kTempEnd.
constexpr double kTempStart = 1.0;
constexpr double kTempEnd = 0.02;

/// Bounded pool of the best distinct configs seen by one chain (or by the
/// final merge): ascending multimap capped at `top_k`.
struct BestPool {
  std::size_t top_k;
  std::unordered_set<searchspace::Config, searchspace::ConfigHash> seen;
  std::multimap<double, searchspace::Config> best;  // ascending by score

  void offer(double s, const searchspace::Config& c) {
    if (!seen.insert(c).second) return;
    if (best.size() < top_k) {
      best.emplace(s, c);
    } else if (!best.empty() && s > best.begin()->first) {
      best.erase(best.begin());
      best.emplace(s, c);
    }
  }
};

}  // namespace

SaResult simulated_annealing(const searchspace::ConfigSpace& space,
                             const BatchScoreFn& score_batch, std::size_t top_k,
                             Rng& rng, SaOptions options,
                             std::vector<searchspace::Config> init) {
  GLIMPSE_CHECK(options.num_chains >= 1 && options.num_steps >= 1);
  GLIMPSE_SPAN("sa.run");
  const std::size_t num_chains = static_cast<std::size_t>(options.num_chains);

  // Chain starting points come from the caller's stream (serially, so the
  // trajectory depends only on the seed); each chain then walks its own
  // forked substream. Batching only changes *where* scores are computed, not
  // which configs are scored or which RNG draws happen, so trajectories match
  // the unbatched walk bit for bit at any thread count.
  std::vector<searchspace::Config> points;
  points.reserve(num_chains);
  for (auto& c : init) {
    if (points.size() < num_chains) points.push_back(std::move(c));
  }
  while (points.size() < num_chains) points.push_back(space.random_config(rng));
  const std::uint64_t base_seed = rng.engine()();

  std::vector<Rng> chain_rngs;
  chain_rngs.reserve(num_chains);
  std::vector<BestPool> pools(num_chains);
  std::vector<double> point_scores;
  long long evaluations = 0;
  for (std::size_t chain = 0; chain < num_chains; ++chain) {
    GLIMPSE_SPAN("sa.chain");  // per-chain bookkeeping; scoring is batched
    chain_rngs.push_back(Rng::fork(base_seed, chain));
    pools[chain].top_k = top_k;
  }

  point_scores = score_batch(points);
  GLIMPSE_CHECK(point_scores.size() == num_chains)
      << "BatchScoreFn returned " << point_scores.size() << " scores for "
      << num_chains << " configs";
  evaluations += static_cast<long long>(num_chains);
  for (std::size_t chain = 0; chain < num_chains; ++chain)
    pools[chain].offer(point_scores[chain], points[chain]);

  // Scores from a learned model are roughly z-scored; a unit temperature
  // scale works across models.
  std::vector<searchspace::Config> cands(num_chains);
  for (int step = 0; step < options.num_steps; ++step) {
    double frac = static_cast<double>(step) / std::max(1, options.num_steps - 1);
    double temp = kTempStart + (kTempEnd - kTempStart) * frac;
    for (std::size_t chain = 0; chain < num_chains; ++chain)
      cands[chain] = space.neighbor(points[chain], chain_rngs[chain]);
    std::vector<double> scores = score_batch(cands);
    GLIMPSE_CHECK(scores.size() == num_chains)
        << "BatchScoreFn returned " << scores.size() << " scores for "
        << num_chains << " configs";
    evaluations += static_cast<long long>(num_chains);
    for (std::size_t chain = 0; chain < num_chains; ++chain) {
      pools[chain].offer(scores[chain], cands[chain]);
      double delta = scores[chain] - point_scores[chain];
      if (delta >= 0.0 ||
          chain_rngs[chain].chance(std::exp(delta / std::max(1e-9, temp)))) {
        points[chain] = std::move(cands[chain]);
        point_scores[chain] = scores[chain];
      }
    }
  }

  // Deterministic merge in chain order. The global top_k of all evaluations
  // equals the top_k of the union of per-chain top_k pools, since any
  // globally retained config is also retained by the chain that saw it.
  SaResult result;
  result.evaluations = evaluations;
  BestPool merged;
  merged.top_k = top_k;
  for (const auto& pool : pools) {
    for (auto it = pool.best.rbegin(); it != pool.best.rend(); ++it)
      merged.offer(it->first, it->second);
  }

  // Emit descending.
  for (auto it = merged.best.rbegin(); it != merged.best.rend(); ++it) {
    result.configs.push_back(it->second);
    result.scores.push_back(it->first);
  }
  if (telemetry::metrics_enabled()) {
    GLIMPSE_COUNTER("sa.runs").add(1);
    GLIMPSE_COUNTER("sa.chains").add(num_chains);
    GLIMPSE_COUNTER("sa.evaluations").add(static_cast<std::uint64_t>(result.evaluations));
  }
  return result;
}

SaResult simulated_annealing(const searchspace::ConfigSpace& space, const ScoreFn& score,
                             std::size_t top_k, Rng& rng, SaOptions options,
                             std::vector<searchspace::Config> init) {
  BatchScoreFn batch = [&score](const std::vector<searchspace::Config>& cs) {
    std::vector<double> out;
    out.reserve(cs.size());
    for (const searchspace::Config& c : cs) out.push_back(score(c));
    return out;
  };
  return simulated_annealing(space, batch, top_k, rng, options, std::move(init));
}

}  // namespace glimpse::tuning
