#include "tuning/sa.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuning/key_index.hpp"

namespace glimpse::tuning {

namespace {

/// The temperature decays linearly from kTempStart to kTempEnd.
constexpr double kTempStart = 1.0;
constexpr double kTempEnd = 0.02;

/// Bounded pool of the best distinct keys offered to it (one per chain, and
/// one for the final merge): a min-heap of (score, insertion seq) capped at
/// `top_k`, plus a flat set of every key ever offered. It keeps exactly what
/// an ascending std::multimap<score, config> capped at top_k keeps: when
/// full, only a strictly higher score gets in, and it evicts the lowest
/// score, earliest-inserted among equals.
class BestPool {
 public:
  struct Entry {
    double score;
    std::uint64_t seq;  ///< insertion order within this pool
    std::uint64_t key;
  };

  BestPool(std::size_t top_k, std::size_t expected_offers)
      : top_k_(top_k), seen_(expected_offers) {
    heap_.reserve(std::min(top_k, expected_offers));
  }

  void offer(double score, std::uint64_t key) {
    if (!seen_.insert(key).second) return;
    if (heap_.size() < top_k_) {
      heap_.push_back({score, seq_++, key});
      std::push_heap(heap_.begin(), heap_.end(), above);
    } else if (!heap_.empty() && score > heap_.front().score) {
      std::pop_heap(heap_.begin(), heap_.end(), above);
      heap_.back() = {score, seq_++, key};
      std::push_heap(heap_.begin(), heap_.end(), above);
    }
  }

  std::size_t size() const { return heap_.size(); }

  /// The kept entries by descending score, latest-inserted first among
  /// equals (the multimap's reverse order). Sorts in place: offer no more.
  const std::vector<Entry>& ranked() {
    std::sort(heap_.begin(), heap_.end(), above);
    return heap_;
  }

 private:
  /// Descending (score, seq); as a heap comparator it puts the minimum on top.
  static bool above(const Entry& a, const Entry& b) {
    return a.score != b.score ? a.score > b.score : a.seq > b.seq;
  }

  std::size_t top_k_;
  KeyIndex seen_;
  std::vector<Entry> heap_;
  std::uint64_t seq_ = 0;
};

}  // namespace

SaResult simulated_annealing(const searchspace::ConfigSpace& space,
                             const BatchScoreFn& score_batch, std::size_t top_k,
                             Rng& rng, SaOptions options,
                             std::vector<searchspace::Config> init) {
  GLIMPSE_CHECK(options.num_chains >= 1 && options.num_steps >= 1);
  GLIMPSE_CHECK(space.flat_indexable()) << "annealing needs a flat-indexable space";
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
    if (points.size() == num_chains) break;
    GLIMPSE_CHECK(space.contains(c)) << "init config not in the annealed space";
    points.push_back(std::move(c));
  }
  while (points.size() < num_chains) points.push_back(space.random_config(rng));
  const std::uint64_t base_seed = rng.engine()();
  std::vector<std::uint64_t> point_keys(num_chains);
  for (std::size_t chain = 0; chain < num_chains; ++chain)
    point_keys[chain] = space.to_flat_index(points[chain]);

  // Every chain offers its start plus one candidate per step to its pool.
  const std::size_t offers_per_chain = static_cast<std::size_t>(options.num_steps) + 1;
  std::vector<Rng> chain_rngs;
  chain_rngs.reserve(num_chains);
  std::vector<BestPool> pools;
  pools.reserve(num_chains);
  long long evaluations = 0;
  for (std::size_t chain = 0; chain < num_chains; ++chain) {
    GLIMPSE_SPAN("sa.chain");  // per-chain bookkeeping; scoring is batched
    chain_rngs.push_back(Rng::fork(base_seed, chain));
    pools.emplace_back(top_k, offers_per_chain);
  }

  std::vector<double> point_scores = score_batch(points, point_keys);
  GLIMPSE_CHECK(point_scores.size() == num_chains)
      << "BatchScoreFn returned " << point_scores.size() << " scores for "
      << num_chains << " configs";
  evaluations += static_cast<long long>(num_chains);
  for (std::size_t chain = 0; chain < num_chains; ++chain)
    pools[chain].offer(point_scores[chain], point_keys[chain]);

  // Between steps each chain's candidate buffer equals its point. A step
  // mutates one knob of it in place and moves the key by the same amount;
  // accepting copies that knob into the point, rejecting restores it.
  // Scores from a learned model are roughly z-scored; a unit temperature
  // scale works across models.
  std::vector<searchspace::Config> cands = points;
  std::vector<std::uint64_t> cand_keys = point_keys;
  std::vector<searchspace::ConfigSpace::KnobMove> moves(num_chains);
  const std::size_t num_knobs = space.num_knobs();
  for (int step = 0; step < options.num_steps; ++step) {
    double frac = static_cast<double>(step) / std::max(1, options.num_steps - 1);
    double temp = kTempStart + (kTempEnd - kTempStart) * frac;
    for (std::size_t chain = 0; chain < num_chains; ++chain) {
      const auto move = space.mutate(cands[chain], chain_rngs[chain]);
      moves[chain] = move;
      if (move.knob < num_knobs)  // unsigned wrap-around sums to the new index
        cand_keys[chain] += (std::uint64_t{cands[chain][move.knob]} - move.from) *
                            space.stride(move.knob);
    }
    std::vector<double> scores = score_batch(cands, cand_keys);
    GLIMPSE_CHECK(scores.size() == num_chains)
        << "BatchScoreFn returned " << scores.size() << " scores for "
        << num_chains << " configs";
    evaluations += static_cast<long long>(num_chains);
    for (std::size_t chain = 0; chain < num_chains; ++chain) {
      pools[chain].offer(scores[chain], cand_keys[chain]);
      const auto move = moves[chain];
      double delta = scores[chain] - point_scores[chain];
      if (delta >= 0.0 ||
          chain_rngs[chain].chance(std::exp(delta / std::max(1e-9, temp)))) {
        if (move.knob < num_knobs) points[chain][move.knob] = cands[chain][move.knob];
        point_keys[chain] = cand_keys[chain];
        point_scores[chain] = scores[chain];
      } else if (move.knob < num_knobs) {
        cands[chain][move.knob] = move.from;
        cand_keys[chain] = point_keys[chain];
      }
    }
  }

  // Deterministic merge in chain order. The global top_k of all evaluations
  // equals the top_k of the union of per-chain top_k pools, since any
  // globally retained config is also retained by the chain that saw it.
  std::size_t kept = 0;
  for (const auto& pool : pools) kept += pool.size();
  BestPool merged(top_k, kept);
  for (auto& pool : pools)
    for (const auto& e : pool.ranked()) merged.offer(e.score, e.key);

  SaResult result;
  result.evaluations = evaluations;
  const auto& best = merged.ranked();
  result.configs.reserve(best.size());
  result.scores.reserve(best.size());
  for (const auto& e : best) {
    result.configs.push_back(space.from_flat_index(e.key));
    result.scores.push_back(e.score);
  }
  if (telemetry::metrics_enabled()) {
    GLIMPSE_COUNTER("sa.runs").add(1);
    GLIMPSE_COUNTER("sa.chains").add(num_chains);
    GLIMPSE_COUNTER("sa.evaluations").add(static_cast<std::uint64_t>(result.evaluations));
  }
  return result;
}

}  // namespace glimpse::tuning
