// Multi-chain simulated annealing over a config space, maximizing an
// arbitrary score function (usually a learned cost model's prediction).
//
// This mirrors AutoTVM's model-guided proposal step: a batch of Markov
// chains walks the knob space by single-knob mutations; the best-scoring
// distinct points seen anywhere become measurement candidates.
//
// Chains advance in lockstep: each step, every chain proposes one neighbor
// (from its own forked RNG substream), then all proposals are scored in a
// single batch, so a BatchScoreFn can price a whole step as one packed
// model evaluation instead of one call per config. Per-chain RNG streams and
// accept/reject bookkeeping are untouched by batching, so trajectories are
// bit-identical to scoring chains one by one. Annealing runs on the calling
// thread: the parallelism is one level up, where the scheduler proposes for
// every job at once (tuning/scheduler.hpp). Score functions must be
// deterministic; batch score functions must be pure (results depend only on
// the configs).
#pragma once

#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "searchspace/config_space.hpp"

namespace glimpse::tuning {

using ScoreFn = std::function<double(const searchspace::Config&)>;
/// Scores a batch of configs; must return one score per input, in order.
using BatchScoreFn =
    std::function<std::vector<double>(const std::vector<searchspace::Config>&)>;

/// The temperature schedule is fixed in sa.cpp.
struct SaOptions {
  int num_chains = 48;
  int num_steps = 96;
};

struct SaResult {
  /// Distinct configs ordered by descending score (up to `top_k`).
  std::vector<searchspace::Config> configs;
  std::vector<double> scores;
  long long evaluations = 0;  ///< score-function calls made
};

/// Run annealing and return the `top_k` best distinct configurations.
/// `init` seeds some chains (remaining chains start at random configs).
/// Each lockstep round issues one BatchScoreFn call covering every chain.
SaResult simulated_annealing(const searchspace::ConfigSpace& space,
                             const BatchScoreFn& score_batch, std::size_t top_k,
                             Rng& rng, SaOptions options = {},
                             std::vector<searchspace::Config> init = {});

/// Convenience overload for per-config scorers: adapts `score` into a batch
/// function that scores the batch in order. Produces the same result as the
/// batched overload with an equivalent BatchScoreFn.
SaResult simulated_annealing(const searchspace::ConfigSpace& space, const ScoreFn& score,
                             std::size_t top_k, Rng& rng, SaOptions options = {},
                             std::vector<searchspace::Config> init = {});

}  // namespace glimpse::tuning
