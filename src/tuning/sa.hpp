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
// every job at once (tuning/scheduler.hpp). Batch score functions must be
// pure (results depend only on the configs).
//
// Annealing runs on flat keys: the space must be flat_indexable(), and each
// chain carries its point's 64-bit mixed-radix index next to one reused
// Config buffer that a move mutates in place (the key moves by
// (new - old) * stride). The per-chain "seen" sets are flat key sets and the
// best-so-far pools are bounded heaps of (score, insertion seq, key), so a
// step allocates nothing per chain. Only the final top-k are decoded back
// into Configs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "searchspace/config_space.hpp"

namespace glimpse::tuning {

/// Scores a batch of configs; must return one score per input, in order.
/// `keys[i]` is `configs[i]`'s flat index in the annealed space, for scorers
/// that memoize by key.
using BatchScoreFn = std::function<std::vector<double>(
    const std::vector<searchspace::Config>& configs, std::span<const std::uint64_t> keys)>;

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

/// Run annealing and return the `top_k` best distinct configurations by
/// descending score (equal scores in a fixed, seed-determined order; see
/// DESIGN.md §12 "Annealing on flat keys"). `init` seeds some
/// chains (remaining chains start at random configs); every init config a
/// chain uses must be contained in `space`. Each lockstep round issues one
/// BatchScoreFn call covering every chain.
SaResult simulated_annealing(const searchspace::ConfigSpace& space,
                             const BatchScoreFn& score_batch, std::size_t top_k,
                             Rng& rng, SaOptions options = {},
                             std::vector<searchspace::Config> init = {});

}  // namespace glimpse::tuning
