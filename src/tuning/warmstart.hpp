// Warm-start advisor: cross-device transfer of tuning experience.
//
// The fleet's shared result-cache tiers (tier-*.jsonl, see
// tuning/result_cache.hpp) record every settled measurement any shard ever
// made. When a new job arrives for (task, target GPU), the advisor mines
// those tiers for donor entries of the *same task* measured on *any* known
// device, scores each donor config by
//
//   donor_relative_gflops * exp(-blueprint_distance(target, donor) / tau)
//
// and hands the top-k to the tuner via Tuner::set_warm_start. The Blueprint
// distance is the Euclidean distance between PCA embeddings of the two
// datasheets — the paper's hardware representation — so a Turing donor
// outweighs a Maxwell one for a Turing target. The per-device quirk factor
// in gpusim makes the transfer imperfect by design: seeds are proposed
// first and *measured*, never trusted blind, so a quirked twin cannot
// poison the search, only slow its head start.
//
// An optional learned ConfigPredictor blends into the donor scores (and can
// synthesize candidates when the tiers are empty), covering the
// "(layer spec, Blueprint) -> top-k configs" attack of ROADMAP item 4.
//
// Determinism: advise() is a pure function of (tier file contents, task,
// hw, options). Tier files are enumerated sorted, entries are grouped and
// deduplicated with ordered containers, and ties break on the
// lexicographically smaller config. No Rng is consumed — except the
// fixed-seed local stream used to sample predictor-only candidates, which
// is derived from the (task, hw) fingerprints and touches no caller state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hwspec/gpu_spec.hpp"
#include "ml/pca.hpp"
#include "searchspace/task.hpp"
#include "tuning/config_predictor.hpp"

namespace glimpse::tuning {

struct WarmStartOptions {
  /// Directory of tier-*.jsonl files to mine (a fleet's --cache-shared
  /// directory, or any directory holding result-cache tiers). Empty
  /// disables donor mining; the advisor then returns predictor-only seeds
  /// (or nothing, the cold-start fallback).
  std::string shared_dir;
  /// Seeds to emit, best first.
  std::size_t top_k = 8;
  /// Blueprint-distance scale: donor weight = exp(-distance / tau).
  /// Distances are in embedding units (database devices typically span
  /// 0 to ~8), so tau = 2 keeps same-arch donors strong and lets far
  /// datasheets fade rather than vanish.
  double blueprint_tau = 2.0;
  /// Optional learned ranking (not owned; may be unfitted/null). Blended as
  /// (1 - w) * transfer_score + w * clamp(predicted, 0, 1), with the weight
  /// w and the predictor-only candidate pool fixed in warmstart.cpp.
  const ConfigPredictor* predictor = nullptr;
};

/// Advice for one job. Empty configs = cold start (no donors, no
/// predictor): the caller must behave exactly as if warm-start were off.
struct WarmStart {
  std::vector<searchspace::Config> configs;  ///< best first
  std::vector<double> scores;                ///< aligned, in (0, 1]
  std::uint64_t tier_entries = 0;    ///< servable tier entries scanned
  std::uint64_t donor_entries = 0;   ///< entries matching the task
  std::uint64_t donor_devices = 0;   ///< distinct resolvable donor devices
  bool from_predictor_only = false;  ///< no donors; seeds are predictions
};

class WarmStartAdvisor {
 public:
  explicit WarmStartAdvisor(WarmStartOptions options);

  /// Mine the tiers (re-read on every call — tiers grow between jobs) and
  /// rank seeds for (task, hw). Unreadable files and unresolvable
  /// fingerprints are skipped, never fatal: the advisor is an accelerator,
  /// not a dependency.
  WarmStart advise(const searchspace::Task& task,
                   const hwspec::GpuSpec& hw) const;

  std::size_t blueprint_dim() const { return pca_.num_components(); }

 private:
  linalg::Vector embed(const hwspec::GpuSpec& hw) const;

  WarmStartOptions options_;
  ml::Pca pca_;  ///< datasheet -> Blueprint embedding (database-fit)
};

}  // namespace glimpse::tuning
