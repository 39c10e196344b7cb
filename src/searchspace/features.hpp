// Config featurization and hardware-independent derived quantities.
//
// `DerivedConfig` captures what a configuration *means* for the generated
// CUDA kernel — thread-block geometry, staging-buffer sizes, register
// pressure, memory traffic — independent of any particular GPU. The GPU
// simulator applies per-GPU limits and timing on top of these; cost models
// and Glimpse's components consume them as features.
#pragma once

#include "linalg/matrix.hpp"
#include "searchspace/task.hpp"

namespace glimpse::searchspace {

struct DerivedConfig {
  // Thread-block geometry.
  long long threads_per_block = 1;  ///< tf * ty * tx
  long long num_blocks = 1;         ///< grid size
  long long vthreads = 1;           ///< virtual-thread product
  long long work_per_thread = 1;    ///< output elements per thread

  // Per-block resource estimates.
  double shared_bytes = 0.0;    ///< staging buffers (input + weight tiles)
  double regs_per_thread = 0.0; ///< accumulators + staging + unroll pressure

  // Memory behaviour.
  double global_bytes = 0.0;  ///< total global-memory traffic of the kernel
  int inner_x = 1;            ///< innermost contiguous-axis factor (coalescing)
  int thread_x = 1;           ///< thread count along the contiguous axis

  // Loop structure.
  long long reduce_steps = 1;  ///< outer reduction trip count (tile loads)
  int unroll_step = 0;         ///< auto_unroll_max_step value
  bool unroll_explicit = false;
  long long unrolled_body = 1; ///< work the unroller must expand (compile cost)

  // Tensor-core template option (Bolt-style). When set, the kernel issues
  // MMA tiles instead of scalar FMAs; the gpusim resource model rejects it
  // on Blueprints without tensor cores, and the perf model swaps in the
  // tensor peak with its own occupancy/alignment rules. tile_rows/tile_cols
  // are the per-block output tile the MMA shapes must cover.
  bool use_tensor_core = false;
  long long tile_rows = 1;
  long long tile_cols = 1;
};

/// Width of derived_config_features().
inline constexpr std::size_t kDerivedFeatureDim = 14;

/// Integers below this have their log2 read from a table (log2_int).
inline constexpr int kLog2TableSize = 4096;

/// std::log2(static_cast<double>(n)), bit for bit: for 1 <= n <
/// kLog2TableSize it is read from a process-wide table of libm results,
/// built on first use; otherwise it is computed. Featurization reads the
/// logs of split parts, categorical values and integer-valued derived
/// quantities this way.
double log2_int(long long n);

/// Compute the derived quantities of `config` for `task`'s template.
DerivedConfig derive(const Task& task, const Config& config);

/// Feature vector of a configuration: log2 of every knob part plus log2 of
/// the derived quantities. Hardware-independent (AutoTVM-style "knob
/// features"); length is config_feature_dim(task).
linalg::Vector config_features(const Task& task, const Config& config);
std::size_t config_feature_dim(const Task& task);
/// config_features(task, config) written into `out` (config_feature_dim(task)
/// wide), for callers that pack many configs into matrix rows.
void config_features_into(const Task& task, const Config& config, std::span<double> out);

/// Both per-config feature vectors from one derive(): writes
/// config_features(task, config) into `features` (config_feature_dim(task)
/// wide) and derived_config_features(task, config) into `derived`
/// (kDerivedFeatureDim wide), bit-identical to the two separate calls. For
/// callers that pack many configs into matrix rows.
void featurize_into(const Task& task, const Config& config, std::span<double> features,
                    std::span<double> derived);

/// Task-independent feature vector: the task's layer features concatenated
/// with the derived config quantities. Fixed length across all tasks, so
/// models trained on one task's logs can score another's configurations —
/// the representation transfer-learning baselines and Glimpse's offline
/// training share.
linalg::Vector transfer_features(const Task& task, const Config& config);
std::size_t transfer_feature_dim();

/// The derived-quantity block of transfer_features alone (no layer
/// conditioning). This is the representation AutoTVM-style cost-model
/// transfer actually has across tasks: knob-level kernel geometry without
/// knowledge of the workload shape — the reason cross-shape transfer is
/// brittle (paper §4.1).
linalg::Vector derived_config_features(const Task& task, const Config& config);

}  // namespace glimpse::searchspace
