// Chameleon baseline (Ahn et al., ICLR'20 "Adaptive code optimization for
// expedited deep neural network compilation"), built on the AutoTVM stack
// with its two additions:
//  * Adaptive Exploration — the annealing effort shrinks as rounds stop
//    improving (standing in for Chameleon's learned RL exploration policy).
//  * Adaptive Sampling — candidates are k-means clustered in feature space
//    and only cluster representatives are measured; per-knob mode "sample
//    synthesis" replaces representatives prone to invalidity.
// The schedule constants of both additions live in chameleon.cpp.
#pragma once

#include "baselines/autotvm.hpp"

namespace glimpse::baselines {

class ChameleonTuner final : public AutoTvmTuner {
 public:
  ChameleonTuner(const searchspace::Task& task, const hwspec::GpuSpec& hw,
                 std::uint64_t seed);

  std::string name() const override { return "Chameleon"; }
  std::vector<tuning::Config> propose(std::size_t n) override;
  void update(const std::vector<tuning::Config>& configs,
              const std::vector<tuning::MeasureResult>& results) override;

 private:
  /// Per-knob mode over a cluster's members ("sample synthesis").
  tuning::Config synthesize(const std::vector<const tuning::Config*>& members) const;

  int sa_steps_;
  double last_round_best_ = 0.0;
};

tuning::TunerFactory chameleon_factory();

}  // namespace glimpse::baselines
