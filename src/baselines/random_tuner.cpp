#include "baselines/random_tuner.hpp"

#include <memory>

namespace glimpse::baselines {

std::vector<tuning::Config> RandomTuner::propose(std::size_t n) {
  std::vector<tuning::Config> out;
  fill_random(out, n);
  return out;
}

tuning::TunerFactory random_factory() {
  return [](const searchspace::Task& task, const hwspec::GpuSpec& hw,
            std::uint64_t seed) {
    return std::make_unique<RandomTuner>(task, hw, seed);
  };
}

}  // namespace glimpse::baselines
