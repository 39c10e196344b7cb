#include "tuning/tuner.hpp"

#include <stdexcept>

namespace glimpse::tuning {

void Tuner::save(TextWriter&) const {
  throw std::runtime_error("Tuner '" + name() + "' is not checkpointable");
}

void Tuner::load(TextReader&) {
  throw std::runtime_error("Tuner '" + name() + "' is not checkpointable");
}

void TunerBase::update(const std::vector<Config>& configs,
                       const std::vector<MeasureResult>& results) {
  record_results(configs, results);
}

void TunerBase::record_results(const std::vector<Config>& configs,
                               const std::vector<MeasureResult>& results) {
  for (std::size_t i = 0; i < configs.size(); ++i) {
    measured_configs_.push_back(configs[i]);
    measured_results_.push_back(results[i]);
    if (results[i].valid && results[i].gflops > best_gflops_) {
      best_gflops_ = results[i].gflops;
      best_config_ = configs[i];
    }
  }
}

bool TunerBase::random_unvisited(Config& out, int tries) {
  for (int t = 0; t < tries; ++t) {
    Config c = task_.space().random_config(rng_);
    if (!is_visited(c)) {
      out = std::move(c);
      return true;
    }
  }
  return false;
}

void TunerBase::fill_random(std::vector<Config>& out, std::size_t n) {
  while (out.size() < n) {
    Config c;
    if (!random_unvisited(c)) break;
    mark_visited(c);
    out.push_back(std::move(c));
  }
}

}  // namespace glimpse::tuning
