#include "tuning/metrics.hpp"

namespace glimpse::tuning {

std::optional<std::size_t> steps_to_reach(const Trace& trace, double gflops_threshold) {
  double best = 0.0;
  for (std::size_t i = 0; i < trace.trials.size(); ++i) {
    const auto& t = trace.trials[i];
    if (t.result.valid) best = std::max(best, t.result.gflops);
    if (best >= gflops_threshold) return i + 1;
  }
  return std::nullopt;
}

double search_reduction_pct(double baseline_search_s, double search_s) {
  return (1.0 - search_s / baseline_search_s) * 100.0;
}

double inference_reduction_pct(double baseline_latency_s, double latency_s) {
  return (1.0 - latency_s / baseline_latency_s) * 100.0;
}

double hyper_volume(double baseline_search_s, double baseline_latency_s,
                    double search_s, double latency_s) {
  double sr = search_reduction_pct(baseline_search_s, search_s) / 100.0;
  double ir = inference_reduction_pct(baseline_latency_s, latency_s) / 100.0;
  return sr * ir * 100.0;
}

}  // namespace glimpse::tuning
