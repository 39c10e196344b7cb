// Evaluation metrics over tuning traces, matching the paper's reporting:
// search steps to a quality threshold (Fig. 6) and the Hyper-Volume summary
// with its two reductions (Table 2). The per-trace statistics the other
// figures read (best GFLOPS, invalid-config fraction, simulated cost) are
// Trace methods (tuning/session.hpp).
#pragma once

#include <optional>

#include "tuning/session.hpp"

namespace glimpse::tuning {

/// Number of trials until best-so-far reaches `gflops_threshold`;
/// nullopt when the trace never reaches it.
std::optional<std::size_t> steps_to_reach(const Trace& trace, double gflops_threshold);

/// Hyper-Volume as defined by the paper's Eq. (2):
///   HV = SearchReduction x InferenceReduction x 100,
/// where reductions are relative to a baseline's (search time, latency).
double hyper_volume(double baseline_search_s, double baseline_latency_s,
                    double search_s, double latency_s);

/// SearchReduction in percent: (1 - search/baseline) * 100.
double search_reduction_pct(double baseline_search_s, double search_s);
/// InferenceReduction in percent: (1 - latency/baseline) * 100.
double inference_reduction_pct(double baseline_latency_s, double latency_s);

}  // namespace glimpse::tuning
