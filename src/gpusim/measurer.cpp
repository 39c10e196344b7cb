#include "gpusim/measurer.hpp"

#include <cmath>

#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"

namespace glimpse::gpusim {

const char* to_string(MeasureError e) {
  switch (e) {
    case MeasureError::kNone: return "none";
    case MeasureError::kTransient: return "transient";
    case MeasureError::kTimeout: return "timeout";
    case MeasureError::kCorrupt: return "corrupt";
  }
  return "unknown";
}

namespace {

/// Simulated-cost histogram plus outcome counters for one measurement.
void record_measure_metrics(const MeasureResult& r) {
  if (!telemetry::metrics_enabled()) return;
  GLIMPSE_COUNTER("measure.count").add(1);
  if (!r.valid) GLIMPSE_COUNTER("measure.invalid").add(1);
  GLIMPSE_HISTOGRAM("measure.cost_s").record(r.cost_s);
  if (r.valid) GLIMPSE_HISTOGRAM("measure.latency_s").record(r.latency_s);
}

}  // namespace

MeasureResult SimMeasurer::measure(const searchspace::Task& task,
                                   const hwspec::GpuSpec& hw,
                                   const searchspace::Config& config,
                                   double timeout_s) {
  GLIMPSE_SPAN("measure.measure");
  PerfEstimate est = estimate(task, config, hw);
  MeasureResult r;
  r.reason = est.reason;
  ++num_measurements_;

  if (!est.valid) {
    ++num_invalid_;
    if (est.reason == InvalidReason::kCompileTimeout) {
      r.cost_s = kCompileTimeoutS + kRpcOverheadS * 0.5;
    } else if (detected_at_compile(est.reason)) {
      r.cost_s = kCompileS + kRpcOverheadS * 0.5;
    } else {
      // Launch failure: full compile + upload, then the error comes back.
      r.cost_s = kCompileS + kRpcOverheadS;
    }
    if (r.cost_s > timeout_s) {
      r.reason = InvalidReason::kNone;
      r.error = MeasureError::kTimeout;
      r.cost_s = timeout_s;
    }
    elapsed_s_ += r.cost_s;
    record_measure_metrics(r);
    return r;
  }

  // Deterministic per-measurement noise stream.
  std::uint64_t seed = hash_combine(task.seed(), hw.seed());
  seed = hash_combine(seed, searchspace::ConfigHash{}(config));
  Rng rng(seed);
  double noise = std::exp(rng.normal(0.0, kNoiseSigma));

  r.valid = true;
  r.latency_s = est.latency_s * noise;
  r.gflops = task.flops() / r.latency_s / 1e9;
  r.cost_s = kCompileS + kRpcOverheadS + kMeasureRepeats * r.latency_s;
  if (r.cost_s > timeout_s) {
    // The attempt was cut off before the timed runs completed.
    r.valid = false;
    r.error = MeasureError::kTimeout;
    r.latency_s = 0.0;
    r.gflops = 0.0;
    r.cost_s = timeout_s;
    ++num_invalid_;
  }
  elapsed_s_ += r.cost_s;
  record_measure_metrics(r);
  return r;
}

void SimMeasurer::save_state(TextWriter& w) const {
  w.tag("sim_measurer_v1");
  w.scalar(elapsed_s_);
  w.scalar_u(num_measurements_);
  w.scalar_u(num_invalid_);
}

void SimMeasurer::load_state(TextReader& r) {
  r.expect("sim_measurer_v1");
  elapsed_s_ = r.scalar();
  num_measurements_ = r.scalar_u();
  num_invalid_ = r.scalar_u();
}

}  // namespace glimpse::gpusim
