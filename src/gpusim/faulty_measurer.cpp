#include "gpusim/faulty_measurer.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"

namespace glimpse::gpusim {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kTransient: return "transient";
    case FaultKind::kTimeout: return "timeout";
    case FaultKind::kLatencySpike: return "latency_spike";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kCount: break;
  }
  return "unknown";
}

MeasureResult FaultInjector::measure(const searchspace::Task& task,
                                     const hwspec::GpuSpec& hw,
                                     const searchspace::Config& config,
                                     double timeout_s) {
  const std::uint64_t attempt = attempts_++;
  // Stateless per-attempt decision stream: reproducible for a given plan and
  // attempt index, independent of what was measured before.
  Rng rng = Rng::fork(plan_.seed, attempt);

  auto fires = [&](double p) { return p > 0.0 && rng.chance(std::min(1.0, p)); };

  bool scheduled =
      std::find(plan_.scheduled_transients.begin(), plan_.scheduled_transients.end(),
                attempt) != plan_.scheduled_transients.end();

  auto inject = [&](FaultKind k) {
    ++injected_[static_cast<std::size_t>(k)];
    if (telemetry::metrics_enabled())
      telemetry::MetricsRegistry::global()
          .counter(std::string("faults.injected.") + to_string(k))
          .add(1);
  };

  // Decision order is fixed: transient, timeout, then post-measurement
  // spike/corrupt. Each attempt draws from its own forked stream, so an
  // early return here never perturbs any later attempt's decisions.
  if (scheduled || fires(plan_.p_transient)) {
    inject(FaultKind::kTransient);
    MeasureResult r;
    r.error = MeasureError::kTransient;
    r.cost_s = kTransientCostS;
    inner_.add_cost(r.cost_s);
    return r;
  }
  if (fires(plan_.p_timeout)) {
    inject(FaultKind::kTimeout);
    MeasureResult r;
    r.error = MeasureError::kTimeout;
    r.cost_s = std::isfinite(timeout_s) ? timeout_s : kTimeoutCostS;
    inner_.add_cost(r.cost_s);
    return r;
  }

  MeasureResult r = inner_.measure(task, hw, config, timeout_s);

  if (r.error == MeasureError::kNone && fires(plan_.p_spike)) {
    inject(FaultKind::kLatencySpike);
    double extra = r.cost_s * (kSpikeFactor - 1.0);
    inner_.add_cost(extra);
    r.cost_s += extra;
  }
  if (r.valid && fires(plan_.p_corrupt)) {
    inject(FaultKind::kCorrupt);
    // Silent corruption: the payload is garbled but still flagged valid.
    // The retry pipeline's plausibility check is what must catch this.
    r.latency_s = -r.latency_s;
    r.gflops = -1.0;
  }
  return r;
}

std::uint64_t FaultInjector::num_failures() const {
  return num_injected(FaultKind::kTransient) + num_injected(FaultKind::kTimeout) +
         num_injected(FaultKind::kCorrupt);
}

void FaultInjector::save_state(TextWriter& w) const {
  w.tag("fault_injector_v1");
  w.scalar_u(attempts_);
  for (std::uint64_t count : injected_) w.scalar_u(count);
  inner_.save_state(w);
}

void FaultInjector::load_state(TextReader& r) {
  r.expect("fault_injector_v1");
  attempts_ = r.scalar_u();
  for (auto& count : injected_) count = r.scalar_u();
  inner_.load_state(r);
}

}  // namespace glimpse::gpusim
