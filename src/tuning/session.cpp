#include "tuning/session.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuning/scheduler.hpp"

namespace glimpse::tuning {

double Trace::best_gflops(std::size_t upto) const {
  double best = 0.0;
  std::size_t n = std::min(upto, trials.size());
  for (std::size_t i = 0; i < n; ++i)
    if (trials[i].result.valid) best = std::max(best, trials[i].result.gflops);
  return best;
}

double Trace::best_latency() const {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& t : trials)
    if (t.result.valid) best = std::min(best, t.result.latency_s);
  return best;
}

std::size_t Trace::num_invalid() const {
  std::size_t n = 0;
  for (const auto& t : trials)
    if (!t.result.valid && t.result.error == MeasureError::kNone) ++n;
  return n;
}

double Trace::invalid_fraction() const {
  return trials.empty() ? 0.0
                        : static_cast<double>(num_invalid()) /
                              static_cast<double>(trials.size());
}

std::size_t Trace::num_faulted() const {
  std::size_t n = 0;
  for (const auto& t : trials)
    if (t.result.error != MeasureError::kNone) ++n;
  return n;
}

double Trace::total_cost_s() const {
  return trials.empty() ? 0.0 : trials.back().elapsed_s;
}

Trace run_session(Tuner& tuner, const searchspace::Task& task,
                  const hwspec::GpuSpec& hw, gpusim::Measurer& measurer,
                  const SessionOptions& options) {
  GLIMPSE_CHECK(options.batch_size >= 1);
  GLIMPSE_SPAN("session.run");
  // A session is a one-job schedule: the scheduler's plan/measure/assemble
  // round degenerates to propose/measure/update with every config owned,
  // reproducing the classic session loop bit for bit.
  std::vector<ScheduledJob> jobs(1);
  jobs[0].tuner = &tuner;
  jobs[0].task = &task;
  jobs[0].hw = &hw;
  jobs[0].measurer = &measurer;
  jobs[0].options = options;
  SchedulerOptions sched;
  sched.slots = 1;
  std::vector<Trace> traces = run_scheduled(jobs, sched);
  return std::move(traces.front());
}

bool trace_decisions_identical(const Trace& a, const Trace& b) {
  if (a.trials.size() != b.trials.size()) return false;
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    const TrialRecord& x = a.trials[i];
    const TrialRecord& y = b.trials[i];
    if (!(x.config == y.config && x.step == y.step &&
          x.result.valid == y.result.valid && x.result.reason == y.result.reason &&
          x.result.error == y.result.error &&
          x.result.attempts == y.result.attempts &&
          x.result.latency_s == y.result.latency_s &&
          x.result.gflops == y.result.gflops && x.result.cost_s == y.result.cost_s))
      return false;
  }
  return true;
}

}  // namespace glimpse::tuning
