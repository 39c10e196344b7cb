// Timing seams the benchmark puts around the program's public interfaces.
//
// TimedTuner and TimedMeasurer are decorators: they forward every virtual
// of tuning::Tuner / gpusim::Measurer to the wrapped object and add only
// wall-clock and call counts, so a wrapped session makes exactly the
// decisions an unwrapped one makes (the harness's --selftest proves it by
// digest at pool widths 1 and 4).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/measurer.hpp"
#include "tuning/session.hpp"
#include "tuning/tuner.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct TunerTimes {
  double propose_s = 0.0;
  double update_s = 0.0;
  std::uint64_t propose_calls = 0;
};

class TimedTuner final : public glimpse::tuning::Tuner {
 public:
  explicit TimedTuner(glimpse::tuning::Tuner& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::vector<glimpse::tuning::Config> propose(std::size_t n) override;
  void update(const std::vector<glimpse::tuning::Config>& configs,
              const std::vector<glimpse::tuning::MeasureResult>& results) override;
  void set_warm_start(const std::vector<glimpse::tuning::Config>& configs,
                      const std::vector<double>& scores) override {
    inner_.set_warm_start(configs, scores);
  }
  bool checkpointable() const override { return inner_.checkpointable(); }
  void save(glimpse::TextWriter& w) const override { inner_.save(w); }
  void load(glimpse::TextReader& r) override { inner_.load(r); }

  const TunerTimes& times() const { return times_; }

 private:
  glimpse::tuning::Tuner& inner_;
  TunerTimes times_;
};

struct MeasurerTimes {
  double measure_s = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t invalid = 0;
};

/// Each job owns its measurer and the scheduler touches a job's measurer
/// from one thread at a time, so the counters need no synchronization.
class TimedMeasurer final : public glimpse::gpusim::Measurer {
 public:
  explicit TimedMeasurer(glimpse::gpusim::Measurer& inner) : inner_(inner) {}

  using Measurer::measure;
  glimpse::gpusim::MeasureResult measure(const glimpse::searchspace::Task& task,
                                         const glimpse::hwspec::GpuSpec& hw,
                                         const glimpse::searchspace::Config& config,
                                         double timeout_s) override;
  double elapsed_seconds() const override { return inner_.elapsed_seconds(); }
  void add_cost(double seconds) override { inner_.add_cost(seconds); }
  void save_state(glimpse::TextWriter& w) const override { inner_.save_state(w); }
  void load_state(glimpse::TextReader& r) override { inner_.load_state(r); }

  const MeasurerTimes& times() const { return times_; }

 private:
  glimpse::gpusim::Measurer& inner_;
  MeasurerTimes times_;
};

/// FNV-1a over every tuning decision in `traces`: per trial the config, the
/// result fields and the step index. `elapsed_s` is excluded: it is the
/// simulated clock, which a cache hit legitimately changes.
std::uint64_t decisions_digest(const std::vector<const glimpse::tuning::Trace*>& traces);

/// Re-measure `config` on a fresh SimMeasurer; true when it reproduces
/// `gflops` bit for bit.
bool remeasure_matches(const glimpse::searchspace::Task& task,
                       const glimpse::hwspec::GpuSpec& hw,
                       const glimpse::searchspace::Config& config, double gflops);

/// Order statistics (linear interpolation between closest ranks).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double geomean(const std::vector<double>& v);

/// Process resource usage.
double process_cpu_s();
double peak_rss_mb();

/// Host-wide CPU time from /proc/stat, in clock ticks: the non-idle time of
/// every CPU and the part of it the hypervisor stole. Both read 0 where
/// /proc/stat is missing.
struct HostTicks {
  double busy = 0.0;
  double steal = 0.0;
};
HostTicks host_ticks();

/// Share of the host's non-idle time stolen between readings `a` and `b`.
inline double steal_frac(const HostTicks& a, const HostTicks& b) {
  const double busy = b.busy - a.busy;
  return busy > 0.0 ? (b.steal - a.steal) / busy : 0.0;
}

}  // namespace perfbench
