#include "timing.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

using glimpse::gpusim::MeasureResult;
using glimpse::tuning::Config;

std::vector<Config> TimedTuner::propose(std::size_t n) {
  const double t0 = now_s();
  std::vector<Config> out = inner_.propose(n);
  times_.propose_s += now_s() - t0;
  ++times_.propose_calls;
  return out;
}

void TimedTuner::update(const std::vector<Config>& configs,
                        const std::vector<MeasureResult>& results) {
  const double t0 = now_s();
  inner_.update(configs, results);
  times_.update_s += now_s() - t0;
}

MeasureResult TimedMeasurer::measure(const glimpse::searchspace::Task& task,
                                     const glimpse::hwspec::GpuSpec& hw,
                                     const Config& config, double timeout_s) {
  const double t0 = now_s();
  MeasureResult r = inner_.measure(task, hw, config, timeout_s);
  times_.measure_s += now_s() - t0;
  ++times_.calls;
  if (!r.valid && r.error == glimpse::gpusim::MeasureError::kNone) ++times_.invalid;
  return r;
}

namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
};

}  // namespace

std::uint64_t decisions_digest(const std::vector<const glimpse::tuning::Trace*>& traces) {
  Fnv f;
  for (const glimpse::tuning::Trace* t : traces) {
    f.value(t->trials.size());
    for (const glimpse::tuning::TrialRecord& rec : t->trials) {
      f.value(rec.config.size());
      for (std::uint32_t v : rec.config) f.value(v);
      const MeasureResult& r = rec.result;
      f.value(r.valid);
      f.value(r.reason);
      f.value(r.error);
      f.value(r.attempts);
      f.value(r.latency_s);
      f.value(r.gflops);
      f.value(r.cost_s);
      f.value(rec.step);
    }
  }
  return f.h;
}

bool remeasure_matches(const glimpse::searchspace::Task& task,
                       const glimpse::hwspec::GpuSpec& hw, const Config& config,
                       double gflops) {
  glimpse::gpusim::SimMeasurer fresh;
  const MeasureResult r = fresh.measure(task, hw, config);
  return r.valid && r.gflops == gflops;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double process_cpu_s() {
  rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

HostTicks host_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string line;
  HostTicks t;
  if (!std::getline(in, line)) return t;
  std::istringstream fields(line);
  std::string label;
  double v[8] = {};
  fields >> label;
  for (double& x : v) fields >> x;
  if (label != "cpu" || !fields) return t;
  t.busy = v[0] + v[1] + v[2] + v[5] + v[6] + v[7];  // all but idle and iowait
  t.steal = v[7];
  return t;
}

}  // namespace perfbench
