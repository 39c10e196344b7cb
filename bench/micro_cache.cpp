// Result-cache bench: repeated-task tuning with the measurement cache on.
//
// A transfer-learning style sweep (paper Fig. 5) re-tunes the same task many
// times — across seeds, tuner variants, and ablation arms — and without a
// cache every repeat pays the full simulated measurement bill again. This
// bench runs R identical tuning sessions per arm, once without and once with
// a shared ResultCache, and reports the reduction in measurer invocations
// (expected: ~R×, since only the first repeat measures) plus a
// decisions-identity check: the cache must change the simulated clock only,
// never a tuning decision.
//
// Arms: Random and AutoTVM single sessions, and the multi-task scheduler
// running four identical jobs over a bounded slot pool (cross-job sharing
// already dedups within a run; the cache removes the across-run repeats).
//
// Gates per arm (never skipped): reduction >= 5x, decisions identical, the
// cache arm measures no more than the baseline, and the reported reduction
// matches the counts. Results go to stdout and BENCH_cache.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/autotvm.hpp"
#include "baselines/random_tuner.hpp"
#include "bench_common.hpp"
#include "hwspec/database.hpp"
#include "searchspace/models.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/scheduler.hpp"
#include "tuning/session.hpp"

namespace {

using namespace glimpse;

constexpr std::size_t kRepeats = 6;
constexpr std::size_t kMaxTrials = 64;
constexpr std::size_t kBatch = 8;
constexpr std::uint64_t kSeed = 95;

using bench::now_ms;

tuning::SessionOptions session_options() {
  tuning::SessionOptions o;
  o.max_trials = kMaxTrials;
  o.batch_size = kBatch;
  return o;
}

struct Sweep {
  std::string name;
  std::string tuner;
  std::size_t repeats = 0;
  std::size_t trials_total = 0;
  std::size_t measurements_no_cache = 0;
  std::size_t measurements_cache = 0;
  double reduction = 0.0;
  std::uint64_t cache_hits = 0;
  bool traces_identical = true;
  double wall_ms = 0.0;
};

using TunerFactory = std::function<std::unique_ptr<tuning::Tuner>()>;

/// R identical sessions; `cache` nullptr for the baseline arm. Returns the
/// traces and accumulates measurer invocations into `measurements`.
std::vector<tuning::Trace> run_repeats(const bench::MicroWorkload& w,
                                       const TunerFactory& make,
                                       tuning::ResultCache* cache,
                                       std::size_t& measurements) {
  std::vector<tuning::Trace> traces;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    auto tuner = make();
    gpusim::SimMeasurer sim;
    tuning::SessionOptions opts = session_options();
    opts.result_cache = cache;
    traces.push_back(tuning::run_session(*tuner, w.task, *w.gpu, sim, opts));
    measurements += sim.num_measurements();
  }
  return traces;
}

Sweep run_session_sweep(const bench::MicroWorkload& w, const std::string& name,
                        const std::string& tuner_name, const TunerFactory& make) {
  Sweep s;
  s.name = name;
  s.tuner = tuner_name;
  s.repeats = kRepeats;
  double t0 = now_ms();

  std::vector<tuning::Trace> plain = run_repeats(w, make, nullptr,
                                                 s.measurements_no_cache);
  tuning::ResultCache cache;
  std::vector<tuning::Trace> cached = run_repeats(w, make, &cache,
                                                  s.measurements_cache);

  s.wall_ms = now_ms() - t0;
  s.cache_hits = cache.stats().hits;
  for (std::size_t r = 0; r < kRepeats; ++r) {
    s.trials_total += cached[r].trials.size();
    s.traces_identical = s.traces_identical &&
                         tuning::trace_decisions_identical(plain[r], cached[r]);
  }
  s.reduction = s.measurements_cache
                    ? static_cast<double>(s.measurements_no_cache) /
                          static_cast<double>(s.measurements_cache)
                    : 0.0;
  return s;
}

/// Four identical jobs per scheduler run (cross-job dedup makes three of
/// them pure followers), repeated R times against one shared cache.
Sweep run_scheduler_sweep(const bench::MicroWorkload& w) {
  constexpr std::size_t kJobs = 4;
  Sweep s;
  s.name = "scheduler_4x_random";
  s.tuner = "Random";
  s.repeats = kRepeats;
  double t0 = now_ms();

  auto run_once = [&](tuning::ResultCache* cache, std::size_t& measurements) {
    std::vector<std::unique_ptr<baselines::RandomTuner>> tuners;
    std::vector<std::unique_ptr<gpusim::SimMeasurer>> sims;
    std::vector<tuning::ScheduledJob> jobs;
    for (std::size_t j = 0; j < kJobs; ++j) {
      tuners.push_back(std::make_unique<baselines::RandomTuner>(w.task, *w.gpu, kSeed));
      sims.push_back(std::make_unique<gpusim::SimMeasurer>());
      tuning::ScheduledJob job;
      job.tuner = tuners.back().get();
      job.task = &w.task;
      job.hw = w.gpu;
      job.measurer = sims.back().get();
      job.options = session_options();
      job.options.result_cache = cache;
      jobs.push_back(job);
    }
    std::vector<tuning::Trace> traces = tuning::run_scheduled(jobs, {.slots = 4});
    for (const auto& sim : sims) measurements += sim->num_measurements();
    return traces;
  };

  std::vector<std::vector<tuning::Trace>> plain, cached;
  for (std::size_t r = 0; r < kRepeats; ++r)
    plain.push_back(run_once(nullptr, s.measurements_no_cache));
  tuning::ResultCache cache;
  for (std::size_t r = 0; r < kRepeats; ++r)
    cached.push_back(run_once(&cache, s.measurements_cache));

  s.wall_ms = now_ms() - t0;
  s.cache_hits = cache.stats().hits;
  for (std::size_t r = 0; r < kRepeats; ++r)
    for (std::size_t j = 0; j < kJobs; ++j) {
      s.trials_total += cached[r][j].trials.size();
      s.traces_identical =
          s.traces_identical &&
          tuning::trace_decisions_identical(plain[r][j], cached[r][j]);
    }
  s.reduction = s.measurements_cache
                    ? static_cast<double>(s.measurements_no_cache) /
                          static_cast<double>(s.measurements_cache)
                    : 0.0;
  return s;
}

/// Reports one arm with its gates (never skipped).
void report_sweep(bench::Report& report, const Sweep& s) {
  using Op = bench::Report::Op;
  report.row({{"name", s.name},
              {"tuner", s.tuner},
              {"repeats", s.repeats},
              {"trials_total", s.trials_total},
              {"measurements_no_cache", s.measurements_no_cache},
              {"measurements_cache", s.measurements_cache},
              {"reduction", s.reduction},
              {"cache_hits", s.cache_hits},
              {"traces_identical", s.traces_identical},
              {"wall_ms", s.wall_ms}});
  report.gate(s.name + ".reduction", s.reduction, Op::kGe, 5.0);
  report.check(s.name + ".traces_identical", s.traces_identical);
  report.gate(s.name + ".measurements_cache", s.measurements_cache, Op::kLe,
              s.measurements_no_cache);
  if (s.measurements_cache > 0) {
    const double ratio = static_cast<double>(s.measurements_no_cache) /
                         static_cast<double>(s.measurements_cache);
    report.gate(s.name + ".reduction_error", std::abs(s.reduction - ratio), Op::kLe,
                0.05 * std::max(1.0, ratio));
  }
}

}  // namespace

int main() {
  std::printf("=== micro_cache: repeated-task tuning with the result cache ===\n\n");
  bench::Report report("cache");
  report.param("max_trials", kMaxTrials);
  report.param("batch_size", kBatch);
  report.param("repeats", kRepeats);
  const auto w = bench::micro_workload("cache.conv");

  report_sweep(report, run_session_sweep(w, "repeat_random", "Random", [&] {
    return std::make_unique<baselines::RandomTuner>(w.task, *w.gpu, kSeed);
  }));
  report_sweep(report, run_session_sweep(w, "repeat_autotvm", "AutoTVM", [&] {
    return std::make_unique<baselines::AutoTvmTuner>(w.task, *w.gpu, kSeed);
  }));
  report_sweep(report, run_scheduler_sweep(w));
  return report.write();
}
