// Warm-start bench: cross-device cache transfer vs cold-start tuning.
//
// Five donor GPUs spanning three generations and SM counts from 30 to 72
// (Titan Xp, RTX 2070 Super, RTX 2070, RTX 2080, Titan RTX) tune the
// workload task first, their measurements landing in shared result-cache
// tiers as a --cache-shared fleet writes them. A held-out device
// (RTX 2080 Ti) then tunes
// the same task twice per arm: cold (today's behaviour) and warm (the
// WarmStartAdvisor mines the donor tiers, weights entries by Blueprint
// distance, and seeds the tuner's first proposals + surrogate priors).
//
// Metric: measurer invocations to reach the cold search's converged
// quality — the first trial at which each arm's best-so-far attains 95 % of
// the cold run's final best under the same fixed trial budget (the
// time-to-quality comparison AutoTVM-style papers report; the 5 % band
// absorbs the flat tail of the convergence curve, where single-percent
// nudges arrive tens of trials apart). A quality guard keeps the bar
// honest: the warm run's own final best must also reach 95 % of the cold
// run's ("same best-cost"), so warm-start cannot win the race and lose the
// destination. Without fault injection or a result cache every trial is
// exactly one measurer invocation, so the trial index is the invocation
// count. Gates (never skipped; the measurer is simulated): every arm
// passes the quality guard with >= 50 % fewer invocations to parity
// (reduction >= 2x), and the warm run's decisions are bit-identical at 1
// and 4 measurement threads — warm-start must accelerate the search, never
// perturb its determinism. The counts must also be consistent: seeds within
// top_k, invocations within the budget, parity below the cold best, and the
// reported reduction matching the invocation counts.
//
// Results go to stdout and BENCH_warmstart.json.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/autotvm.hpp"
#include "baselines/chameleon.hpp"
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "hwspec/database.hpp"
#include "searchspace/models.hpp"
#include "tuning/metrics.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/session.hpp"
#include "tuning/warmstart.hpp"

namespace {

using namespace glimpse;

constexpr std::size_t kDonorTrials = 256;  ///< donor search depth per device
constexpr std::size_t kMaxTrials = 128;  ///< cold/warm arm budget
constexpr std::size_t kBatch = 8;
constexpr std::uint64_t kSeed = 1203;
constexpr std::size_t kTopK = 16;

using bench::now_ms;

struct Workload {
  searchspace::Task task;
  const hwspec::GpuSpec* target;
  std::vector<const hwspec::GpuSpec*> donors;
};

Workload make_workload() {
  Workload w{bench::micro_conv_task("warmstart.conv"),
             hwspec::find_gpu("RTX 2080 Ti"),
             {hwspec::find_gpu("Titan Xp"), hwspec::find_gpu("RTX 2070 Super"),
              hwspec::find_gpu("RTX 2070"), hwspec::find_gpu("RTX 2080"),
              hwspec::find_gpu("Titan RTX")}};
  return w;
}

using TunerFactory =
    std::function<std::unique_ptr<tuning::Tuner>(const hwspec::GpuSpec&)>;

/// Donor corpus: each donor device tunes the task with its measurements
/// recorded into its own tier file, exactly as a fleet shard would.
void build_donor_tiers(const Workload& w, const std::string& dir,
                       const TunerFactory& make) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (std::size_t d = 0; d < w.donors.size(); ++d) {
    tuning::ResultCacheOptions copts;
    copts.path = dir + "/tier-donor" + std::to_string(d) + ".jsonl";
    copts.shared_dir = dir;
    tuning::ResultCache cache(copts);
    auto tuner = make(*w.donors[d]);
    gpusim::SimMeasurer sim;
    tuning::SessionOptions opts;
    opts.max_trials = kDonorTrials;
    opts.batch_size = kBatch;
    opts.result_cache = &cache;
    tuning::run_session(*tuner, w.task, *w.donors[d], sim, opts);
  }
}

tuning::Trace run_arm(const Workload& w, const TunerFactory& make,
                      const tuning::WarmStart* ws, std::size_t& measurements) {
  auto tuner = make(*w.target);
  gpusim::SimMeasurer sim;
  tuning::SessionOptions opts;
  opts.max_trials = kMaxTrials;
  opts.batch_size = kBatch;
  if (ws != nullptr) {
    opts.warm_configs = ws->configs;
    opts.warm_scores = ws->scores;
  }
  tuning::Trace tr = tuning::run_session(*tuner, w.task, *w.target, sim, opts);
  measurements += sim.num_measurements();
  return tr;
}

/// Runs one arm (cold, then warm at 1 and 4 threads) and reports it with its
/// gates (never skipped; the measurer is simulated).
void run_bench_arm(bench::Report& report, const Workload& w, const std::string& tier_dir,
                   const std::string& name, const TunerFactory& make) {
  using Op = bench::Report::Op;
  const double t0 = now_ms();

  tuning::WarmStartOptions wopts;
  wopts.shared_dir = tier_dir;
  wopts.top_k = kTopK;
  const tuning::WarmStartAdvisor advisor(wopts);
  const tuning::WarmStart ws = advisor.advise(w.task, *w.target);

  std::size_t cold_meas = 0, warm_meas = 0, warm_meas4 = 0;
  const tuning::Trace cold = run_arm(w, make, nullptr, cold_meas);
  set_num_threads(1);
  const tuning::Trace warm = run_arm(w, make, &ws, warm_meas);
  set_num_threads(4);
  const tuning::Trace warm4 = run_arm(w, make, &ws, warm_meas4);
  set_num_threads(0);  // restore the environment default

  const double cold_best = cold.best_gflops();
  const double warm_best = warm.best_gflops();
  const double parity = 0.95 * cold_best;  // 95 % of the cold run's final best
  // Invocations until parity, per arm.
  const std::size_t cold_invocations = tuning::steps_to_reach(cold, parity).value_or(0);
  const std::size_t warm_invocations = tuning::steps_to_reach(warm, parity).value_or(0);
  const bool quality_held = warm_best >= parity;  // warm final best within 5 %
  (void)cold_meas;
  (void)warm_meas;
  const double reduction = warm_invocations > 0
                               ? static_cast<double>(cold_invocations) /
                                     static_cast<double>(warm_invocations)
                               : 0.0;
  const bool identical = tuning::trace_decisions_identical(warm, warm4);
  report.row({{"name", name},
              {"warm_seeds", ws.configs.size()},
              {"donor_entries", ws.donor_entries},
              {"donor_devices", ws.donor_devices},
              {"cold_best_gflops", cold_best},
              {"warm_best_gflops", warm_best},
              {"parity_gflops", parity},
              {"cold_invocations", cold_invocations},
              {"warm_invocations", warm_invocations},
              {"reduction", reduction},
              {"quality_held", quality_held},
              {"decisions_identical", identical},
              {"wall_ms", now_ms() - t0}});
  report.gate(name + ".reduction", reduction, Op::kGe, 2.0);
  report.check(name + ".quality_held", quality_held);
  report.check(name + ".decisions_identical", identical);
  report.gate(name + ".warm_invocations", warm_invocations, Op::kGe, 1);
  report.gate(name + ".warm_seeds", ws.configs.size(), Op::kLe, kTopK);
  report.gate(name + ".donor_devices", ws.donor_devices, Op::kLe, ws.donor_entries);
  report.gate(name + ".parity_gflops", parity, Op::kLe, cold_best);
  report.gate(name + ".cold_invocations", cold_invocations, Op::kLe, kMaxTrials);
  report.gate(name + ".warm_invocations_budget", warm_invocations, Op::kLe, kMaxTrials);
  if (warm_invocations > 0) {
    const double ratio = static_cast<double>(cold_invocations) /
                         static_cast<double>(warm_invocations);
    report.gate(name + ".reduction_error", std::abs(reduction - ratio), Op::kLe,
                0.05 * std::max(1.0, ratio));
  } else {
    report.gate(name + ".reduction_without_parity", reduction, Op::kEq, 0.0);
  }
}

}  // namespace

int main() {
  std::printf("=== micro_warmstart: cross-device cache transfer ===\n\n");
  bench::Report report("warmstart");
  report.param("donor_trials", kDonorTrials);
  report.param("max_trials", kMaxTrials);
  report.param("batch_size", kBatch);
  report.param("top_k", kTopK);
  Workload w = make_workload();
  if (w.target == nullptr ||
      std::any_of(w.donors.begin(), w.donors.end(),
                  [](const hwspec::GpuSpec* g) { return g == nullptr; })) {
    std::printf("FAIL: evaluation GPUs missing from the database\n");
    return 1;
  }
  const std::string tier_dir = "bench_warmstart_tiers";

  // One donor corpus serves both arms: tier entries are tuner-agnostic
  // (task, device, config, result) records, exactly like a real fleet's
  // shared tier, which accumulates from whatever strategies ran before.
  TunerFactory autotvm = [&](const hwspec::GpuSpec& hw) {
    return std::make_unique<baselines::AutoTvmTuner>(w.task, hw, kSeed);
  };
  TunerFactory chameleon = [&](const hwspec::GpuSpec& hw) {
    return std::make_unique<baselines::ChameleonTuner>(w.task, hw, kSeed);
  };
  build_donor_tiers(w, tier_dir, autotvm);

  run_bench_arm(report, w, tier_dir, "autotvm", autotvm);
  run_bench_arm(report, w, tier_dir, "chameleon", chameleon);
  std::filesystem::remove_all(tier_dir);
  return report.write();
}
