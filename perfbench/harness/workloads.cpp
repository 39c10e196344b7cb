#include "workloads.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "baselines/autotvm.hpp"
#include "baselines/chameleon.hpp"
#include "baselines/random_tuner.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strutil.hpp"
#include "common/telemetry/telemetry.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "gpusim/faulty_measurer.hpp"
#include "hwspec/database.hpp"
#include "searchspace/models.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session_manager.hpp"
#include "timing.hpp"
#include "tuning/dataset.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/scheduler.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace glimpse;

namespace {

constexpr std::size_t kSlots = 4;  // scheduler measurer slots (= pool width)

// glimpse_model / gbt_model: the evaluation GPUs the tuner has never seen.
const std::vector<std::string> kHeldOutGpus = {"RTX 2080 Ti", "RTX 3090"};

// Batch sessions: the paper harnesses' batch size with a fixed trial budget
// per task (no plateau stop, so every seed does the same amount of work).
// The budgets differ by task so that jobs settle at different rounds.
constexpr std::size_t kBatchSize = 8;
const std::vector<std::size_t> kTrialBudgets = {48, 64, 80};  // per batch task

std::uint64_t mix(std::uint64_t a, std::uint64_t b) { return hash_combine(a, b); }

void set_telemetry(bool on) {
  telemetry::set_tracing_enabled(on);
  telemetry::set_metrics_enabled(on);
}

/// Best valid trial of a trace (first one on ties); nullptr when none.
const tuning::TrialRecord* best_trial(const tuning::Trace& t) {
  const tuning::TrialRecord* best = nullptr;
  for (const auto& rec : t.trials)
    if (rec.result.valid && (best == nullptr || rec.result.gflops > best->result.gflops))
      best = &rec;
  return best;
}

/// Per-pass numbers every workload produces.
struct Pass {
  double wall_s = 0.0;
  std::vector<double> latency_s;  ///< one per job
  double sim_gpu_s = 0.0;
  std::vector<double> best_gflops;  ///< one per job with a valid result
  std::uint64_t digest = 0;
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> layer;
  double cpu_s = 0.0;       ///< process CPU time over the pass
  double steal_frac = 0.0;  ///< host steal over the pass (see steal_frac())
  std::size_t index = 0;    ///< input index: traced passes replay untraced ones
  bool traced = false;
};

/// Hand the heap's free pages back to the kernel, so each pass starts as a
/// fresh process would and peak RSS does not grow with the pass count.
void release_free_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

/// Untraced passes that always run, whatever --seconds says. The quality
/// and cost metrics and the digest come from exactly these passes, so they
/// are a function of the seed alone.
constexpr std::size_t kFixedPasses = 6;

/// Host steal above which a pass is left out of the time medians. A calm
/// host reads about 1 %; hypervisor steal episodes read 30-60 % and inflate
/// wall time several-fold and process CPU time by 20-40 %.
constexpr double kCalmSteal = 0.10;
/// The fewest passes a time median is taken over.
constexpr std::size_t kMinTimedPasses = 3;
/// A latency percentile is reported only when every timed pass has at least
/// this many samples beyond it.
constexpr std::size_t kTailSamples = 10;

/// The samples a time median is taken over, given the host steal during
/// each: those with steal under kCalmSteal or, when fewer than
/// kMinTimedPasses are, the kMinTimedPasses least-stolen ones. Returns
/// indices in sample order.
std::vector<std::size_t> calm_samples(const std::vector<double>& steals) {
  std::vector<std::size_t> calm, all;
  for (std::size_t i = 0; i < steals.size(); ++i) {
    all.push_back(i);
    if (steals[i] <= kCalmSteal) calm.push_back(i);
  }
  if (calm.size() >= kMinTimedPasses) return calm;
  std::stable_sort(all.begin(), all.end(),
                   [&](std::size_t a, std::size_t b) { return steals[a] < steals[b]; });
  all.resize(std::min(all.size(), kMinTimedPasses));
  std::sort(all.begin(), all.end());
  return all;
}

/// Median of `values` over calm_samples(steals).
double calm_median(const std::vector<double>& values, const std::vector<double>& steals) {
  std::vector<double> picked;
  for (std::size_t i : calm_samples(steals)) picked.push_back(values[i]);
  return median(picked);
}

/// The untraced passes the time medians are taken over (see calm_samples).
std::vector<const Pass*> timed_passes(const std::vector<Pass>& passes) {
  std::vector<const Pass*> untraced, timed;
  std::vector<double> steals;
  for (const Pass& p : passes)
    if (!p.traced) {
      untraced.push_back(&p);
      steals.push_back(p.steal_frac);
    }
  for (std::size_t i : calm_samples(steals)) timed.push_back(untraced[i]);
  return timed;
}

/// Fold passes into the report: times are medians over the timed passes
/// (latency percentiles are taken per pass, so a host hiccup that stalls
/// one pass cannot become the tail), quality and cost come from the fixed
/// passes.
void summarize(const std::vector<Pass>& passes, RunReport& rep) {
  std::vector<double> walls, cpus, p50s, p95s, sims, gflops, steals;
  std::size_t samples = 0, fewest_samples = SIZE_MAX;
  double traced_s = 0.0, replayed_s = 0.0;
  std::map<std::string, std::vector<double>> layers;
  std::uint64_t digest = 0;
  std::size_t fixed = 0;
  for (const Pass& p : passes) {
    rep.attempted += p.jobs;
    rep.failed += p.failed;
    rep.errors.insert(rep.errors.end(), p.errors.begin(), p.errors.end());
    if (p.traced) {
      traced_s += p.wall_s;
      replayed_s += passes[p.index].wall_s;
      ++rep.traced_passes;
      continue;
    }
    steals.push_back(p.steal_frac);
    if (fixed++ < kFixedPasses) {
      sims.push_back(p.sim_gpu_s);
      gflops.insert(gflops.end(), p.best_gflops.begin(), p.best_gflops.end());
      digest = mix(digest, p.digest);
    }
  }
  const std::vector<const Pass*> timed = timed_passes(passes);
  for (const Pass* p : timed) {
    walls.push_back(p->wall_s);
    cpus.push_back(p->cpu_s);
    p50s.push_back(quantile(p->latency_s, 0.50));
    p95s.push_back(quantile(p->latency_s, 0.95));
    samples += p->latency_s.size();
    fewest_samples = std::min(fewest_samples, p->latency_s.size());
    for (const auto& [k, v] : p->layer) layers[k].push_back(v);
  }
  rep.passes = passes.size();
  rep.latency_samples = samples;
  for (const Pass& p : passes)
    rep.notes.push_back(strformat("pass %zu%s: wall %.4f s, cpu %.4f s, host steal %.1f %%%s",
                                  p.index, p.traced ? " (traced)" : "", p.wall_s, p.cpu_s,
                                  p.steal_frac * 100.0,
                                  std::find(timed.begin(), timed.end(), &p) != timed.end()
                                      ? " (timed)" : ""));
  rep.digest = digest;
  rep.end_to_end["wall_s"] = median(walls);
  rep.end_to_end["cpu_s"] = median(cpus);
  rep.end_to_end["job_latency_p50_ms"] = median(p50s) * 1e3;
  // p95 has a twentieth of a pass's samples beyond it.
  if (fewest_samples >= 20 * kTailSamples)
    rep.end_to_end["job_latency_p95_ms"] = median(p95s) * 1e3;
  double sim_total = 0.0;
  for (double v : sims) sim_total += v;
  rep.end_to_end["sim_gpu_s"] = sims.empty() ? 0.0 : sim_total / static_cast<double>(sims.size());
  rep.end_to_end["best_gflops_geomean"] = geomean(gflops);
  for (const auto& [k, v] : layers) rep.per_layer[k] = median(v);
  rep.per_layer["job_latency.samples"] = static_cast<double>(samples);
  rep.per_layer["host.steal_frac"] = median(steals);
  rep.per_layer["timed_passes"] = static_cast<double>(timed.size());
  if (replayed_s > 0.0) rep.per_layer["trace.overhead_frac"] = traced_s / replayed_s - 1.0;
}

/// Run the fixed passes, then more until `seconds` of measuring have
/// elapsed; `run_pass(i)` runs the pass with input index i. In trace mode
/// the untraced passes get the first half of the time, and traced passes
/// (at least one) replay their inputs in the second half.
template <typename RunPass>
std::vector<Pass> measure_passes(const RunOptions& o, RunPass&& run_pass) {
  std::vector<Pass> passes;
  const double t0 = now_s();
  const double untraced_until = t0 + (o.trace ? o.seconds / 2.0 : o.seconds);
  while (passes.size() < kFixedPasses || now_s() < untraced_until) {
    const HostTicks h0 = host_ticks();
    passes.push_back(run_pass(passes.size()));
    passes.back().steal_frac = steal_frac(h0, host_ticks());
    passes.back().index = passes.size() - 1;
    release_free_memory();
  }
  if (o.trace) {
    const std::size_t untraced = passes.size();
    for (std::size_t i = 0; i < untraced && (i == 0 || now_s() < t0 + o.seconds); ++i) {
      set_telemetry(true);
      const HostTicks h0 = host_ticks();
      Pass p = run_pass(i);
      p.steal_frac = steal_frac(h0, host_ticks());
      set_telemetry(false);
      release_free_memory();
      p.index = i;
      p.traced = true;
      passes.push_back(std::move(p));
    }
    // Hand what the traced passes recorded to GLIMPSE_TRACE/GLIMPSE_METRICS
    // now, so nothing that runs later in this process is mixed into it.
    set_telemetry(true);
    telemetry::export_to_env_paths();
    telemetry::clear_events();
    telemetry::MetricsRegistry::global().reset();
    set_telemetry(false);
  }
  return passes;
}

// ---------------------------------------------------------------------------
// Batch workloads: glimpse_model and gbt_model.

struct BatchJob {
  const searchspace::Task* task = nullptr;
  const hwspec::GpuSpec* hw = nullptr;
  std::unique_ptr<tuning::Tuner> tuner;
  const core::GlimpseTuner* glimpse = nullptr;  ///< set for Glimpse jobs
  gpusim::SimMeasurer sim;
  std::unique_ptr<TimedTuner> timed_tuner;
  std::unique_ptr<TimedMeasurer> timed_measurer;
  std::uint64_t seed = 0;
  std::size_t max_trials = 0;
};

using JobList = std::vector<std::unique_ptr<BatchJob>>;

std::vector<const hwspec::GpuSpec*> held_out_gpus() {
  std::vector<const hwspec::GpuSpec*> out;
  for (const std::string& name : kHeldOutGpus) out.push_back(&hwspec::find_gpu_or_throw(name));
  return out;
}

/// The AlexNet tasks both batch workloads tune: the first direct conv, the
/// first winograd conv and the first dense layer (one per template kind).
std::vector<const searchspace::Task*> batch_tasks(const searchspace::TaskSet& model) {
  std::vector<const searchspace::Task*> out;
  for (auto kind : {searchspace::TemplateKind::kConv2d,
                    searchspace::TemplateKind::kConv2dWinograd,
                    searchspace::TemplateKind::kDense})
    for (const auto& t : model.tasks())
      if (t.kind() == kind) {
        out.push_back(&t);
        break;
      }
  return out;
}

/// One tuner per (task, GPU, kind); `make` builds the tuner from its seed.
template <typename Make>
JobList make_jobs(const searchspace::TaskSet& model, std::uint64_t seed,
                  const std::vector<std::string>& kinds, Make&& make) {
  JobList jobs;
  const auto gpus = held_out_gpus();
  const auto tasks = batch_tasks(model);
  for (std::size_t k = 0; k < kinds.size(); ++k)
    for (std::size_t g = 0; g < gpus.size(); ++g)
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        auto job = std::make_unique<BatchJob>();
        job->task = tasks[t];
        job->max_trials = kTrialBudgets[t];
        job->hw = gpus[g];
        job->seed = mix(mix(mix(seed, fnv1a(kinds[k])), g), t);
        make(*job, kinds[k]);
        job->timed_tuner = std::make_unique<TimedTuner>(*job->tuner);
        job->timed_measurer = std::make_unique<TimedMeasurer>(job->sim);
        jobs.push_back(std::move(job));
      }
  return jobs;
}

/// One incremental schedule over every job, timing each round.
Pass run_schedule(JobList& jobs) {
  Pass p;
  const double cpu0 = process_cpu_s();
  tuning::Scheduler sched({kSlots});
  const double t0 = now_s();
  for (auto& job : jobs) {
    tuning::SessionOptions opts;
    opts.max_trials = job->max_trials;
    opts.batch_size = kBatchSize;
    opts.seed = job->seed;
    sched.add_job({job->timed_tuner.get(), job->task, job->hw, job->timed_measurer.get(),
                   opts});
  }
  std::vector<double> settled(jobs.size(), -1.0);
  double round_s = 0.0;
  std::uint64_t rounds = 0;
  for (;;) {
    const double r0 = now_s();
    const bool more = sched.step_round();
    const double r1 = now_s();
    round_s += r1 - r0;
    if (more) ++rounds;
    for (std::size_t j = 0; j < jobs.size(); ++j)
      if (settled[j] < 0.0 && (!more || sched.job_done(j))) settled[j] = r1 - t0;
    if (!more) break;
  }
  p.wall_s = now_s() - t0;
  const double cpu_s = process_cpu_s() - cpu0;
  p.cpu_s = cpu_s;

  std::vector<const tuning::Trace*> traces;
  TunerTimes tt;
  MeasurerTimes mt;
  double rejections = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const BatchJob& job = *jobs[j];
    const tuning::Trace& trace = sched.trace(j);
    traces.push_back(&trace);
    p.latency_s.push_back(settled[j]);
    p.sim_gpu_s += job.sim.elapsed_seconds();
    ++p.jobs;
    if (const tuning::TrialRecord* best = best_trial(trace)) {
      if (remeasure_matches(*job.task, *job.hw, best->config, best->result.gflops)) {
        p.best_gflops.push_back(best->result.gflops);
      } else {
        ++p.failed;
        p.errors.push_back(strformat("job %zu: best config does not re-measure to %g GFLOPS",
                                     j, best->result.gflops));
      }
    }
    const TunerTimes& t = job.timed_tuner->times();
    tt.propose_s += t.propose_s;
    tt.update_s += t.update_s;
    tt.propose_calls += t.propose_calls;
    const MeasurerTimes& m = job.timed_measurer->times();
    mt.measure_s += m.measure_s;
    mt.calls += m.calls;
    mt.invalid += m.invalid;
    if (job.glimpse) rejections += static_cast<double>(job.glimpse->num_rejected_by_sampler());
  }
  p.digest = decisions_digest(traces);
  const double width = static_cast<double>(num_threads());
  p.layer = {
      {"scheduler.rounds", static_cast<double>(rounds)},
      {"scheduler.round_s", round_s},
      {"scheduler.plan_frac", round_s > 0.0 ? tt.propose_s / round_s : 0.0},
      {"tuner.propose_s", tt.propose_s},
      {"tuner.propose_calls", static_cast<double>(tt.propose_calls)},
      {"tuner.update_s", tt.update_s},
      {"parallel.busy_frac", cpu_s / (p.wall_s * width)},
      {"process.cpu_s", cpu_s},
      {"gpusim.measure_calls", static_cast<double>(mt.calls)},
      {"gpusim.measure_s", mt.measure_s},
      {"gpusim.invalid_frac",
       mt.calls > 0 ? static_cast<double>(mt.invalid) / static_cast<double>(mt.calls) : 0.0},
      {"validity.sampler_rejections", rejections},
  };
  return p;
}

/// Pretraining sized for the benchmark: the tuned model's tasks measured on
/// a spread of training GPUs (never the held-out ones).
struct Pretraining {
  std::unique_ptr<tuning::OfflineDataset> dataset;
  core::GlimpseArtifacts artifacts;
  double dataset_s = 0.0;
  double glimpse_s = 0.0;
};

constexpr std::size_t kPretrainGpus = 8;
constexpr std::size_t kSamplesPerPair = 120;
constexpr int kSetupRepeats = 5;

Pretraining pretrain(const searchspace::TaskSet& tasks, std::uint64_t seed) {
  std::vector<std::string> excluded;
  for (const auto* g : hwspec::evaluation_gpus()) excluded.push_back(g->name);
  const auto train = hwspec::training_gpus(excluded);
  std::vector<const hwspec::GpuSpec*> spread;
  for (std::size_t i = 0; i < kPretrainGpus; ++i)
    spread.push_back(train[i * train.size() / kPretrainGpus]);
  std::vector<const searchspace::Task*> task_ptrs;
  for (const auto& t : tasks.tasks()) task_ptrs.push_back(&t);

  Pretraining p;
  Rng rng(mix(seed, fnv1a("pretrain")));
  const double t0 = now_s();
  p.dataset = std::make_unique<tuning::OfflineDataset>(
      tuning::OfflineDataset::generate(task_ptrs, spread, kSamplesPerPair, rng));
  const double t1 = now_s();
  core::PriorTrainOptions prior;
  prior.epochs = 12;
  core::MetaTrainOptions meta;
  meta.max_groups = 24;
  meta.epochs = 12;
  p.artifacts = core::pretrain_glimpse(*p.dataset, train, core::default_blueprint_dim(),
                                       rng, prior, meta);
  p.dataset_s = t1 - t0;
  p.glimpse_s = now_s() - t1;
  return p;
}

RunReport run_glimpse_model(const RunOptions& o) {
  RunReport rep;
  const searchspace::TaskSet tasks(searchspace::alexnet());
  std::vector<double> setup, dataset_s, glimpse_s, steals;
  Pretraining pre;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const HostTicks h0 = host_ticks();
    const double t0 = now_s();
    pre = pretrain(tasks, o.seed);
    setup.push_back(now_s() - t0);
    steals.push_back(steal_frac(h0, host_ticks()));
    dataset_s.push_back(pre.dataset_s);
    glimpse_s.push_back(pre.glimpse_s);
  }
  auto make = [&](BatchJob& job, const std::string&) {
    auto g = std::make_unique<core::GlimpseTuner>(*job.task, *job.hw, job.seed, pre.artifacts);
    job.glimpse = g.get();
    job.tuner = std::move(g);
  };
  auto passes = measure_passes(o, [&](std::size_t pass) {
    JobList jobs = make_jobs(tasks, mix(o.seed, pass), {"glimpse"}, make);
    return run_schedule(jobs);
  });
  summarize(passes, rep);
  rep.end_to_end["setup_s"] = calm_median(setup, steals);
  rep.per_layer["pretrain.dataset_s"] = calm_median(dataset_s, steals);
  rep.per_layer["pretrain.glimpse_s"] = calm_median(glimpse_s, steals);
  return rep;
}

constexpr int kGbtSetupRepeats = 25;

RunReport run_gbt_model(const RunOptions& o) {
  RunReport rep;
  const std::vector<std::string> kinds = {"autotvm", "chameleon"};
  auto make = [](BatchJob& job, const std::string& kind) {
    if (kind == "autotvm")
      job.tuner = std::make_unique<baselines::AutoTvmTuner>(*job.task, *job.hw, job.seed);
    else
      job.tuner = std::make_unique<baselines::ChameleonTuner>(*job.task, *job.hw, job.seed);
  };
  // Set-up: the task tables and every tuner of one pass.
  std::vector<double> setup;
  for (int i = 0; i < kGbtSetupRepeats; ++i) {
    const double t0 = now_s();
    const searchspace::TaskSet tasks(searchspace::alexnet());
    JobList jobs = make_jobs(tasks, mix(o.seed, 0), kinds, make);
    setup.push_back(now_s() - t0);
  }
  const searchspace::TaskSet tasks(searchspace::alexnet());
  auto passes = measure_passes(o, [&](std::size_t pass) {
    JobList jobs = make_jobs(tasks, mix(o.seed, pass), kinds, make);
    return run_schedule(jobs);
  });
  summarize(passes, rep);
  rep.end_to_end["setup_s"] = median(setup);
  return rep;
}

// ---------------------------------------------------------------------------
// service_mix: an in-process daemon behind a Unix socket, four closed-loop
// clients.

const std::vector<std::string> kServiceModels = {"alexnet", "resnet18", "vgg16",
                                                 "transformer", "mobilenet_edge"};

searchspace::Model service_model(const std::string& name) {
  if (name == "alexnet") return searchspace::alexnet();
  if (name == "resnet18") return searchspace::resnet18();
  if (name == "vgg16") return searchspace::vgg16();
  if (name == "transformer") return searchspace::transformer_block();
  return searchspace::mobilenet_edge();
}

// The traffic mix. No recorded job log exists to derive it from, so these
// shares and budgets are assumptions that fill in "mostly random search,
// some AutoTVM/Chameleon, a fixed share of exact repeats"; replace them
// once real daemon job logs are available.
constexpr std::size_t kClients = 4;
constexpr std::size_t kFreshJobs = 540;
constexpr std::size_t kHistoryJobs = 180;  // each repeated once: 25 % of the stream
constexpr std::size_t kBulkHistoryJobs = 16;  // tier volume (loaded at boot)
constexpr std::size_t kBulkTrials = 256;      // per bulk tier job
constexpr std::size_t kRandomTrials = 32;     // per random-search job
constexpr std::size_t kModelTrials = 24;      // per AutoTVM or Chameleon job
constexpr std::size_t kDirectChecks = 6;

/// The servable models and the evaluation GPUs. `combos` lists every
/// (model, task, GPU) once, in a fixed shuffled order.
struct ServiceCatalog {
  std::vector<std::unique_ptr<searchspace::TaskSet>> models;
  std::vector<const hwspec::GpuSpec*> gpus = hwspec::evaluation_gpus();
  std::vector<std::array<std::size_t, 3>> combos;

  ServiceCatalog() {
    for (const auto& m : kServiceModels)
      models.push_back(std::make_unique<searchspace::TaskSet>(service_model(m)));
    for (std::size_t m = 0; m < models.size(); ++m)
      for (std::size_t t = 0; t < models[m]->num_tasks(); ++t)
        for (std::size_t g = 0; g < gpus.size(); ++g) combos.push_back({m, t, g});
    Rng shuffle(0x5e41ce);
    shuffle.shuffle(combos);
  }
  const searchspace::Task& task(const service::JobSpec& s) const {
    const auto it = std::find(kServiceModels.begin(), kServiceModels.end(), s.model);
    return models[static_cast<std::size_t>(it - kServiceModels.begin())]->task(s.task_index);
  }
};

/// Job `slot` of the service workload. Which (model, task, GPU) a slot
/// tunes and with which tuner is fixed, so every seed runs the same mix (an
/// assumed one job in ten AutoTVM, one Chameleon, the rest random search);
/// the seed picks the tuner seeds.
service::JobSpec service_spec(const ServiceCatalog& cat, std::size_t slot, std::uint64_t seed) {
  const auto& [m, t, g] = cat.combos[slot % cat.combos.size()];
  service::JobSpec s;
  s.tuner = slot % 10 == 8 ? "autotvm" : (slot % 10 == 9 ? "chameleon" : "random");
  s.model = kServiceModels[m];
  s.task_index = t;
  s.gpu = cat.gpus[g]->name;
  s.seed = mix(seed, slot);
  s.max_trials = s.tuner == "random" ? kRandomTrials : kModelTrials;
  s.batch_size = 8;
  s.plateau_trials = 0;
  return s;
}

std::unique_ptr<tuning::Tuner> service_tuner(const service::JobSpec& s,
                                             const searchspace::Task& task,
                                             const hwspec::GpuSpec& hw) {
  if (s.tuner == "autotvm") return std::make_unique<baselines::AutoTvmTuner>(task, hw, s.seed);
  if (s.tuner == "chameleon") return std::make_unique<baselines::ChameleonTuner>(task, hw, s.seed);
  return std::make_unique<baselines::RandomTuner>(task, hw, s.seed);
}

/// The session a daemon runs for `s`, run directly (run_session).
tuning::Trace direct_session(const ServiceCatalog& cat, const service::JobSpec& s,
                             tuning::ResultCache* cache) {
  const searchspace::Task& task = cat.task(s);
  const hwspec::GpuSpec& hw = hwspec::find_gpu_or_throw(s.gpu);
  auto tuner = service_tuner(s, task, hw);
  gpusim::SimMeasurer measurer;
  tuning::SessionOptions opts;
  opts.max_trials = s.max_trials;
  opts.batch_size = s.batch_size;
  opts.plateau_trials = s.plateau_trials;
  opts.seed = s.seed;
  opts.result_cache = cache;
  return tuning::run_session(*tuner, task, hw, measurer, opts);
}

struct ClientLog {
  std::vector<double> latency_s, submit_s, wait_s;
  std::vector<service::Request> requests;
  std::vector<service::Response> responses;
};

RunReport run_service_mix(const RunOptions& o) {
  RunReport rep;
  const ServiceCatalog cat;

  // Untimed: the earlier jobs whose measurements form the persistent tier.
  const std::uint64_t job_seed = mix(o.seed, fnv1a("service_mix"));
  std::vector<service::JobSpec> history;
  for (std::size_t i = 0; i < kHistoryJobs; ++i)
    history.push_back(service_spec(cat, kFreshJobs + i, job_seed));
  const fs::path tier_master = fs::path(o.work_dir) / "tier-master.jsonl";
  tuning::ResultCacheOptions tier_options;
  tier_options.path = tier_master.string();
  {
    tuning::ResultCache cache(tier_options);
    for (const auto& s : history) direct_session(cat, s, &cache);
    for (std::size_t i = 0; i < kBulkHistoryJobs; ++i) {
      service::JobSpec bulk = service_spec(cat, kFreshJobs + kHistoryJobs + i, job_seed);
      bulk.tuner = "random";
      bulk.max_trials = kBulkTrials;
      direct_session(cat, bulk, &cache);
    }
  }
  const double loaded = static_cast<double>(
      tuning::ResultCache(tier_options).stats().loaded);

  // Pass k's stream: one exact repeat of every history job (a quarter of
  // the stream) plus fresh jobs seeded from (seed, k), in seeded order.
  auto make_stream = [&](std::size_t k) {
    std::vector<service::JobSpec> stream = history;
    for (std::size_t i = 0; i < kFreshJobs; ++i)
      stream.push_back(service_spec(cat, i, mix(job_seed, k + 1)));
    std::vector<std::size_t> order(stream.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng shuffle(mix(mix(o.seed, fnv1a("order")), k));
    shuffle.shuffle(order);
    return std::pair{stream, order};  // submit stream[order[0]], stream[order[1]], ...
  };

  std::vector<double> boots;
  std::vector<service::JobSummary> first_summaries;
  std::vector<service::JobSpec> first_stream;
  ClientLog first_log;
  std::optional<std::uint64_t> repeat_digest;  // of the first pass

  auto run_pass = [&](std::size_t index, bool spooled) {
    Pass p;
    const auto [stream, order] = make_stream(index);
    const fs::path dir = fs::path(o.work_dir) / strformat("boot%zu", boots.size());
    fs::create_directories(dir / "spool");
    fs::copy_file(tier_master, dir / "tier.jsonl");
    const std::string sock = (dir / "d.sock").string();

    const double b0 = now_s();
    service::SessionManagerOptions mo;
    mo.slots = kSlots;
    if (spooled) mo.spool_dir = (dir / "spool").string();
    mo.cache = (dir / "tier.jsonl").string();
    service::SessionManager manager(mo);
    service::ServerOptions so;
    so.unix_path = sock;
    service::Server server(manager, so);
    server.start();
    boots.push_back(now_s() - b0);

    std::vector<service::JobSummary> summaries(stream.size());
    std::vector<std::string> outcome(stream.size());
    std::vector<ClientLog> logs(kClients);
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::mutex error_mu;
    std::string transport_error;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          service::Client client = service::Client::connect_unix(sock);
          ClientLog& log = logs[c];
          const std::string name = strformat("client%zu", c);
          ++ready;
          while (!go.load()) std::this_thread::yield();
          for (std::size_t n = next++; n < order.size(); n = next++) {
            const std::size_t i = order[n];
            service::Request sub;
            sub.type = service::RequestType::kSubmit;
            sub.client = name;
            sub.job = stream[i];
            const double s0 = now_s();
            service::Response acc = client.call(sub);
            const double s1 = now_s();
            log.requests.push_back(sub);
            log.responses.push_back(acc);
            if (acc.type != service::ResponseType::kAccepted) {
              outcome[i] = "submit: " + std::string(service::to_string(acc.type)) + " " +
                           acc.reason;
              continue;
            }
            service::Request res;
            res.type = service::RequestType::kResult;
            res.job_id = acc.job_id;
            res.wait = true;
            service::Response done = client.call(res);
            const double s2 = now_s();
            log.requests.push_back(res);
            log.responses.push_back(done);
            log.latency_s.push_back(s2 - s0);
            log.submit_s.push_back(s1 - s0);
            log.wait_s.push_back(s2 - s1);
            summaries[i] = done.summary;
            if (done.type != service::ResponseType::kResult || done.summary.state != "done")
              outcome[i] = "result: " + done.summary.state + " " + done.reason;
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(error_mu);
          transport_error = e.what();
        }
      });
    }
    while (ready.load() < kClients && transport_error.empty()) std::this_thread::yield();
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    go.store(true);
    for (auto& t : threads) t.join();
    p.wall_s = now_s() - t0;
    p.cpu_s = process_cpu_s() - cpu0;

    const service::ServiceStats stats = manager.stats().stats;
    server.stop();

    if (!transport_error.empty()) rep.errors.push_back("client transport: " + transport_error);
    p.jobs = stream.size();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const service::JobSummary& s = summaries[i];
      bool ok = outcome[i].empty() && s.state == "done";
      if (ok && !s.best_config.empty()) {
        ok = remeasure_matches(cat.task(stream[i]), hwspec::find_gpu_or_throw(stream[i].gpu),
                               s.best_config, s.best_gflops);
        if (!ok) outcome[i] = "best config does not re-measure to its reported GFLOPS";
      }
      if (!ok) {
        ++p.failed;
        if (rep.errors.size() < 8)
          rep.errors.push_back(strformat("pass %zu job %zu: %s", index, i, outcome[i].c_str()));
      }
      p.sim_gpu_s += s.elapsed_s;
      if (s.best_gflops > 0.0) p.best_gflops.push_back(s.best_gflops);
    }
    // Digests over the settled summaries (the decisions a client sees;
    // elapsed_s is the cache-dependent simulated clock and is left out):
    // one over the whole pass, one over the repeated jobs, which every pass
    // runs and must settle identically.
    auto digest_of = [&](std::size_t count) {
      tuning::Trace t;
      for (std::size_t i = 0; i < count; ++i) {
        tuning::TrialRecord rec;
        rec.config = summaries[i].best_config;
        rec.step = summaries[i].trials;
        rec.result.gflops = summaries[i].best_gflops;
        t.trials.push_back(std::move(rec));
      }
      return decisions_digest({&t});
    };
    p.digest = digest_of(stream.size());
    const std::uint64_t repeats = digest_of(history.size());
    if (!repeat_digest) repeat_digest = repeats;
    if (repeats != *repeat_digest)
      rep.errors.push_back(strformat("pass %zu: repeated jobs settle differently", index));

    std::vector<double> sub, wait;
    for (const ClientLog& log : logs) {
      p.latency_s.insert(p.latency_s.end(), log.latency_s.begin(), log.latency_s.end());
      sub.insert(sub.end(), log.submit_s.begin(), log.submit_s.end());
      wait.insert(wait.end(), log.wait_s.begin(), log.wait_s.end());
    }
    const double lookups = static_cast<double>(stats.cache_hits + stats.cache_inserts);
    p.layer = {
        {"parallel.busy_frac", p.cpu_s / (p.wall_s * static_cast<double>(num_threads()))},
        {"process.cpu_s", p.cpu_s},
        {"client.submit_ms_p50", median(sub) * 1e3},
        {"client.result_wait_ms_p50", median(wait) * 1e3},
        {"cache.hit_frac", lookups > 0.0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0},
        {"cache.inserts", static_cast<double>(stats.cache_inserts)},
    };
    if (first_summaries.empty()) {
      first_summaries = summaries;
      first_stream = stream;
      for (ClientLog& log : logs) {
        first_log.requests.insert(first_log.requests.end(), log.requests.begin(),
                                  log.requests.end());
        first_log.responses.insert(first_log.responses.end(), log.responses.begin(),
                                   log.responses.end());
      }
    }
    // The pass directory is deleted with the work dir after the run: on a
    // discard-mounted disk, deleting thousands of spool files mid-run slows
    // the following passes.
    return p;
  };
  auto passes = measure_passes(o, [&](std::size_t i) { return run_pass(i, false); });
  summarize(passes, rep);
  // Each untraced pass boots its own daemon: boots[i] belongs to passes[i].
  std::vector<double> untraced_boots, steals;
  for (const Pass& p : passes)
    if (!p.traced) {
      untraced_boots.push_back(boots[p.index]);
      steals.push_back(p.steal_frac);
    }
  rep.end_to_end["setup_s"] = calm_median(untraced_boots, steals);
  if (o.trace) {
    // The crash-safe spool, measured in one more traced pass that replays
    // pass 0; the traced replay of pass 0 without the spool is its baseline.
    // Its checkpoint telemetry is read here, after the export above.
    const double unspooled = passes[passes.size() - rep.traced_passes].wall_s;
    set_telemetry(true);
    const Pass sp = run_pass(0, true);
    double checkpoint_s = 0.0;
    for (const telemetry::TraceEvent& e : telemetry::drain_events())
      if (std::string_view(e.name) == "session.checkpoint")
        checkpoint_s += static_cast<double>(e.dur_ns) * 1e-9;  // a leaf span
    rep.per_layer["session.checkpoints"] = static_cast<double>(
        telemetry::MetricsRegistry::global().counter("session.checkpoints").value());
    set_telemetry(false);
    rep.attempted += sp.jobs;
    rep.failed += sp.failed;
    rep.per_layer["self.session.checkpoint_s"] = checkpoint_s;
    rep.per_layer["spool.pass_s"] = sp.wall_s;
    rep.per_layer["spool.overhead_frac"] = sp.wall_s / unspooled - 1.0;
  }
  rep.per_layer["cache.loaded"] = loaded;

  // daemon == direct: a seeded sample of pass 0's jobs re-run with
  // run_session.
  Rng pick(mix(o.seed, fnv1a("direct-check")));
  for (std::size_t k = 0; k < kDirectChecks; ++k) {
    const std::size_t i = pick.index(first_stream.size());
    const service::JobSummary& s = first_summaries[i];
    const tuning::Trace direct = direct_session(cat, first_stream[i], nullptr);
    const tuning::TrialRecord* best = best_trial(direct);
    const bool same = s.trials == direct.trials.size() &&
                      (best ? (s.best_config == best->config &&
                               s.best_gflops == best->result.gflops)
                            : s.best_config.empty());
    if (!same) {
      ++rep.failed;
      rep.errors.push_back(strformat("job %zu: daemon summary differs from run_session", i));
    }
  }

  // Protocol layer: encode + parse the pass's own messages.
  std::vector<double> enc, par;
  const std::size_t n = first_log.requests.size() + first_log.responses.size();
  for (int rep_i = 0; rep_i < 5 && n > 0; ++rep_i) {
    std::vector<std::string> lines;
    lines.reserve(n);
    const double e0 = now_s();
    for (const auto& r : first_log.requests) lines.push_back(service::encode_request(r));
    for (const auto& r : first_log.responses) lines.push_back(service::encode_response(r));
    const double e1 = now_s();
    std::string err;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < first_log.requests.size(); ++i) {
      service::Request back;
      if (!service::parse_request(lines[i], back, err)) ++bad;
    }
    for (std::size_t i = first_log.requests.size(); i < n; ++i) {
      service::Response back;
      if (!service::parse_response(lines[i], back, err)) ++bad;
    }
    const double e2 = now_s();
    if (bad > 0)
      rep.errors.push_back(strformat("protocol: %zu recorded messages fail to parse", bad));
    enc.push_back((e1 - e0) / static_cast<double>(n) * 1e6);
    par.push_back((e2 - e1) / static_cast<double>(n) * 1e6);
  }
  rep.per_layer["protocol.encode_us"] = median(enc);
  rep.per_layer["protocol.parse_us"] = median(par);
  return rep;
}

}  // namespace

RunReport run_workload(const RunOptions& options) {
  set_telemetry(false);
  RunReport rep;
  if (options.workload == "glimpse_model") rep = run_glimpse_model(options);
  else if (options.workload == "gbt_model") rep = run_gbt_model(options);
  else if (options.workload == "service_mix") rep = run_service_mix(options);
  else throw std::invalid_argument("unknown workload '" + options.workload + "'");
  rep.end_to_end["peak_rss_mb"] = peak_rss_mb();
  return rep;
}

std::vector<std::string> decorator_selftest(const std::string& work_dir) {
  std::vector<std::string> failures;
  const searchspace::TaskSet model(searchspace::alexnet());
  const auto gpus = held_out_gpus();
  constexpr std::size_t kJobs = 6;
  constexpr std::size_t kTrials = 32;
  // Transient faults make the retry pipeline charge backoff through
  // add_cost() and read elapsed_seconds(); checkpoints call checkpointable(),
  // save() and save_state(); job 0's warm start calls set_warm_start().
  gpusim::FaultPlan faults;
  faults.p_transient = 0.1;

  // One job's tuner and measurer chain (simulator under the fault
  // injector), optionally wrapped in the timing decorators.
  struct Chain {
    std::unique_ptr<tuning::Tuner> tuner;
    gpusim::SimMeasurer sim;
    std::unique_ptr<gpusim::FaultInjector> injector;
    std::unique_ptr<TimedTuner> timed_tuner;
    std::unique_ptr<TimedMeasurer> timed_measurer;
    tuning::ScheduledJob job;
  };
  auto make_chain = [&](std::size_t i, bool wrapped, std::size_t max_trials) {
    auto c = std::make_unique<Chain>();
    const searchspace::Task& task = model.task(i % model.num_tasks());
    const hwspec::GpuSpec& hw = *gpus[i % gpus.size()];
    if (i % 2 == 0)
      c->tuner = std::make_unique<baselines::AutoTvmTuner>(task, hw, 100 + i);
    else
      c->tuner = std::make_unique<baselines::ChameleonTuner>(task, hw, 100 + i);
    c->injector = std::make_unique<gpusim::FaultInjector>(c->sim, faults);
    c->job = {c->tuner.get(), &task, &hw, c->injector.get(), {}};
    if (wrapped) {
      c->timed_tuner = std::make_unique<TimedTuner>(*c->tuner);
      c->timed_measurer = std::make_unique<TimedMeasurer>(*c->injector);
      c->job.tuner = c->timed_tuner.get();
      c->job.measurer = c->timed_measurer.get();
    }
    c->job.options.max_trials = max_trials;
    c->job.options.batch_size = 8;
    c->job.options.seed = 7 + i;
    if (i == 0) {
      Rng r(3);
      c->job.options.warm_configs = {task.space().random_config(r)};
      c->job.options.warm_scores = {1.0};
    }
    return c;
  };
  auto run_session = [](Chain& c) {
    return tuning::run_session(*c.job.tuner, *c.job.task, *c.job.hw, *c.job.measurer,
                               c.job.options);
  };

  std::vector<tuning::Trace> reference;  // the bare run at width 1
  std::uint64_t reference_digest = 0;
  auto run = [&](bool wrapped, std::size_t width) {
    set_num_threads(width);
    const std::string where = strformat("(wrapped=%d, width=%zu)", wrapped, width);
    const fs::path dir = fs::path(work_dir) / strformat("selftest-%d-%zu", wrapped, width);
    fs::create_directories(dir);
    std::vector<std::unique_ptr<Chain>> chains;
    std::vector<tuning::ScheduledJob> jobs;
    for (std::size_t i = 0; i < kJobs; ++i) {
      chains.push_back(make_chain(i, wrapped, kTrials));
      chains.back()->job.options.checkpoint_path = (dir / strformat("full%zu", i)).string();
      jobs.push_back(chains.back()->job);
    }
    const std::vector<tuning::Trace> traces = tuning::run_scheduled(jobs, {kSlots});
    std::vector<const tuning::Trace*> ptrs;
    for (const auto& t : traces) ptrs.push_back(&t);
    if (reference.empty()) {
      reference = traces;
      reference_digest = decisions_digest(ptrs);
    }
    if (decisions_digest(ptrs) != reference_digest)
      failures.push_back("selftest: decisions digest differs " + where);
    // Stop each job half-way, then resume it from its checkpoint through a
    // fresh chain: load() and load_state() must restore the tuner and the
    // fault injector, so the resumed trace, simulated clock included,
    // equals the uninterrupted one.
    for (std::size_t i = 0; i < kJobs; ++i) {
      if (traces[i].trials != reference[i].trials)
        failures.push_back(strformat("selftest: job %zu trace differs ", i) + where);
      const std::string ckpt = (dir / strformat("half%zu", i)).string();
      auto first = make_chain(i, wrapped, kTrials / 2);
      first->job.options.checkpoint_path = ckpt;
      run_session(*first);
      auto rest = make_chain(i, wrapped, kTrials);
      rest->job.options.resume_from = ckpt;
      if (run_session(*rest).trials != traces[i].trials)
        failures.push_back(strformat("selftest: resumed job %zu differs ", i) + where);
    }
    fs::remove_all(dir);
  };
  run(false, 1);
  run(true, 1);
  run(false, kSlots);
  run(true, kSlots);
  set_num_threads(kSlots);
  return failures;
}

}  // namespace perfbench
