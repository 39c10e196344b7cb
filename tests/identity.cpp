#include "identity.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "baselines/autotvm.hpp"
#include "baselines/dgp.hpp"
#include "common/parallel.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/span.hpp"
#include "linalg/simd.hpp"
#include "service/session_manager.hpp"
#include "service/shard_ring.hpp"
#include "tuning/records.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/scheduler.hpp"

namespace glimpse::testing {

std::string to_string(const Env& env) {
  return "threads=" + std::to_string(env.threads) + " simd=" + (env.simd ? "on" : "off") +
         " telemetry=" + (env.telemetry ? "on" : "off");
}

EnvScope::EnvScope(const Env& env)
    : simd_(linalg::simd_enabled()),
      tracing_(telemetry::tracing_enabled()),
      metrics_(telemetry::metrics_enabled()) {
  set_num_threads(env.threads);
  linalg::set_simd_enabled(env.simd);
  telemetry::set_tracing_enabled(env.telemetry);
  telemetry::set_metrics_enabled(env.telemetry);
}

EnvScope::~EnvScope() {
  set_num_threads(0);
  linalg::set_simd_enabled(simd_);
  telemetry::set_tracing_enabled(tracing_);
  telemetry::set_metrics_enabled(metrics_);
}

TuningRun task_run(const std::string& tuner, const searchspace::Task& task,
                   const hwspec::GpuSpec& hw, std::uint64_t seed, std::size_t max_trials,
                   std::size_t batch_size) {
  TuningRun run;
  run.spec.tuner = tuner;
  run.spec.gpu = hw.name;
  run.spec.seed = seed;
  run.spec.max_trials = max_trials;
  run.spec.batch_size = batch_size;
  run.task = &task;
  return run;
}

TuningRun job_run(const service::JobSpec& spec, std::int64_t priority) {
  TuningRun run;
  run.spec = spec;
  run.priority = priority;
  return run;
}

namespace {

std::uint64_t decisions_digest(const tuning::Trace& trace) {
  std::uint64_t h = 0;
  for (const auto& t : trace.trials) {
    for (auto v : t.config) h = hash_combine(h, v);
    h = hash_combine(h, t.step);
    h = hash_combine(h, t.result.valid ? 1 : 0);
    h = hash_combine(h, std::bit_cast<std::uint64_t>(t.result.gflops));
    h = hash_combine(h, std::bit_cast<std::uint64_t>(t.elapsed_s));
  }
  return h;
}

/// `name`'s factory: the daemon's tuners, plus glimpse, dgp and autotvm_tl on
/// state pretrained on tiny_dataset() once per process and shared by every
/// job, as a daemon's or a bench's jobs share it.
tuning::TunerFactory tuner_factory(const std::string& name) {
  if (name == "glimpse") {
    static const tuning::TunerFactory glimpse = core::glimpse_factory(tiny_artifacts());
    return glimpse;
  }
  if (name == "dgp") {
    static const tuning::TunerFactory dgp = [] {
      Rng rng(96);
      return baselines::dgp_factory(baselines::pretrain_dgp_embedder(
          tiny_dataset(), rng, {.embed_dim = 8, .hidden = 16, .pretrain_epochs = 15}));
    }();
    return dgp;
  }
  if (name == "autotvm_tl") {
    static const tuning::TunerFactory transfer = [] {
      std::vector<tuning::TuningRecord> records;
      std::vector<const searchspace::Task*> tasks;
      for (const auto& s : tiny_dataset().samples()) {
        records.push_back({s.task->name(), s.hw->name, s.config, s.valid, s.gflops, 0.0});
        tasks.push_back(s.task);
      }
      std::vector<const tuning::TuningRecord*> ptrs;
      for (const auto& r : records) ptrs.push_back(&r);
      Rng rng(95);
      return baselines::autotvm_factory(baselines::fit_transfer_model(ptrs, tasks, rng));
    }();
    return transfer;
  }
  return service::daemon_tuner(name);
}

/// One run's tuner, measurer and session options, built fresh.
struct Live {
  const searchspace::Task* task = nullptr;
  const hwspec::GpuSpec* hw = nullptr;
  std::unique_ptr<tuning::Tuner> tuner;
  gpusim::SimMeasurer sim;
  std::optional<gpusim::FaultInjector> faults;
  tuning::SessionOptions options;

  explicit Live(const TuningRun& run) {
    service::JobRun job = service::resolve_job(run.spec);
    task = run.task ? run.task : job.task;
    hw = job.hw;
    tuner = tuner_factory(run.spec.tuner)(*task, *hw, run.spec.seed);
    if (run.faults) faults.emplace(sim, *run.faults);
    options = std::move(job.options);
    options.warm_configs = run.warm_configs;
    options.warm_scores = run.warm_scores;
  }
  gpusim::Measurer& measurer() { return faults ? static_cast<gpusim::Measurer&>(*faults) : sim; }
};

/// Run `run`'s journal after `k` resumes.
std::string journal_path(std::size_t run, std::size_t k) {
  return tmp_path("identity_" + std::to_string(::getpid()) + "_" + std::to_string(run) + "_" +
                  std::to_string(k) + ".journal");
}

std::string describe(const tuning::TrialRecord& t) {
  std::ostringstream os;
  os << "step " << t.step << " config [";
  for (std::size_t i = 0; i < t.config.size(); ++i) os << (i ? " " : "") << t.config[i];
  os << "] valid " << t.result.valid << " gflops " << t.result.gflops << " attempts "
     << t.result.attempts << " elapsed " << t.elapsed_s;
  return os.str();
}

/// Full TrialRecord equality, or everything but the clock.
void expect_same(const tuning::Trace& want, const tuning::Trace& got, bool clock,
                 const std::string& where) {
  const std::size_t n = std::min(want.trials.size(), got.trials.size());
  for (std::size_t i = 0; i < n; ++i) {
    tuning::TrialRecord w = want.trials[i];
    if (!clock) w.elapsed_s = got.trials[i].elapsed_s;
    if (!(w == got.trials[i])) {
      ADD_FAILURE() << where << ": trial " << i << " diverges\n  want "
                    << describe(want.trials[i]) << "\n  got  " << describe(got.trials[i]);
      return;
    }
  }
  if (want.trials.size() != got.trials.size())
    ADD_FAILURE() << where << ": " << got.trials.size() << " trials, the reference has "
                  << want.trials.size();
}

void expect_settled(const service::Response& done, const tuning::Trace& reference,
                    const std::string& where) {
  ASSERT_EQ(done.type, service::ResponseType::kResult) << where;
  SCOPED_TRACE(where);
  expect_summary_matches_trace(done.summary, reference);
}

std::string label(const TuningRun& r) {
  return r.spec.tuner + " seed " + std::to_string(r.spec.seed) + " on " +
         (r.task ? r.task->name() : r.spec.model + "#" + std::to_string(r.spec.task_index)) +
         " / " + r.spec.gpu + (r.faults ? " with faults" : "") +
         (r.warm_configs.empty() ? "" : " warm");
}

}  // namespace

tuning::Trace reference_trace(const TuningRun& run) {
  EnvScope scope(Env{});
  Live live(run);
  tuning::Trace trace =
      tuning::run_session(*live.tuner, *live.task, *live.hw, live.measurer(), live.options);
  if (run.spec.plateau_trials == 0 && run.spec.time_budget_s == 0.0) {
    EXPECT_EQ(trace.trials.size(), run.spec.max_trials) << label(run) << ": stopped early";
  }
  if (run.digest != 0) {
    EXPECT_EQ(decisions_digest(trace), run.digest)
        << label(run) << ": pinned digest moved to 0x" << std::hex << decisions_digest(trace);
  }
  return trace;
}

IdentityChecker::IdentityChecker(std::vector<TuningRun> runs)
    : runs_(std::move(runs)), references_(runs_.size()) {}

const tuning::Trace& IdentityChecker::reference(std::size_t i) {
  if (!references_[i]) references_[i] = reference_trace(runs_[i]);
  return *references_[i];
}

std::vector<tuning::Trace> IdentityChecker::run_variant(const Variant& v,
                                                        const std::vector<std::size_t>& kills) {
  EnvScope scope(v.env);
  std::optional<tuning::ResultCache> cache;
  if (v.cache != Cache::kOff) cache.emplace();
  // One pass: every run alone, or all of them in one schedule. `killed` runs
  // stop after `kill` batches (0: run to the end), journal as of resume
  // `seg`, and continue the journal of resume `seg - 1`.
  auto pass = [&](const std::vector<bool>& killed, std::size_t kill, std::size_t seg) {
    std::vector<std::unique_ptr<Live>> lives;
    std::vector<tuning::ScheduledJob> jobs;
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      Live& live = *lives.emplace_back(std::make_unique<Live>(runs_[i]));
      live.options.result_cache = cache ? &*cache : nullptr;
      if (killed[i]) {
        if (kill > 0)
          live.options.max_trials =
              std::min(live.options.max_trials, kill * runs_[i].spec.batch_size);
        live.options.checkpoint_path = journal_path(i, v.new_path ? seg : 0);
        if (seg > 0) live.options.resume_from = journal_path(i, v.new_path ? seg - 1 : 0);
      }
      jobs.push_back({live.tuner.get(), live.task, live.hw, &live.measurer(), live.options});
    }
    if (v.slots > 0) return tuning::run_scheduled(jobs, {.slots = v.slots});
    std::vector<tuning::Trace> traces;
    for (auto& job : jobs)
      traces.push_back(tuning::run_session(*job.tuner, *job.task, *job.hw, *job.measurer,
                                           job.options));
    return traces;
  };
  std::vector<bool> killed(runs_.size(), !kills.empty());
  if (v.slots > 0 && !kills.empty()) std::fill(killed.begin() + 1, killed.end(), false);
  if (v.cache == Cache::kWarm) pass(std::vector<bool>(runs_.size(), false), 0, 0);

  for (std::size_t seg = 0; seg < kills.size(); ++seg) pass(killed, kills[seg], seg);
  std::vector<tuning::Trace> traces = pass(killed, 0, kills.size());
  for (std::size_t i = 0; i < runs_.size(); ++i)
    for (std::size_t k = 0; k <= kills.size(); ++k) std::remove(journal_path(i, k).c_str());
  if (cache) {
    EXPECT_GT(v.cache == Cache::kCold ? cache->stats().inserts : cache->stats().hits, 0u)
        << "the cache was never used";
  }
  return traces;
}

void IdentityChecker::expect(const Variant& v) {
  // A cache hit, or a config another job measured in the same round, is
  // free: such variants keep the reference's decisions, and their clock
  // equals the same cache state and schedule at Env{} in one slot.
  bool dedups = v.cache != Cache::kOff;
  for (std::size_t i = 0; v.slots > 0 && i < runs_.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      dedups |= runs_[i].spec == runs_[j].spec && runs_[i].task == runs_[j].task;
  std::vector<tuning::Trace>& clock = clock_refs_[{v.cache, v.slots > 0}];
  if (dedups && clock.empty())
    clock = run_variant({.cache = v.cache, .slots = v.slots ? 1u : 0u}, {});

  std::vector<std::vector<std::size_t>> plans = {v.kill_after};
  if (v.kill_every_batch) {
    plans.clear();
    for (std::size_t k = 1;; ++k) {
      bool inside = false;
      for (const TuningRun& run : runs_) inside |= k * run.spec.batch_size < run.spec.max_trials;
      if (!inside) break;
      plans.push_back({k});
    }
  }
  static const char* caches[] = {"off", "cold", "warm"};
  for (const auto& kills : plans) {
    std::string where = to_string(v.env) + " cache=" + caches[static_cast<int>(v.cache)] +
                        " slots=" + std::to_string(v.slots) + (v.new_path ? " new_path" : "");
    for (std::size_t k : kills) where += " kill_after=" + std::to_string(k);
    const std::vector<tuning::Trace> got = run_variant(v, kills);
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      expect_same(reference(i), got[i], !dedups, label(runs_[i]) + " at " + where);
      if (dedups) expect_same(clock[i], got[i], true, label(runs_[i]) + " at " + where);
    }
  }
}

void IdentityChecker::expect_manager(const ManagerVariant& v, const ManagerHook& after) {
  for (std::size_t i = 0; i < runs_.size(); ++i) reference(i);
  const std::string where = " at SessionManager slots=" + std::to_string(v.slots) + " " +
                            to_string(v.env) + (v.stop_after ? " restarted" : "");
  EnvScope scope(v.env);
  service::SessionManagerOptions opts;
  opts.slots = v.slots;
  opts.spool_dir = v.spool;
  std::vector<std::uint64_t> ids;
  auto submit_all = [&](service::SessionManager& manager) {
    for (const TuningRun& run : runs_) {
      service::Response r = manager.submit("identity", run.priority, run.spec);
      ASSERT_EQ(r.type, service::ResponseType::kAccepted) << r.reason;
      ids.push_back(r.job_id);
    }
  };
  if (v.stop_after > 0) {
    service::SessionManager first(opts);
    submit_all(first);
    if (::testing::Test::HasFatalFailure()) return;
    while (first.status(ids[0]).summary.trials < v.stop_after) std::this_thread::yield();
    first.stop();
    const service::JobSummary mid = first.status(ids[0]).summary;
    EXPECT_EQ(mid.state, "running") << where << ": the stop missed the job";
    EXPECT_LT(mid.trials, runs_[0].spec.max_trials) << where;
  }
  service::SessionManager manager(opts);
  if (v.stop_after > 0)
    EXPECT_GT(manager.recovered(), 0u) << where;
  else
    submit_all(manager);
  for (std::size_t i = 0; i < ids.size(); ++i)
    expect_settled(manager.result(ids[i], /*wait=*/true), reference(i), label(runs_[i]) + where);
  if (after) after(manager, ids);
}

void IdentityChecker::expect_processes(DaemonFleet& fleet, const ProcessVariant& v) {
  for (std::size_t i = 0; i < runs_.size(); ++i) reference(i);
  const std::size_t n = fleet.shards.size();
  const std::string where = " at " + std::to_string(n) + " glimpsed" +
                            (v.traced ? " traced" : "") + (v.kill_after ? " SIGKILL" : "");
  const service::ShardRing ring(fleet.names);
  auto owner = [&](std::size_t i) {
    if (n == 1) return std::size_t{0};
    const std::string& name = ring.node_for_job(runs_[i].spec);
    return static_cast<std::size_t>(std::find(fleet.names.begin(), fleet.names.end(), name) -
                                    fleet.names.begin());
  };
  EnvScope scope({.telemetry = v.traced});
  fleet.start(v.traced);
  if (::testing::Test::HasFatalFailure()) return;
  {
    service::Client client = fleet.client();
    std::vector<std::uint64_t> ids;
    for (const TuningRun& run : runs_) {
      service::Response r = client.submit("identity", run.priority, run.spec);
      ASSERT_EQ(r.type, service::ResponseType::kAccepted) << where << ": " << r.reason;
      ids.push_back(r.job_id);
    }
    std::vector<bool> settled(runs_.size(), false);
    if (v.kill_after > 0) {
      for (service::Response s; (s = client.status(ids[0])).summary.trials < v.kill_after;)
        ASSERT_EQ(s.type, service::ResponseType::kStatus) << where;
      const std::size_t victim = owner(0);
      fleet.shards[victim]->kill_hard();
      // The rest of the fleet keeps settling jobs while the victim is down.
      for (std::size_t i = 0; i < runs_.size(); ++i)
        if ((settled[i] = owner(i) != victim))
          expect_settled(client.result(ids[i], true), reference(i), label(runs_[i]) + where);
      const std::string ready = fleet.start_shard(victim);
      EXPECT_NE(ready.find("resumed="), std::string::npos) << where << ": " << ready;
      EXPECT_EQ(ready.find("resumed=0"), std::string::npos) << where << ": " << ready;
      if (n == 1) client = fleet.client();  // the lone daemon was the endpoint
    }
    for (std::size_t i = 0; i < runs_.size(); ++i)
      if (!settled[i])
        expect_settled(client.result(ids[i], true), reference(i), label(runs_[i]) + where);
  }
  fleet.shutdown();
}

}  // namespace glimpse::testing
