// Multi-task scheduler tests (ctest -L robustness): the determinism matrix
// (thread count × slot count × result cache on/off × resume), config sharing
// across identical jobs, cross-session cache persistence, and which of
// several concurrent proposal failures surfaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baselines/autotvm.hpp"
#include "baselines/random_tuner.hpp"
#include "common/parallel.hpp"
#include "gpusim/measurer.hpp"
#include "proptest_util.hpp"
#include "test_util.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/scheduler.hpp"
#include "tuning/session.hpp"

namespace glimpse::tuning {
namespace {

using baselines::AutoTvmTuner;
using baselines::RandomTuner;
using glimpse::testing::expect_traces_identical;
using glimpse::testing::rtx3090;
using glimpse::testing::small_conv_task;
using glimpse::testing::small_dense_task;
using glimpse::testing::titan_xp;
using glimpse::testing::tmp_path;
using gpusim::SimMeasurer;

struct PoolGuard {
  ~PoolGuard() { set_num_threads(0); }
};

SessionOptions small_options(std::size_t max_trials = 24, std::size_t batch = 8) {
  SessionOptions o;
  o.max_trials = max_trials;
  o.batch_size = batch;
  return o;
}

/// The matrix workload: two distinct tasks plus a duplicate of the first (so
/// cross-job config sharing actually fires), mixing a model-based tuner in
/// with random search.
struct JobSpec {
  const searchspace::Task* task;
  const hwspec::GpuSpec* hw;
  std::uint64_t seed;
  bool autotvm;
};

std::vector<JobSpec> matrix_specs() {
  return {
      {&small_conv_task(), &titan_xp(), 51, false},
      {&small_dense_task(), &rtx3090(), 52, true},
      {&small_conv_task(), &titan_xp(), 51, false},  // duplicate of job 0
  };
}

std::vector<Trace> run_matrix(const std::vector<JobSpec>& specs, std::size_t slots,
                              ResultCache* cache) {
  std::vector<std::unique_ptr<Tuner>> tuners;
  std::vector<std::unique_ptr<SimMeasurer>> sims;
  std::vector<ScheduledJob> jobs;
  for (const JobSpec& s : specs) {
    if (s.autotvm)
      tuners.push_back(std::make_unique<AutoTvmTuner>(*s.task, *s.hw, s.seed));
    else
      tuners.push_back(std::make_unique<RandomTuner>(*s.task, *s.hw, s.seed));
    sims.push_back(std::make_unique<SimMeasurer>());
    ScheduledJob j;
    j.tuner = tuners.back().get();
    j.task = s.task;
    j.hw = s.hw;
    j.measurer = sims.back().get();
    j.options = small_options();
    j.options.result_cache = cache;
    jobs.push_back(j);
  }
  SchedulerOptions so;
  so.slots = slots;
  return run_scheduled(jobs, so);
}

TEST(SchedulerTest, SingleJobScheduleMatchesRunSession) {
  SessionOptions opts = small_options(32);
  Trace ref;
  {
    RandomTuner tuner(small_conv_task(), titan_xp(), 61);
    SimMeasurer sim;
    ref = run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
  }
  RandomTuner tuner(small_conv_task(), titan_xp(), 61);
  SimMeasurer sim;
  std::vector<ScheduledJob> jobs(1);
  jobs[0].tuner = &tuner;
  jobs[0].task = &small_conv_task();
  jobs[0].hw = &titan_xp();
  jobs[0].measurer = &sim;
  jobs[0].options = opts;
  SchedulerOptions so;
  so.slots = 3;  // more slots than jobs must be harmless
  std::vector<Trace> traces = run_scheduled(jobs, so);
  ASSERT_EQ(traces.size(), 1u);
  expect_traces_identical(ref, traces[0]);
}

TEST(SchedulerTest, TracesAreBitIdenticalAcrossThreadsAndSlots) {
  PoolGuard guard;
  std::vector<JobSpec> specs = matrix_specs();

  set_num_threads(1);
  std::vector<Trace> ref = run_matrix(specs, /*slots=*/1, nullptr);
  ASSERT_EQ(ref.size(), specs.size());
  for (const Trace& t : ref) ASSERT_FALSE(t.trials.empty());

  for (int threads : {1, 4}) {
    for (std::size_t slots : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      set_num_threads(threads);
      std::vector<Trace> got = run_matrix(specs, slots, nullptr);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t j = 0; j < ref.size(); ++j) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " slots=" + std::to_string(slots) + " job=" + std::to_string(j));
        expect_traces_identical(ref[j], got[j]);
      }
    }
  }
}

TEST(SchedulerTest, CacheOnPreservesDecisionsAndStaysDeterministic) {
  PoolGuard guard;
  std::vector<JobSpec> specs = matrix_specs();

  set_num_threads(1);
  std::vector<Trace> ref = run_matrix(specs, 1, nullptr);

  // A fresh shared cache per run: warm state would legitimately change the
  // simulated clock between runs.
  std::vector<Trace> cached_ref;
  {
    ResultCache cache;
    cached_ref = run_matrix(specs, 1, &cache);
    EXPECT_GT(cache.stats().inserts, 0u);
  }
  ASSERT_EQ(cached_ref.size(), ref.size());
  for (std::size_t j = 0; j < ref.size(); ++j) {
    SCOPED_TRACE("job=" + std::to_string(j));
    // Cache on/off agree on every decision; only the charged clock differs.
    EXPECT_TRUE(trace_decisions_identical(ref[j], cached_ref[j]));
  }

  // At a fixed cache setting, the full trace (clock included) is identical
  // at any thread count and slot count.
  for (int threads : {1, 4}) {
    for (std::size_t slots : {std::size_t{1}, std::size_t{2}}) {
      set_num_threads(threads);
      ResultCache cache;
      std::vector<Trace> got = run_matrix(specs, slots, &cache);
      for (std::size_t j = 0; j < ref.size(); ++j) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " slots=" + std::to_string(slots) + " job=" + std::to_string(j));
        expect_traces_identical(cached_ref[j], got[j]);
      }
    }
  }
}

TEST(SchedulerTest, DuplicateJobsShareMeasurementsWithinARound) {
  // Two bit-identical jobs: the second always proposes what the first just
  // proposed, so it owns nothing and its measurer is never touched.
  RandomTuner t0(small_conv_task(), titan_xp(), 71);
  RandomTuner t1(small_conv_task(), titan_xp(), 71);
  SimMeasurer m0, m1;
  std::vector<ScheduledJob> jobs(2);
  jobs[0] = {&t0, &small_conv_task(), &titan_xp(), &m0, small_options()};
  jobs[1] = {&t1, &small_conv_task(), &titan_xp(), &m1, small_options()};
  SchedulerOptions so;
  so.slots = 2;
  std::vector<Trace> traces = run_scheduled(jobs, so);

  ASSERT_EQ(traces.size(), 2u);
  EXPECT_GT(m0.num_measurements(), 0u);
  EXPECT_EQ(m1.num_measurements(), 0u);  // pure follower
  EXPECT_EQ(m1.elapsed_seconds(), 0.0);
  EXPECT_TRUE(trace_decisions_identical(traces[0], traces[1]));
}

TEST(SchedulerTest, PerJobResumeInsideAScheduleIsBitIdentical) {
  // Reference: both jobs uninterrupted. Tasks are distinct so no sharing
  // perturbs the clock and full bit-identity must hold.
  SessionOptions opts = small_options(32);
  auto make_jobs = [&](RandomTuner& a, RandomTuner& b, SimMeasurer& ma,
                       SimMeasurer& mb) {
    std::vector<ScheduledJob> jobs(2);
    jobs[0] = {&a, &small_conv_task(), &titan_xp(), &ma, opts};
    jobs[1] = {&b, &small_dense_task(), &titan_xp(), &mb, opts};
    return jobs;
  };

  std::vector<Trace> ref;
  {
    RandomTuner a(small_conv_task(), titan_xp(), 81);
    RandomTuner b(small_dense_task(), titan_xp(), 82);
    SimMeasurer ma, mb;
    auto jobs = make_jobs(a, b, ma, mb);
    ref = run_scheduled(jobs);
  }

  std::string path = tmp_path("sched_resume_a.txt");
  std::remove(path.c_str());
  {
    // "Kill" job 0 after two batches; job 1 runs to completion.
    RandomTuner a(small_conv_task(), titan_xp(), 81);
    RandomTuner b(small_dense_task(), titan_xp(), 82);
    SimMeasurer ma, mb;
    auto jobs = make_jobs(a, b, ma, mb);
    jobs[0].options.max_trials = 16;
    jobs[0].options.checkpoint_path = path;
    run_scheduled(jobs);
  }
  // Resume job 0 from its journal, next to a fresh run of job 1.
  RandomTuner a(small_conv_task(), titan_xp(), 81);
  RandomTuner b(small_dense_task(), titan_xp(), 82);
  SimMeasurer ma, mb;
  auto jobs = make_jobs(a, b, ma, mb);
  jobs[0].options.resume_from = path;
  std::vector<Trace> got = run_scheduled(jobs);

  expect_traces_identical(ref[0], got[0]);
  expect_traces_identical(ref[1], got[1]);
  std::remove(path.c_str());
}

// A corrupt resume_from journal must fail admission without side effects:
// no zombie entry the next round would plan (with pointers the caller
// believes were never admitted), no phantom live_ count.
TEST(SchedulerTest, FailedResumeAdmissionLeavesSchedulerUnchanged) {
  const std::string path = tmp_path("sched_corrupt.ckpt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a checkpoint\n", f);
    std::fclose(f);
  }
  RandomTuner bad_tuner(small_conv_task(), titan_xp(), 7);
  SimMeasurer bad_sim;
  ScheduledJob bad;
  bad.tuner = &bad_tuner;
  bad.task = &small_conv_task();
  bad.hw = &titan_xp();
  bad.measurer = &bad_sim;
  bad.options = small_options(16);
  bad.options.resume_from = path;

  Scheduler sched;
  EXPECT_THROW(sched.add_job(bad), std::exception);
  EXPECT_EQ(sched.num_jobs(), 0u);
  EXPECT_TRUE(sched.idle());
  EXPECT_FALSE(sched.step_round());

  // The scheduler is still usable: a fresh job admitted after the failure
  // runs to completion as if nothing happened.
  RandomTuner tuner(small_conv_task(), titan_xp(), 7);
  SimMeasurer sim;
  ScheduledJob good = bad;
  good.tuner = &tuner;
  good.measurer = &sim;
  good.options.resume_from.clear();
  const std::size_t j = sched.add_job(good);
  EXPECT_EQ(j, 0u);
  while (sched.step_round()) {
  }
  EXPECT_TRUE(sched.job_done(j));
  EXPECT_EQ(sched.trace(j).trials.size(), 16u);
  std::remove(path.c_str());
}

/// A RandomTuner that logs every propose(n), and — once `*salt` is set —
/// reverses every batch after its first: state that lives outside the seed
/// and the results fed back, which replay must refuse to trust.
class LoggingTuner final : public Tuner {
 public:
  LoggingTuner(std::uint64_t seed, const int* salt = nullptr)
      : inner_(small_conv_task(), titan_xp(), seed), salt_(salt) {}
  std::string name() const override { return inner_.name(); }
  std::vector<Config> propose(std::size_t n) override {
    std::vector<Config> out = inner_.propose(n);
    if (salt_ && *salt_ != 0 && !asked.empty()) std::reverse(out.begin(), out.end());
    asked.push_back(n);
    return out;
  }
  void update(const std::vector<Config>& configs,
              const std::vector<MeasureResult>& results) override {
    inner_.update(configs, results);
  }
  std::vector<std::size_t> asked;

 private:
  RandomTuner inner_;
  const int* salt_;
};

Trace run_logging(LoggingTuner& tuner, std::size_t max_trials,
                  const std::string& resume, const std::string& checkpoint) {
  SimMeasurer sim;
  SessionOptions opts = small_options(max_trials);
  opts.resume_from = resume;
  opts.checkpoint_path = checkpoint;
  return run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
}

TEST(SchedulerTest, ResumeReplaysAShortLastBatchWithItsOwnN) {
  // 12 trials in batches of 8: the second batch was propose(4). A resume
  // with a larger budget must replay propose(4), not propose(8), or the
  // tuner's rng would walk a different path.
  const std::string path = tmp_path("sched_short_batch.ckpt");
  std::remove(path.c_str());
  LoggingTuner first(61);
  const Trace killed = run_logging(first, 12, "", path);
  EXPECT_EQ(first.asked, (std::vector<std::size_t>{8, 4}));

  LoggingTuner resumed(61);
  const Trace got = run_logging(resumed, 24, path, "");
  EXPECT_EQ(resumed.asked, (std::vector<std::size_t>{8, 4, 8, 4}));
  ASSERT_EQ(got.trials.size(), 24u);
  EXPECT_EQ(std::vector<TrialRecord>(got.trials.begin(), got.trials.begin() + 12),
            killed.trials);
  LoggingTuner again(61);
  expect_traces_identical(got, run_logging(again, 24, path, ""));
  std::remove(path.c_str());
}

TEST(SchedulerTest, HiddenTunerStateFailsReplayNamingTheStep) {
  const std::string path = tmp_path("sched_hidden_state.ckpt");
  std::remove(path.c_str());
  int salt = 0;
  LoggingTuner first(62, &salt);
  run_logging(first, 16, "", path);

  salt = 1;  // the "same" tuner now proposes differently from its second batch
  LoggingTuner resumed(62, &salt);
  SimMeasurer sim;
  ScheduledJob job{&resumed, &small_conv_task(), &titan_xp(), &sim, small_options(24)};
  job.options.resume_from = path;
  Scheduler sched;
  try {
    sched.add_job(job);
    ADD_FAILURE() << "replay trusted a diverging tuner";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("job 0"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("at step 8"), std::string::npos) << e.what();
  }
  EXPECT_EQ(sched.num_jobs(), 0u);
  std::remove(path.c_str());
}

TEST(SchedulerTest, ResumeOfAStoppedSessionStaysStopped) {
  // A journal that ends where the plateau rule stopped the session (say, a
  // daemon died before its result was durable) replays to a finished job:
  // the resume adds no trials.
  const std::string path = tmp_path("sched_stopped.ckpt");
  std::remove(path.c_str());
  SessionOptions opts = small_options(400);
  opts.plateau_trials = 8;
  opts.checkpoint_path = path;
  RandomTuner first(small_conv_task(), titan_xp(), 63);
  SimMeasurer sim;
  const Trace stopped = run_session(first, small_conv_task(), titan_xp(), sim, opts);
  ASSERT_LT(stopped.trials.size(), 400u);

  opts.resume_from = path;
  RandomTuner again(small_conv_task(), titan_xp(), 63);
  SimMeasurer sim_again;
  expect_traces_identical(
      stopped, run_session(again, small_conv_task(), titan_xp(), sim_again, opts));
  std::remove(path.c_str());
}

TEST(SchedulerTest, PersistentCacheEliminatesRepeatMeasurements) {
  std::string path = tmp_path("sched_cache_persist.jsonl");
  std::remove(path.c_str());
  SessionOptions opts = small_options(24);

  Trace first;
  std::size_t first_measurements = 0;
  {
    ResultCacheOptions copts;
    copts.path = path;
    ResultCache cache(copts);
    RandomTuner tuner(small_conv_task(), titan_xp(), 91);
    SimMeasurer sim;
    opts.result_cache = &cache;
    first = run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
    first_measurements = sim.num_measurements();
  }
  EXPECT_GT(first_measurements, 0u);

  // A new process: reopen the cache from disk, rerun the identical session.
  ResultCacheOptions copts;
  copts.path = path;
  ResultCache cache(copts);
  EXPECT_EQ(cache.stats().loaded, first_measurements);
  RandomTuner tuner(small_conv_task(), titan_xp(), 91);
  SimMeasurer sim;
  opts.result_cache = &cache;
  Trace second = run_session(tuner, small_conv_task(), titan_xp(), sim, opts);

  EXPECT_EQ(sim.num_measurements(), 0u);  // everything served from the cache
  EXPECT_EQ(sim.elapsed_seconds(), 0.0);
  EXPECT_TRUE(trace_decisions_identical(first, second));
  std::remove(path.c_str());
}

/// Random search that throws from its first propose() when `fails`; the
/// delay lets a later job's failure happen first in time.
class FailingTuner final : public Tuner {
 public:
  FailingTuner(std::uint64_t seed, bool fails, int delay_ms)
      : inner_(small_conv_task(), titan_xp(), seed),
        seed_(seed),
        fails_(fails),
        delay_ms_(delay_ms) {}
  std::string name() const override { return inner_.name(); }
  std::vector<Config> propose(std::size_t n) override {
    if (!fails_) return inner_.propose(n);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms_));
    throw std::runtime_error("tuner " + std::to_string(seed_) + " failed");
  }
  void update(const std::vector<Config>& configs,
              const std::vector<MeasureResult>& results) override {
    inner_.update(configs, results);
  }

 private:
  RandomTuner inner_;
  std::uint64_t seed_;
  bool fails_;
  int delay_ms_;
};

TEST(SchedulerTest, ConcurrentProposalFailuresSurfaceTheLowestJob) {
  PoolGuard guard;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    set_num_threads(threads);
    // Jobs 1 and 2 fail; job 1 fails last in time when they run at once.
    FailingTuner t0(80, false, 0), t1(81, true, 50), t2(82, true, 0);
    SimMeasurer s0, s1, s2;
    std::vector<ScheduledJob> jobs = {
        {&t0, &small_conv_task(), &titan_xp(), &s0, small_options()},
        {&t1, &small_conv_task(), &titan_xp(), &s1, small_options()},
        {&t2, &small_conv_task(), &titan_xp(), &s2, small_options()}};
    try {
      run_scheduled(jobs);
      ADD_FAILURE() << "no proposal failure surfaced";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "tuner 81 failed");
    }
  }
}

}  // namespace
}  // namespace glimpse::tuning
