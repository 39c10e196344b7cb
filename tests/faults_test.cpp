// Fault-injection robustness tests (ctest -L robustness): the injector's
// determinism contract, the retry/backoff pipeline, fault accounting
// invariants at a 20 % failure rate, fault-rate sweeps up to 100 %, and the
// session edge cases (all-faulted traces, plateau logic under fault bursts).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "baselines/random_tuner.hpp"
#include "common/parallel.hpp"
#include "common/telemetry/telemetry.hpp"
#include "gpusim/faulty_measurer.hpp"
#include "identity.hpp"
#include "test_util.hpp"
#include "tuning/measure.hpp"
#include "tuning/session.hpp"

namespace glimpse::tuning {
namespace {

using baselines::RandomTuner;
using glimpse::testing::IdentityChecker;
using glimpse::testing::reference_trace;
using glimpse::testing::session_options;
using glimpse::testing::small_conv_task;
using glimpse::testing::task_run;
using glimpse::testing::titan_xp;
using glimpse::testing::TuningRun;
using gpusim::FaultInjector;
using gpusim::FaultKind;
using gpusim::FaultPlan;
using gpusim::SimMeasurer;

// ---------- injector determinism ----------

TEST(FaultsTest, SameSeedSameFaultSchedule) {
  TuningRun run = task_run("random", small_conv_task(), titan_xp(), 31, 40);
  FaultPlan& plan = run.faults.emplace();
  plan.p_transient = 0.2;
  plan.p_timeout = 0.1;
  plan.p_spike = 0.1;
  plan.p_corrupt = 0.1;
  IdentityChecker check({run});
  check.expect({});
  run.faults->seed ^= 0xdeadbeefULL;
  EXPECT_NE(reference_trace(run).trials, check.reference().trials)
      << "changing the fault seed changed nothing";
}

TEST(FaultsTest, FaultScheduleIsThreadCountIndependent) {
  TuningRun run = task_run("random", small_conv_task(), titan_xp(), 32, 32);
  run.faults.emplace().p_transient = 0.2;
  run.faults->p_corrupt = 0.1;
  IdentityChecker({run}).expect({.env = {.threads = 4}});
}

TEST(FaultsTest, ScheduledTransientsFireAtExactAttempts) {
  FaultPlan plan;
  plan.scheduled_transients = {0, 1, 5};
  SimMeasurer sim;
  FaultInjector injector(sim, plan);

  const auto& task = small_conv_task();
  Rng cfg_rng(1);
  Config c = task.space().random_config(cfg_rng);
  for (std::uint64_t attempt = 0; attempt < 8; ++attempt) {
    MeasureResult r = injector.measure(task, titan_xp(), c);
    bool should_fail = attempt == 0 || attempt == 1 || attempt == 5;
    EXPECT_EQ(r.error == gpusim::MeasureError::kTransient, should_fail)
        << "attempt " << attempt;
  }
  EXPECT_EQ(injector.num_attempts(), 8u);
  EXPECT_EQ(injector.num_injected(FaultKind::kTransient), 3u);
  EXPECT_EQ(injector.num_failures(), 3u);
}

// ---------- retry pipeline ----------

TEST(FaultsTest, BackoffScheduleIsExponentialAndCapped) {
  RetryPolicy p;
  p.backoff_base_s = 0.5;
  p.backoff_mult = 2.0;
  p.backoff_max_s = 3.0;
  EXPECT_DOUBLE_EQ(backoff_for_retry(p, 1), 0.5);
  EXPECT_DOUBLE_EQ(backoff_for_retry(p, 2), 1.0);
  EXPECT_DOUBLE_EQ(backoff_for_retry(p, 3), 2.0);
  EXPECT_DOUBLE_EQ(backoff_for_retry(p, 4), 3.0);  // capped
  EXPECT_DOUBLE_EQ(backoff_for_retry(p, 9), 3.0);
}

TEST(FaultsTest, RetryRecoversFromScheduledTransient) {
  FaultPlan plan;
  plan.scheduled_transients = {0};  // first attempt dies, second succeeds
  SimMeasurer sim;
  FaultInjector injector(sim, plan);
  const auto& task = small_conv_task();
  Rng cfg_rng(2);
  Config c = task.space().random_config(cfg_rng);

  RetryPolicy policy;
  MeasureResult r = measure_with_retry(injector, task, titan_xp(), c, policy, 99, 0);
  EXPECT_EQ(r.error, gpusim::MeasureError::kNone);
  EXPECT_EQ(r.attempts, 2);
  // The backoff wait was charged to the simulated clock on top of the two
  // attempts' own costs.
  EXPECT_GT(sim.elapsed_seconds(), gpusim::kTransientCostS);
}

TEST(FaultsTest, ExhaustedRetriesYieldFaultedResultNotDroppedTrial) {
  FaultPlan plan;
  plan.p_transient = 1.0;  // nothing ever succeeds
  SimMeasurer sim;
  FaultInjector injector(sim, plan);
  const auto& task = small_conv_task();
  Rng cfg_rng(3);
  Config c = task.space().random_config(cfg_rng);

  RetryPolicy policy;
  policy.max_attempts = 4;
  MeasureResult r = measure_with_retry(injector, task, titan_xp(), c, policy, 99, 7);
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.error, gpusim::MeasureError::kTransient);
  EXPECT_EQ(r.attempts, 4);
  EXPECT_EQ(injector.num_attempts(), 4u);
}

TEST(FaultsTest, SilentCorruptionIsDetectedNeverSurfacesAsValid) {
  TuningRun run = task_run("random", small_conv_task(), titan_xp(), 33, 32);
  run.faults.emplace().p_corrupt = 1.0;  // every valid payload garbled
  const Trace t = reference_trace(run);
  for (const auto& tr : t.trials) {
    // The plausibility gate must catch every corrupted payload: nothing in
    // the trace may claim validity with an impossible measurement.
    if (tr.result.valid) {
      EXPECT_GT(tr.result.gflops, 0.0);
      EXPECT_GT(tr.result.latency_s, 0.0);
    } else if (tr.result.error == gpusim::MeasureError::kCorrupt) {
      EXPECT_EQ(tr.result.attempts, RetryPolicy{}.max_attempts);
      EXPECT_EQ(tr.result.gflops, 0.0);
    }
  }
  EXPECT_FALSE(std::isnan(t.best_gflops()));
  EXPECT_EQ(t.best_gflops(), 0.0);  // corruption everywhere -> nothing valid
  EXPECT_GT(t.num_faulted(), 0u);
}

TEST(FaultsTest, PerTrialTimeoutBoundsAttemptCost) {
  FaultPlan plan;
  plan.p_timeout = 1.0;
  SimMeasurer sim;
  FaultInjector injector(sim, plan);
  const auto& task = small_conv_task();
  Rng cfg_rng(4);
  Config c = task.space().random_config(cfg_rng);

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.timeout_s = 1.5;
  MeasureResult r = measure_with_retry(injector, task, titan_xp(), c, policy, 99, 0);
  EXPECT_EQ(r.error, gpusim::MeasureError::kTimeout);
  EXPECT_DOUBLE_EQ(r.cost_s, 1.5);  // hung attempts charge exactly the timeout
}

// ---------- accounting (the 20 % acceptance scenario) ----------

TEST(FaultsTest, TwentyPercentFaultRateEveryFaultAccountedFor) {
  FaultPlan plan;
  plan.p_transient = 0.20;
  RandomTuner tuner(small_conv_task(), titan_xp(), 34);
  SimMeasurer sim;
  FaultInjector injector(sim, plan);
  Trace t;
  {
    glimpse::testing::EnvScope metrics({.telemetry = true});
    telemetry::MetricsRegistry::global().reset();
    t = run_session(tuner, small_conv_task(), titan_xp(), injector, session_options(64));
  }
  auto& reg = telemetry::MetricsRegistry::global();

  // The session ran to completion despite the fault rate.
  ASSERT_EQ(t.trials.size(), 64u);
  EXPECT_GT(t.best_gflops(), 0.0);
  EXPECT_GT(t.num_faulted(), 0u) << "20 % fault rate injected nothing";

  // Exact identity: every injected failure is either a retried attempt or
  // the final attempt of a faulted trial. attempts - 1 failures precede a
  // clean finish; all `attempts` failed for a faulted trial.
  std::uint64_t failures_implied = 0;
  for (const auto& tr : t.trials) {
    ASSERT_GE(tr.result.attempts, 1);
    failures_implied += static_cast<std::uint64_t>(tr.result.attempts) -
                        (tr.result.error == gpusim::MeasureError::kNone ? 1 : 0);
  }
  EXPECT_EQ(injector.num_failures(), failures_implied);

  // Telemetry agrees with the injector and the trace.
  EXPECT_EQ(reg.counter("faults.injected.transient").value(),
            injector.num_injected(FaultKind::kTransient));
  EXPECT_EQ(reg.counter("measure.faulted_trials").value(), t.num_faulted());
  EXPECT_EQ(reg.counter("session.trials_faulted").value(), t.num_faulted());
  EXPECT_EQ(reg.counter("session.trials").value(), t.trials.size());

  // Faulted trials are infrastructure failures, not invalid configs.
  for (const auto& tr : t.trials) {
    if (tr.result.error != gpusim::MeasureError::kNone) {
      EXPECT_FALSE(tr.result.valid);
    }
  }
  EXPECT_EQ(t.num_invalid() + t.num_faulted() +
                [&] {
                  std::size_t valid = 0;
                  for (const auto& tr : t.trials) valid += tr.result.valid;
                  return valid;
                }(),
            t.trials.size());
  telemetry::MetricsRegistry::global().reset();
}

TEST(FaultsTest, FaultRateSweepTerminatesSanely) {
  for (double p : {0.0, 0.05, 0.2, 0.5, 1.0}) {
    TuningRun run = task_run("random", small_conv_task(), titan_xp(), 35, 40);
    run.spec.time_budget_s = 1e9;
    run.faults.emplace().p_transient = p;
    const Trace t = reference_trace(run);
    EXPECT_EQ(t.trials.size(), 40u) << "p=" << p;
    EXPECT_TRUE(std::isfinite(t.total_cost_s())) << "p=" << p;
    if (p == 0.0) {
      EXPECT_EQ(t.num_faulted(), 0u);
    }
    if (p == 1.0) {
      // Degenerate but sane: everything faulted, aggregate stats defined.
      EXPECT_EQ(t.num_faulted(), t.trials.size());
      EXPECT_EQ(t.best_gflops(), 0.0);
      EXPECT_EQ(t.best_latency(), std::numeric_limits<double>::infinity());
      EXPECT_EQ(t.num_invalid(), 0u);  // faults are not invalid configs
      EXPECT_DOUBLE_EQ(t.faulted_fraction(), 1.0);
      EXPECT_DOUBLE_EQ(t.invalid_fraction(), 0.0);
      for (double g : t.best_curve()) EXPECT_EQ(g, 0.0);
    }
  }
}

// ---------- session edge cases ----------

TEST(FaultsTest, EmptyTraceStatisticsAreDefined) {
  Trace t;
  EXPECT_EQ(t.best_gflops(), 0.0);
  EXPECT_EQ(t.best_latency(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(t.best_curve().empty());
  EXPECT_EQ(t.best_gflops_within(10.0), 0.0);
  EXPECT_EQ(t.num_invalid(), 0u);
  EXPECT_DOUBLE_EQ(t.invalid_fraction(), 0.0);
  EXPECT_EQ(t.num_faulted(), 0u);
  EXPECT_DOUBLE_EQ(t.faulted_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(t.total_cost_s(), 0.0);
}

TEST(FaultsTest, PlateauNotTriggeredWhileFirstValidTrialIsLate) {
  // The first 30 trials all fault (3 attempts each, deterministically).
  // Plateau logic must not mistake that silence for convergence.
  TuningRun run = task_run("random", small_conv_task(), titan_xp(), 36, 60, /*batch_size=*/4);
  run.spec.plateau_trials = 5;
  std::vector<std::uint64_t>& burst = run.faults.emplace().scheduled_transients;
  burst.resize(90);
  std::iota(burst.begin(), burst.end(), 0);
  const Trace t = reference_trace(run);

  ASSERT_GE(t.trials.size(), 31u)
      << "session gave up during the fault burst — plateau logic regressed";
  EXPECT_EQ(t.num_faulted(), 30u);
  EXPECT_GT(t.best_gflops(), 0.0);
  for (std::size_t i = 0; i < 30; ++i)
    EXPECT_EQ(t.trials[i].result.error, gpusim::MeasureError::kTransient);
}

}  // namespace
}  // namespace glimpse::tuning
