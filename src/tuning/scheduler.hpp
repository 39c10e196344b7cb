// Multi-task tuning scheduler: N tuning sessions sharing a bounded pool of
// measurer slots, with cross-task deduplication of candidate configs.
//
// Each round the scheduler asks every live job's tuner for its next batch —
// all at once, through the deterministic thread pool — then, in fixed job
// order, assigns each (task, hardware, config) key an *owner*: the first
// job to propose it this round. Owners measure; every later proposer of the
// same key ("follower") replays the owner's result at zero simulated cost
// (a scheduler.shared_hits telemetry event). Owners' measurements run
// concurrently, at most `slots` jobs in flight at a time. This is the one
// place tuning work is parallel: inside a tuner everything is serial.
//
// Determinism contract: budget checks, retirement and ownership assignment
// are serial in job order; each job's tuner, rng and measurer are touched
// only by that job, and the artifacts jobs share are const, so concurrent
// proposals cannot see each other (if several throw, the lowest job's
// exception surfaces, as from a serial loop); measurement results are
// deterministic in (task, hardware, config); and backoff jitter comes from
// stateless Rng::fork(seed, trial_id) substreams. Hence a
// job's tuning trace is bit-identical at any thread count and any slot
// count, and its *decisions* (configs, results, steps — everything but the
// simulated clock) are identical with the result cache on or off. A job
// resumed from its journal (tuning/checkpoint.hpp) is replayed at admission
// and continues bit-identically, exactly as in the single-task run_session —
// which is itself implemented as a one-job schedule, so every session-level
// test exercises this code path.
//
// Two entry points share one implementation:
//  * run_scheduled() — batch mode: run a fixed job set to completion;
//  * class Scheduler — incremental mode for long-running hosts (the
//    glimpsed daemon): add_job() admits jobs at any round boundary,
//    step_round() advances every live job by one batch, cancel() retires a
//    job at its next plan phase. A job admitted mid-stream produces the
//    same trace it would have produced in a fresh batch run (its decisions
//    depend only on its own tuner/measurer/seed state), so daemon-side
//    traces stay comparable to offline run_scheduled traces.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "tuning/session.hpp"

namespace glimpse::tuning {

/// One tuning session under the scheduler. The caller owns tuner, task,
/// hardware, and measurer; each job must have its own tuner and measurer
/// (measurer accounting is per-session state, and tuners propose
/// concurrently). Tuners may share only const state. `options.result_cache` may
/// point at a cache shared across jobs — it is thread-safe.
struct ScheduledJob {
  Tuner* tuner = nullptr;
  const searchspace::Task* task = nullptr;
  const hwspec::GpuSpec* hw = nullptr;
  gpusim::Measurer* measurer = nullptr;
  SessionOptions options;
};

struct SchedulerOptions {
  /// Measurer slots: at most this many jobs measure concurrently. >= 1.
  /// Proposals are not capped: every live job proposes at once.
  std::size_t slots = 4;
};

/// Incremental multi-task scheduler. NOT thread-safe: all methods must be
/// called from one thread (the daemon serializes access on its scheduler
/// thread). Jobs are identified by the index add_job returns; indices are
/// stable for the scheduler's lifetime.
class Scheduler {
 public:
  explicit Scheduler(SchedulerOptions options = {});
  ~Scheduler();  // out-of-line: JobState is private to scheduler.cpp

  /// Admit a job (only between rounds). Replays an `options.resume_from`
  /// journal immediately: the header is checked before the tuner is
  /// touched, the journaled warm seeds are applied, and each record's
  /// propose(n) must return the journaled configs before update() takes the
  /// journaled results. Throws on a corrupt journal, a tuner/task/hardware
  /// mismatch, or a divergence (std::runtime_error naming the job and the
  /// step), leaving the scheduler unchanged (the job is not admitted, though
  /// its tuner and measurer may be spent). Returns the job's index.
  std::size_t add_job(ScheduledJob job);

  /// Run one round (plan / measure / assemble) over every live job — each
  /// live job advances by up to one batch. Returns true when any job
  /// proposed a batch (i.e. there may be more work); false when every job
  /// is done.
  bool step_round();

  /// Request cancellation: the job is retired at its next plan phase (the
  /// current round, if one is in flight elsewhere, is unaffected — but see
  /// the thread-safety note above). Harmless on a finished job.
  void cancel(std::size_t job);

  std::size_t num_jobs() const { return states_.size(); }
  bool job_done(std::size_t job) const;
  bool job_cancelled(std::size_t job) const;
  /// The job's trace so far (complete once job_done()).
  const Trace& trace(std::size_t job) const;
  Trace take_trace(std::size_t job);

  /// True when no live (admitted, unfinished) jobs remain.
  bool idle() const { return live_ == 0; }

 private:
  struct JobState;

  void finish(std::size_t j);

  SchedulerOptions options_;
  // deque: stable element addresses across add_job while rounds hold
  // pointers into earlier elements.
  std::deque<ScheduledJob> jobs_;
  std::deque<std::unique_ptr<JobState>> states_;
  std::size_t live_ = 0;
};

/// Run every job to completion (budget, plateau, early stop, or exhausted
/// space), interleaved round by round. Returns one trace per job, in job
/// order. Implemented as: admit all jobs into a Scheduler, step until idle.
std::vector<Trace> run_scheduled(std::vector<ScheduledJob>& jobs,
                                 const SchedulerOptions& options = {});

}  // namespace glimpse::tuning
