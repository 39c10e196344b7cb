#include "tuning/scheduler.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuning/checkpoint.hpp"
#include "tuning/result_cache.hpp"

namespace glimpse::tuning {

namespace {

/// One deduplicated (task, hardware, config) measurement this round. The
/// owner writes `result` during the parallel measure phase; followers read
/// it during the serial assembly phase — never concurrently.
struct RoundEntry {
  std::size_t owner_job = 0;
  MeasureResult result;
};

void emit_session_metrics(const Trace& trace) {
  if (!telemetry::metrics_enabled()) return;
  auto& reg = telemetry::MetricsRegistry::global();
  reg.counter("session.sessions").add(1);
  reg.counter("session.trials").add(trace.trials.size());
  reg.counter("session.trials_invalid").add(trace.num_invalid());
  reg.counter("session.trials_faulted").add(trace.num_faulted());
  reg.gauge("session.last_best_gflops").set(trace.best_gflops());
  reg.histogram("session.gpu_seconds").record(trace.total_cost_s());
}

}  // namespace

struct Scheduler::JobState {
  SessionCheckpoint st;
  std::uint64_t task_fp = 0;
  std::uint64_t hw_fp = 0;
  bool done = false;
  bool cancel_requested = false;
  bool cancelled = false;
  double round_start_clock = 0.0;  ///< measurer clock when the round began

  // Per-round scratch.
  std::vector<Config> batch;
  std::vector<RoundEntry*> source;         ///< per batch index; nullptr = owned
  std::vector<std::size_t> owned_index;    ///< batch indices this job measures
  std::vector<RoundEntry*> owned_entry;    ///< aligned with owned_index
  std::vector<double> owned_elapsed;       ///< measurer clock after each owned
};

Scheduler::Scheduler(SchedulerOptions options) : options_(options) {
  options_.slots = std::max<std::size_t>(1, options_.slots);
}

Scheduler::~Scheduler() = default;

std::size_t Scheduler::add_job(ScheduledJob job) {
  const std::size_t j = jobs_.size();
  GLIMPSE_CHECK(job.tuner && job.task && job.hw && job.measurer)
      << "Scheduler::add_job: job " << j << " is incomplete";
  GLIMPSE_CHECK(job.options.batch_size >= 1);
  // Build the whole job state before touching jobs_/states_/live_: the
  // checkpoint restore below throws on a corrupt snapshot or task/hardware
  // mismatch, and a half-admitted entry would still be planned by the next
  // round — with borrowed pointers the caller believes were never admitted.
  auto state = std::make_unique<JobState>();
  JobState& s = *state;
  s.task_fp = task_fingerprint(*job.task);
  s.hw_fp = hardware_fingerprint(*job.hw);
  s.st.task_name = job.task->name();
  s.st.hw_name = job.hw->name;
  // Warm-start seeds go in before any checkpoint restore: load() overwrites
  // the tuner's warm state with what the interrupted session actually
  // started with, which is the bit-identical-resume contract (the advisor's
  // answer drifts as the fleet's tiers grow).
  if (!job.options.warm_configs.empty()) {
    GLIMPSE_CHECK(job.options.warm_configs.size() ==
                  job.options.warm_scores.size())
        << "warm_configs/warm_scores misaligned for job " << j;
    job.tuner->set_warm_start(job.options.warm_configs, job.options.warm_scores);
  }
  if (!job.options.resume_from.empty()) {
    load_checkpoint(job.options.resume_from, s.st, *job.tuner, *job.measurer);
    GLIMPSE_CHECK(s.st.task_name == checkpoint_word(job.task->name()) &&
                  s.st.hw_name == checkpoint_word(job.hw->name))
        << "resume_from snapshot is for (" << s.st.task_name << ", "
        << s.st.hw_name << "), job " << j << " runs (" << job.task->name()
        << ", " << job.hw->name << ")";
  } else {
    s.st.session_start_s = job.measurer->elapsed_seconds();
  }
  jobs_.push_back(std::move(job));
  states_.push_back(std::move(state));
  ++live_;
  if (telemetry::metrics_enabled())
    telemetry::MetricsRegistry::global().counter("scheduler.jobs").add(1);
  return j;
}

void Scheduler::finish(std::size_t j) {
  JobState& s = *states_[j];
  if (s.done) return;
  s.done = true;
  --live_;
  emit_session_metrics(s.st.trace);
}

void Scheduler::cancel(std::size_t job) {
  GLIMPSE_CHECK(job < states_.size());
  if (!states_[job]->done) states_[job]->cancel_requested = true;
}

bool Scheduler::job_done(std::size_t job) const {
  GLIMPSE_CHECK(job < states_.size());
  return states_[job]->done;
}

bool Scheduler::job_cancelled(std::size_t job) const {
  GLIMPSE_CHECK(job < states_.size());
  return states_[job]->cancelled;
}

const Trace& Scheduler::trace(std::size_t job) const {
  GLIMPSE_CHECK(job < states_.size());
  return states_[job]->st.trace;
}

Trace Scheduler::take_trace(std::size_t job) {
  GLIMPSE_CHECK(job < states_.size());
  return std::move(states_[job]->st.trace);
}

bool Scheduler::step_round() {
  GLIMPSE_SPAN("scheduler.round");
  const bool timed = telemetry::metrics_enabled();
  const std::uint64_t round_t0 = timed ? telemetry::now_ns() : 0;
  // Round-local dedup map. unordered_map gives stable element addresses,
  // so RoundEntry pointers taken here survive later insertions.
  std::unordered_map<CacheKey, RoundEntry, CacheKeyHash> round;
  std::uint64_t shared_hits = 0;

  // Plan phase (serial, job order — this ordering IS the determinism):
  // check budgets, propose batches, assign first-proposer ownership.
  bool any_batch = false;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    ScheduledJob& job = jobs_[j];
    JobState& s = *states_[j];
    if (s.done) continue;
    s.batch.clear();
    s.source.clear();
    s.owned_index.clear();
    s.owned_entry.clear();
    s.owned_elapsed.clear();
    if (s.cancel_requested) {
      s.cancelled = true;
      finish(j);
      continue;
    }
    if (s.st.step >= job.options.max_trials) {
      finish(j);
      continue;
    }
    s.round_start_clock = job.measurer->elapsed_seconds();
    double elapsed = s.round_start_clock - s.st.session_start_s;
    if (elapsed >= job.options.time_budget_s) {
      finish(j);
      continue;
    }
    std::size_t want =
        std::min(job.options.batch_size, job.options.max_trials - s.st.step);
    s.batch = job.tuner->propose(want);
    if (s.batch.empty()) {  // space exhausted
      finish(j);
      continue;
    }
    any_batch = true;
    for (std::size_t i = 0; i < s.batch.size(); ++i) {
      auto [it, inserted] =
          round.try_emplace(CacheKey{s.task_fp, s.hw_fp, s.batch[i]});
      if (inserted) {
        it->second.owner_job = j;
        s.source.push_back(nullptr);
        s.owned_index.push_back(i);
        s.owned_entry.push_back(&it->second);
      } else {
        s.source.push_back(&it->second);
        ++shared_hits;
      }
    }
  }
  if (!any_batch) return false;
  if (telemetry::metrics_enabled()) {
    auto& reg = telemetry::MetricsRegistry::global();
    reg.counter("scheduler.rounds").add(1);
    if (shared_hits > 0) reg.counter("scheduler.shared_hits").add(shared_hits);
  }

  // Measure phase: owners measure their configs, at most `slots` jobs in
  // flight. Each job walks its owned configs serially (its measurer clock
  // must advance in batch order); jobs are independent — disjoint tuner,
  // measurer, and RoundEntry state — so running them on pool threads
  // cannot change any value, only the wall-clock.
  std::vector<std::size_t> measuring;
  for (std::size_t j = 0; j < jobs_.size(); ++j)
    if (!states_[j]->done && !states_[j]->owned_index.empty())
      measuring.push_back(j);
  for (std::size_t base = 0; base < measuring.size(); base += options_.slots) {
    std::size_t hi = std::min(base + options_.slots, measuring.size());
    parallel_for(base, hi, 1, [&](std::size_t m) {
      std::size_t j = measuring[m];
      ScheduledJob& job = jobs_[j];
      JobState& s = *states_[j];
      // Join the job's distributed trace (service jobs carry one in their
      // options) so this round's measure spans — and the measure_with_retry
      // children inside — stitch under the job. Telemetry only: nothing the
      // measurements compute depends on it.
      std::optional<telemetry::ScopedTraceContext> trace_scope;
      if (telemetry::tracing_enabled() && job.options.trace.valid())
        trace_scope.emplace(job.options.trace);
      telemetry::Span round_span("scheduler.job_round");
      round_span.set_job(job.options.trace_job_id);
      round_span.set_round(s.st.step);
      s.owned_elapsed.resize(s.owned_index.size());
      for (std::size_t q = 0; q < s.owned_index.size(); ++q) {
        std::size_t i = s.owned_index[q];
        s.owned_entry[q]->result = measure_with_retry(
            *job.measurer, *job.task, *job.hw, s.batch[i], job.options.retry,
            job.options.seed, s.st.step + i, job.options.result_cache);
        s.owned_elapsed[q] = job.measurer->elapsed_seconds();
      }
    });
  }

  // Assembly phase (serial, job order): build trial records, feed tuners,
  // checkpoint, apply stop conditions — byte-for-byte the run_session
  // bookkeeping. Followers replay their entry's result at zero cost to
  // their own measurer (the measurement genuinely happened once).
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    ScheduledJob& job = jobs_[j];
    JobState& s = *states_[j];
    if (s.done || s.batch.empty()) continue;
    std::optional<telemetry::ScopedTraceContext> trace_scope;
    if (telemetry::tracing_enabled() && job.options.trace.valid())
      trace_scope.emplace(job.options.trace);
    telemetry::Span batch_span("session.batch");  // one per job-batch
    batch_span.set_job(job.options.trace_job_id);
    batch_span.set_round(s.st.step);
    Trace& trace = s.st.trace;
    std::vector<MeasureResult> results;
    results.reserve(s.batch.size());
    bool reached_target = false;
    // Replay the job's simulated clock through the batch: it advances only
    // at owned measurements (followers are free), exactly as it did during
    // the measure phase.
    double running = s.round_start_clock;
    std::size_t q = 0;
    for (std::size_t i = 0; i < s.batch.size(); ++i) {
      MeasureResult r;
      if (q < s.owned_index.size() && s.owned_index[q] == i) {
        r = s.owned_entry[q]->result;
        running = s.owned_elapsed[q];
        ++q;
      } else {
        r = s.source[i]->result;
      }
      results.push_back(r);
      TrialRecord rec;
      rec.config = s.batch[i];
      rec.result = r;
      rec.step = s.st.step++;
      rec.elapsed_s = running - s.st.session_start_s;
      trace.trials.push_back(std::move(rec));
      if (r.valid && r.gflops >= job.options.early_stop_gflops)
        reached_target = true;
      if (r.valid && r.gflops > s.st.plateau_best * 1.01) {
        s.st.plateau_best = r.gflops;
        s.st.trials_since_improvement = 1;  // counts the improving trial
      } else if (r.error == MeasureError::kNone) {
        // Faulted trials carry no signal about the search: they must not
        // advance the plateau clock (see run_session).
        ++s.st.trials_since_improvement;
      }
    }
    job.tuner->update(s.batch, results);

    if (!job.options.checkpoint_path.empty()) {
      GLIMPSE_SPAN("session.checkpoint");
      save_checkpoint(job.options.checkpoint_path, s.st, *job.tuner,
                      *job.measurer);
      if (telemetry::metrics_enabled())
        telemetry::MetricsRegistry::global().counter("session.checkpoints").add(1);
    }
    if (reached_target) {
      finish(j);
      continue;
    }
    if (job.options.plateau_trials > 0 && s.st.plateau_best > 0.0 &&
        s.st.trials_since_improvement >= job.options.plateau_trials)
      finish(j);
  }
  if (timed)
    telemetry::MetricsRegistry::global()
        .histogram("stage.round_compute_s")
        .record(static_cast<double>(telemetry::now_ns() - round_t0) * 1e-9);
  return true;
}

std::vector<Trace> run_scheduled(std::vector<ScheduledJob>& jobs,
                                 const SchedulerOptions& options) {
  GLIMPSE_SPAN("scheduler.run");
  Scheduler scheduler(options);
  for (ScheduledJob& job : jobs) scheduler.add_job(job);
  while (scheduler.step_round()) {
  }
  std::vector<Trace> traces;
  traces.reserve(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j)
    traces.push_back(scheduler.take_trace(j));
  return traces;
}

}  // namespace glimpse::tuning
