#include "tuning/scheduler.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
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

/// Run `body` under a span carrying the job's id and round, inside the job's
/// distributed trace when it has one (service jobs do), so the spans `body`
/// opens stitch under the job. Telemetry only: no value depends on it.
template <typename Body>
void in_job_span(const char* name, const SessionOptions& o, std::size_t round,
                 Body&& body) {
  std::optional<telemetry::ScopedTraceContext> trace_scope;
  if (telemetry::tracing_enabled() && o.trace.valid()) trace_scope.emplace(o.trace);
  telemetry::Span span(name);
  span.set_job(o.trace_job_id);
  span.set_round(round);
  body();
}

}  // namespace

struct Scheduler::JobState {
  std::uint64_t task_fp = 0;
  std::uint64_t hw_fp = 0;
  // Session-loop state: rebuilt by replay on resume, never serialized.
  std::size_t step = 0;
  double session_start_s = 0.0;
  double plateau_best = 0.0;
  std::size_t trials_since_improvement = 0;
  Trace trace;
  bool done = false;
  bool cancel_requested = false;
  bool cancelled = false;
  double round_start_clock = 0.0;  ///< measurer clock when the round began

  // The job's journal, opened at its first append. That append first writes
  // `journal_head` (a fresh session's header, or a resumed journal's whole
  // records) unless `journal_in_place`: then checkpoint_path IS the resumed
  // journal, and is truncated to its whole records instead.
  std::ofstream journal;
  std::string journal_head;
  bool journal_in_place = false;

  // Per-round scratch.
  std::size_t want = 0;                    ///< the n passed to propose()
  std::vector<Config> batch;
  std::vector<RoundEntry*> source;         ///< per batch index; nullptr = owned
  std::vector<std::size_t> owned_index;    ///< batch indices this job measures
  std::vector<RoundEntry*> owned_entry;    ///< aligned with owned_index
  std::vector<double> owned_elapsed;       ///< measurer clock after each owned

  /// Per-trial bookkeeping, shared by live and replayed batches: log the
  /// trial under the next step index and advance the plateau counters.
  /// Returns true when the trial reaches the early-stop target.
  bool record(const SessionOptions& o, const Config& config, const MeasureResult& r,
              double elapsed_s) {
    TrialRecord rec;
    rec.config = config;
    rec.result = r;
    rec.step = step++;
    rec.elapsed_s = elapsed_s;
    trace.trials.push_back(std::move(rec));
    if (r.valid && r.gflops > plateau_best * 1.01) {
      plateau_best = r.gflops;
      trials_since_improvement = 1;  // counts the improving trial
    } else if (r.error == MeasureError::kNone) {
      // Faulted trials carry no signal about the search: they must not
      // advance the plateau clock.
      ++trials_since_improvement;
    }
    return r.valid && r.gflops >= o.early_stop_gflops;
  }

  /// The stop conditions checked after each batch.
  bool stops(const SessionOptions& o, bool reached_target) const {
    return reached_target || (o.plateau_trials > 0 && plateau_best > 0.0 &&
                              trials_since_improvement >= o.plateau_trials);
  }

  void append_journal(const std::string& path, const std::string& line) {
    if (!journal.is_open()) {
      if (journal_in_place) {
        std::filesystem::resize_file(path, journal_head.size());
        journal.open(path, std::ios::binary | std::ios::app);
      } else {
        journal.open(path, std::ios::binary | std::ios::trunc);
        journal << journal_head;
      }
      if (!journal.is_open()) throw std::runtime_error("journal: cannot open " + path);
      journal_head = std::string();
    }
    journal << line;
    journal.flush();
    if (!journal.good()) throw std::runtime_error("journal: cannot write " + path);
  }
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
  const SessionOptions& o = job.options;
  // Build the whole job state before touching jobs_/states_/live_: replay
  // below throws on a corrupt journal, a mismatch or a divergence, and a
  // half-admitted entry would still be planned by the next round — with
  // borrowed pointers the caller believes were never admitted.
  auto state = std::make_unique<JobState>();
  JobState& s = *state;
  s.task_fp = task_fingerprint(*job.task);
  s.hw_fp = hardware_fingerprint(*job.hw);
  JournalHeader header{checkpoint_word(job.tuner->name()),
                       checkpoint_word(job.task->name()),
                       checkpoint_word(job.hw->name),
                       job.measurer->elapsed_seconds(),
                       o.warm_configs,
                       o.warm_scores};
  Journal journal;
  if (!o.resume_from.empty()) journal = read_journal(o.resume_from);
  if (journal.has_header) {
    // Check the header before touching the tuner.
    const JournalHeader& h = journal.header;
    if (h.tuner_name != header.tuner_name)
      throw std::runtime_error("Scheduler::add_job: journal " + o.resume_from +
                               " is for tuner '" + h.tuner_name + "', job " +
                               std::to_string(j) + " runs '" + job.tuner->name() + "'");
    GLIMPSE_CHECK(h.task_name == header.task_name && h.hw_name == header.hw_name)
        << "resume_from journal is for (" << h.task_name << ", " << h.hw_name
        << "), job " << j << " runs (" << job.task->name() << ", " << job.hw->name
        << ")";
    // The seeds the interrupted session started with, not today's advice:
    // the advisor's answer drifts as the fleet's tiers grow.
    header = h;
  }
  GLIMPSE_CHECK(header.warm_configs.size() == header.warm_scores.size())
      << "warm_configs/warm_scores misaligned for job " << j;
  if (!header.warm_configs.empty())
    job.tuner->set_warm_start(header.warm_configs, header.warm_scores);
  s.session_start_s = header.session_start_s;

  // Replay: the tuner, rebuilt from its seed, must propose exactly what the
  // journal recorded, and learns from the recorded results.
  bool stopped = false;
  for (const JournalBatch& b : journal.batches) {
    if (stopped || job.tuner->propose(b.n) != b.configs)
      throw std::runtime_error(
          "Scheduler::add_job: job " + std::to_string(j) + " (" + job.tuner->name() +
          ") diverges from journal " + o.resume_from + " at step " +
          std::to_string(s.step) + " (a batch of propose(" + std::to_string(b.n) +
          "))");
    bool reached_target = false;
    for (std::size_t i = 0; i < b.configs.size(); ++i)
      reached_target |= s.record(o, b.configs[i], b.results[i], b.elapsed_s[i]);
    job.tuner->update(b.configs, b.results);
    stopped = s.stops(o, reached_target);
  }
  if (!journal.batches.empty()) {
    std::istringstream is(journal.batches.back().measurer_state);
    TextReader r(is);
    job.measurer->load_state(r);
  }
  if (!o.checkpoint_path.empty()) {
    std::error_code ec;
    s.journal_in_place =
        journal.has_header &&
        std::filesystem::equivalent(o.resume_from, o.checkpoint_path, ec);
    s.journal_head =
        journal.has_header ? std::move(journal.whole) : journal_header_line(header);
  }
  jobs_.push_back(std::move(job));
  states_.push_back(std::move(state));
  ++live_;
  if (telemetry::metrics_enabled())
    telemetry::MetricsRegistry::global().counter("scheduler.jobs").add(1);
  if (stopped) finish(j);  // the journal ends where the session stopped
  return j;
}

void Scheduler::finish(std::size_t j) {
  JobState& s = *states_[j];
  if (s.done) return;
  s.done = true;
  --live_;
  s.journal.close();
  emit_session_metrics(s.trace);
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
  return states_[job]->trace;
}

Trace Scheduler::take_trace(std::size_t job) {
  GLIMPSE_CHECK(job < states_.size());
  return std::move(states_[job]->trace);
}

bool Scheduler::step_round() {
  GLIMPSE_SPAN("scheduler.round");
  const bool timed = telemetry::metrics_enabled();
  const std::uint64_t round_t0 = timed ? telemetry::now_ns() : 0;
  // Round-local dedup map. unordered_map gives stable element addresses,
  // so RoundEntry pointers taken here survive later insertions.
  std::unordered_map<CacheKey, RoundEntry, CacheKeyHash> round;
  std::uint64_t shared_hits = 0;

  // Plan phase. (1) and (3) run in job order — that ordering IS the
  // determinism. (1) Size each live job's batch; cancelled, budget-spent and
  // timed-out jobs get none, and are retired at (3) so jobs finish in order.
  std::vector<std::size_t> proposing;
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
      continue;
    }
    if (s.step >= job.options.max_trials) continue;
    s.round_start_clock = job.measurer->elapsed_seconds();
    if (s.round_start_clock - s.session_start_s >= job.options.time_budget_s) continue;
    s.want = std::min(job.options.batch_size, job.options.max_trials - s.step);
    proposing.push_back(j);
  }
  // (2) Every job proposes at once; no proposal can see another (see the
  //     contract in scheduler.hpp). If several throw, the lowest job's
  //     exception surfaces, as it would from a serial loop.
  parallel_for(proposing.size(), [&](std::size_t p) {
    const std::size_t j = proposing[p];
    JobState& s = *states_[j];
    in_job_span("scheduler.job_plan", jobs_[j].options, s.step,
                [&] { s.batch = jobs_[j].tuner->propose(s.want); });
  });
  // (3) Retire the jobs that got no batch (retired above, or space
  //     exhausted) and assign first-proposer ownership.
  bool any_batch = false;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    JobState& s = *states_[j];
    if (s.done) continue;
    if (s.batch.empty()) {
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
    parallel_for(hi - base, [&](std::size_t m) {
      std::size_t j = measuring[base + m];
      ScheduledJob& job = jobs_[j];
      JobState& s = *states_[j];
      in_job_span("scheduler.job_round", job.options, s.step, [&] {
        s.owned_elapsed.resize(s.owned_index.size());
        for (std::size_t q = 0; q < s.owned_index.size(); ++q) {
          std::size_t i = s.owned_index[q];
          s.owned_entry[q]->result = measure_with_retry(
              *job.measurer, *job.task, *job.hw, s.batch[i], job.options.retry,
              job.options.seed, s.step + i, job.options.result_cache);
          s.owned_elapsed[q] = job.measurer->elapsed_seconds();
        }
      });
    });
  }

  // Assembly phase (serial, job order): build trial records, feed tuners,
  // journal the batch, apply stop conditions — byte-for-byte the run_session
  // bookkeeping. Followers replay their entry's result at zero cost to
  // their own measurer (the measurement genuinely happened once).
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    ScheduledJob& job = jobs_[j];
    JobState& s = *states_[j];
    if (s.done || s.batch.empty()) continue;
    in_job_span("session.batch", job.options, s.step, [&] {
      const std::size_t first = s.trace.trials.size();
      std::vector<MeasureResult> results;
      results.reserve(s.batch.size());
      bool reached_target = false;
      // Replay the job's simulated clock through the batch: it advances only
      // at owned measurements (followers are free), exactly as it did during
      // the measure phase.
      double running = s.round_start_clock;
      std::size_t q = 0;
      for (std::size_t i = 0; i < s.batch.size(); ++i) {
        if (q < s.owned_index.size() && s.owned_index[q] == i) {
          results.push_back(s.owned_entry[q]->result);
          running = s.owned_elapsed[q];
          ++q;
        } else {
          results.push_back(s.source[i]->result);
        }
        reached_target |= s.record(job.options, s.batch[i], results.back(),
                                   running - s.session_start_s);
      }
      job.tuner->update(s.batch, results);

      if (!job.options.checkpoint_path.empty()) {
        GLIMPSE_SPAN("session.checkpoint");
        s.append_journal(job.options.checkpoint_path,
                         journal_batch_line(s.want, s.trace, first, *job.measurer));
        if (telemetry::metrics_enabled())
          telemetry::MetricsRegistry::global().counter("session.checkpoints").add(1);
      }
      if (s.stops(job.options, reached_target)) finish(j);
    });
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
