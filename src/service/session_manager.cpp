#include "service/session_manager.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "baselines/autotvm.hpp"
#include "baselines/chameleon.hpp"
#include "baselines/random_tuner.hpp"
#include "common/logging.hpp"
#include "common/telemetry/metrics.hpp"
#include "common/telemetry/span.hpp"
#include "common/telemetry/trace_context.hpp"
#include "gpusim/measurer.hpp"
#include "hwspec/database.hpp"
#include "searchspace/models.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/scheduler.hpp"
#include "tuning/warmstart.hpp"

namespace glimpse::service {

namespace fs = std::filesystem;

struct SessionManager::JobRecord {
  std::uint64_t id = 0;
  std::string client;
  std::int64_t priority = 0;
  JobSpec spec;

  std::string state = "queued";  ///< queued | running | done | cancelled | failed
  bool cancel_requested = false;
  bool settled() const {
    return state == "done" || state == "cancelled" || state == "failed";
  }

  // Scheduler runtime. Owned here; the scheduler's ScheduledJob borrows raw
  // pointers, so these stay alive until the manager dies (the scheduler
  // never touches a finished job again, but we don't lean on that).
  bool admitted = false;
  std::size_t sched_index = 0;
  std::unique_ptr<tuning::Tuner> tuner;
  std::unique_ptr<gpusim::SimMeasurer> measurer;
  JobRun run;

  JobSummary summary;
  std::size_t scan_pos = 0;  ///< trace trials already folded into summary
  /// Bumped on every externally visible progress change (admission, new
  /// trials, settlement); subscribe() streams a status per bump.
  std::uint64_t update_version = 0;

  // Distributed-trace identity (tentpole, DESIGN.md §13). trace_ctx.span_id
  // is the job's root span; trace_parent is the client request span it nests
  // under. Telemetry only — never read by scheduling or tuning decisions.
  telemetry::TraceContext trace_ctx;
  std::uint64_t trace_parent = 0;
  std::uint64_t enqueue_ns = 0;  ///< queue entry (0 = not timed)
  std::uint64_t admit_ns = 0;    ///< scheduler admission (0 = never admitted)
};

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)), queue_(options_.queue) {
  GLIMPSE_CHECK(options_.slots >= 1);
  if (!options_.cache_shared_dir.empty()) {
    GLIMPSE_CHECK(!options_.shard_name.empty());
    std::error_code ec;
    fs::create_directories(options_.cache_shared_dir, ec);
    tuning::ResultCacheOptions copts;
    copts.path =
        options_.cache_shared_dir + "/tier-" + options_.shard_name + ".jsonl";
    copts.shared_dir = options_.cache_shared_dir;
    cache_ = std::make_unique<tuning::ResultCache>(copts);
  } else if (!options_.cache.empty()) {
    tuning::ResultCacheOptions copts;
    if (options_.cache != "mem") copts.path = options_.cache;
    cache_ = std::make_unique<tuning::ResultCache>(copts);
  }
  if (options_.warmstart) {
    tuning::WarmStartOptions wopts;
    wopts.shared_dir = options_.cache_shared_dir;
    if (!options_.warmstart_predictor.empty()) {
      try {
        predictor_ = std::make_unique<tuning::ConfigPredictor>(
            tuning::ConfigPredictor::load_file(options_.warmstart_predictor));
        if (!predictor_->fitted())
          throw std::runtime_error("predictor file holds an unfitted model");
        wopts.predictor = predictor_.get();
      } catch (const std::exception& e) {
        LOG_WARN << "warm-start predictor " << options_.warmstart_predictor
                 << " unusable (" << e.what() << "); continuing without it";
        predictor_.reset();
      }
    }
    advisor_ = std::make_unique<tuning::WarmStartAdvisor>(std::move(wopts));
  }
  scheduler_ = std::make_unique<tuning::Scheduler>(
      tuning::SchedulerOptions{options_.slots});
  recover_spool();
  worker_ = std::thread(&SessionManager::worker_loop, this);
}

SessionManager::~SessionManager() { stop(); }

void SessionManager::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  worker_cv_.notify_all();
  settled_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::uint64_t SessionManager::recovered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resumed_;
}

bool SessionManager::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::string SessionManager::spool_file(std::uint64_t id, const char* suffix) const {
  char name[64];
  std::snprintf(name, sizeof name, "job-%08llu",
                static_cast<unsigned long long>(id));
  return options_.spool_dir + "/" + name + suffix;
}

namespace {

/// Each model's TaskSet, built once per process; tasks keep their addresses.
const searchspace::TaskSet& model_tasks(const std::string& model) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<searchspace::TaskSet>> sets;
  std::lock_guard<std::mutex> lock(mu);
  auto& set = sets[model];
  if (!set) set = std::make_unique<searchspace::TaskSet>(searchspace::model_by_name(model));
  return *set;
}

/// Read one whole line from a small spool file. False when unreadable.
bool read_line(const std::string& path, std::string& out) {
  std::ifstream is(path);
  if (!is.good()) return false;
  return static_cast<bool>(std::getline(is, out));
}

/// Atomic single-line file write (tmp + rename): readers and crash
/// recovery never see a torn spool entry.
void write_line_atomic(const std::string& path, const std::string& line) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os.good()) throw std::runtime_error("cannot write " + tmp);
    os << line << '\n';
    os.flush();
    if (!os.good()) throw std::runtime_error("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("rename failed: " + path);
}

}  // namespace

JobRun resolve_job(const JobSpec& spec) {
  JobRun run;
  const searchspace::TaskSet& ts = model_tasks(spec.model);
  if (spec.task_index >= ts.num_tasks())
    throw std::invalid_argument("task index out of range (model has " +
                                std::to_string(ts.num_tasks()) + " tasks)");
  run.task = &ts.task(spec.task_index);
  run.hw = hwspec::find_gpu(spec.gpu);
  if (run.hw == nullptr) throw std::invalid_argument(hwspec::unknown_gpu_message(spec.gpu));
  run.options.max_trials = spec.max_trials;
  run.options.batch_size = spec.batch_size;
  run.options.plateau_trials = spec.plateau_trials;
  if (spec.time_budget_s > 0.0) run.options.time_budget_s = spec.time_budget_s;
  run.options.seed = spec.seed;
  return run;
}

tuning::TunerFactory daemon_tuner(const std::string& name) {
  if (name == "random") return baselines::random_factory();
  if (name == "autotvm") return baselines::autotvm_factory();
  if (name == "chameleon") return baselines::chameleon_factory();
  throw std::invalid_argument("unknown tuner '" + name + "'" +
                              (name == "glimpse" || name == "dgp"
                                   ? ": the daemon holds no pretrained artifacts for it"
                                   : ""));
}

void SessionManager::build_runtime(JobRecord& rec) {
  const std::string resume_from = rec.run.options.resume_from;
  rec.run = resolve_job(rec.spec);
  rec.tuner = daemon_tuner(rec.spec.tuner)(*rec.run.task, *rec.run.hw, rec.spec.seed);
  rec.measurer = std::make_unique<gpusim::SimMeasurer>();

  tuning::SessionOptions& sess = rec.run.options;
  sess.result_cache = cache_.get();
  sess.trace = rec.trace_ctx;
  sess.trace_job_id = rec.id;
  if (!options_.spool_dir.empty()) {
    sess.checkpoint_path = spool_file(rec.id, ".ckpt");
    // Recovery sets resume_from before the record reaches the scheduler;
    // keep whatever it decided.
    sess.resume_from = resume_from;
  }
  if (advisor_ && rec.spec.warmstart && rec.spec.tuner != "random") {
    // A resumed job replays the seeds its journal recorded (part of the
    // search trajectory) instead of today's advice; this advice only counts
    // for a fresh run.
    tuning::WarmStart ws = advisor_->advise(*rec.run.task, *rec.run.hw);
    sess.warm_configs = std::move(ws.configs);
    sess.warm_scores = std::move(ws.scores);
  }
}

Response SessionManager::submit(const std::string& client, std::int64_t priority,
                                const JobSpec& spec) {
  // Validate the spec outside the lock: all checks are read-only lookups.
  try {
    resolve_job(spec);
    daemon_tuner(spec.tuner);
  } catch (const std::invalid_argument& e) {
    return error_response(e.what());
  }

  // Capture the connection thread's ambient trace context (set by the
  // server from the request's traceparent) before taking the lock; the
  // worker thread that later runs the job has no ambient context of its own.
  const telemetry::TraceContext inbound =
      telemetry::tracing_enabled() ? telemetry::current_trace_context()
                                   : telemetry::TraceContext{};

  std::lock_guard<std::mutex> lock(mu_);
  Response r;
  if (draining_ || stop_) {
    ++rejected_;
    r.type = ResponseType::kRejected;
    r.reason = "draining";
    r.retry_after_s = options_.queue.retry_after_s;
    return r;
  }
  if (options_.quota_gpu_s > 0.0) {
    auto spent = quota_spent_.find(client);
    if (spent != quota_spent_.end() && spent->second >= options_.quota_gpu_s) {
      // Queue slots bound concurrency; this bounds total simulated GPU time
      // a client can burn. Quotas never replenish within a daemon lifetime —
      // spent time only grows — so a retry hint would send clients into an
      // infinite retry loop. retry_after_s = 0 means "terminal: don't
      // retry"; only an operator restarting the daemon or raising the quota
      // can clear it.
      ++rejected_;
      ++quota_rejections_;
      r.type = ResponseType::kRejected;
      r.reason = "quota_exhausted";
      r.retry_after_s = 0.0;
      return r;
    }
  }
  const std::uint64_t id = next_id_;
  Admission adm = queue_.push(QueuedJob{id, client, priority, spec});
  if (!adm.accepted) {
    ++rejected_;
    r.type = ResponseType::kRejected;
    r.reason = adm.reason;
    r.retry_after_s = adm.retry_after_s;
    return r;
  }
  ++next_id_;
  if (priority > 0) ++admitted_high_;
  else if (priority < 0) ++admitted_low_;
  else ++admitted_normal_;
  auto rec = std::make_unique<JobRecord>();
  rec->id = id;
  rec->client = client;
  rec->priority = priority;
  rec->spec = spec;
  rec->summary.job_id = id;
  rec->summary.client = client;
  rec->summary.state = "queued";
  if (inbound.valid()) {
    // The job gets its own root span id under the client's request span;
    // everything the job does (queue wait, rounds, measurements) nests
    // beneath it, across processes and across daemon restarts.
    rec->trace_parent = inbound.span_id;
    rec->trace_ctx = inbound;
    rec->trace_ctx.span_id = telemetry::next_span_id();
  }
  if (telemetry::tracing_enabled() || telemetry::metrics_enabled())
    rec->enqueue_ns = telemetry::now_ns();
  if (!options_.spool_dir.empty()) {
    try {
      persist_spec(*rec);
    } catch (const std::exception& e) {
      queue_.erase(id);
      ++rejected_;
      return error_response(std::string("spool write failed: ") + e.what());
    }
  }
  records_.emplace(id, std::move(rec));
  ++submitted_;
  worker_cv_.notify_all();
  r.type = ResponseType::kAccepted;
  r.job_id = id;
  return r;
}

Response SessionManager::status(std::uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(job_id);
  if (it == records_.end()) return error_response("unknown job_id");
  Response r;
  r.type = ResponseType::kStatus;
  r.summary = it->second->summary;
  return r;
}

Response SessionManager::result(std::uint64_t job_id, bool wait) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = records_.find(job_id);
  if (it == records_.end()) return error_response("unknown job_id");
  JobRecord* rec = it->second.get();
  if (!rec->settled() && wait) {
    settled_cv_.wait(lock, [&] { return stop_ || rec->settled(); });
    if (!rec->settled()) return error_response("daemon stopping");
  }
  Response r;
  r.type = rec->settled() ? ResponseType::kResult : ResponseType::kStatus;
  r.summary = rec->summary;
  return r;
}

bool SessionManager::handle(const Request& req, const Emit& emit) {
  switch (req.type) {
    case RequestType::kSubmit:
      return emit(submit(req.client, req.priority, req.job));
    case RequestType::kStatus: return emit(status(req.job_id));
    case RequestType::kResult: return emit(result(req.job_id, req.wait));
    case RequestType::kCancel: return emit(cancel(req.job_id));
    case RequestType::kSubscribe: return subscribe(req.job_id, emit);
    case RequestType::kStats: return emit(stats());
    case RequestType::kDrain: return emit(drain());
    default:
      // kPing / kShutdown are the Server's; anything else reaching here is
      // a dispatch bug upstream, answered without trusting it.
      return emit(error_response("unsupported request type"));
  }
}

bool SessionManager::subscribe(std::uint64_t job_id, const Emit& emit) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = records_.find(job_id);
  if (it == records_.end()) {
    lock.unlock();
    return emit(error_response("unknown job_id"));
  }
  JobRecord* rec = it->second.get();
  // Records are never erased while the manager lives, so `rec` stays valid
  // across the unlocked emit calls below.
  std::uint64_t seen = std::numeric_limits<std::uint64_t>::max();
  while (true) {
    settled_cv_.wait(lock, [&] {
      return stop_ || rec->settled() || rec->update_version != seen;
    });
    if (stop_ && !rec->settled()) {
      lock.unlock();
      return emit(error_response("daemon stopping"));
    }
    seen = rec->update_version;
    Response r;
    r.type = rec->settled() ? ResponseType::kResult : ResponseType::kStatus;
    r.summary = rec->summary;
    const bool final_push = rec->settled();
    lock.unlock();
    if (!emit(r)) return false;  // connection gone mid-stream
    if (final_push) return true;
    lock.lock();
  }
}

Response SessionManager::cancel(std::uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = records_.find(job_id);
  if (it == records_.end()) return error_response("unknown job_id");
  JobRecord& rec = *it->second;
  if (rec.state == "queued") {
    queue_.erase(job_id);
    finalize_locked(rec, "cancelled", "");
  } else if (rec.state == "running") {
    rec.cancel_requested = true;
    worker_cv_.notify_all();
  }
  Response r;
  r.type = ResponseType::kOk;
  return r;
}

Response SessionManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Response r;
  r.type = ResponseType::kStats;
  ServiceStats& s = r.stats;
  s.queue_depth = queue_.depth();
  for (const auto& [id, rec] : records_)
    if (rec->state == "running") ++s.running;
  s.jobs_inflight = s.queue_depth + s.running;
  s.admitted_prio_high = admitted_high_;
  s.admitted_prio_normal = admitted_normal_;
  s.admitted_prio_low = admitted_low_;
  s.submitted = submitted_;
  s.completed = completed_;
  s.cancelled = cancelled_;
  s.failed = failed_;
  s.rejected = rejected_;
  s.quota_rejections = quota_rejections_;
  s.resumed = resumed_;
  s.slots = options_.slots;
  s.cache_enabled = cache_ != nullptr;
  if (cache_) {
    tuning::ResultCacheStats cs = cache_->stats();
    s.cache_hits = cs.hits;
    s.cache_inserts = cs.inserts;
  }
  // Cross-job in-round dedup is counted by the scheduler's telemetry
  // counter; it stays 0 unless metrics collection is enabled.
  if (telemetry::metrics_enabled()) {
    s.shared_hits = GLIMPSE_COUNTER("scheduler.shared_hits").value();
  }
  s.draining = draining_;
  return r;
}

Response SessionManager::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  worker_cv_.notify_all();
  settled_cv_.wait(lock, [&] {
    if (stop_) return true;
    for (const auto& [id, rec] : records_)
      if (!rec->settled()) return false;
    return queue_.empty();
  });
  Response r;
  r.type = ResponseType::kOk;
  return r;
}

void SessionManager::persist_spec(const JobRecord& rec) {
  write_line_atomic(
      spool_file(rec.id, ".spec.json"),
      encode_spool_record({rec.id, rec.client, rec.priority, rec.spec,
                           rec.trace_ctx.valid()
                               ? telemetry::to_traceparent(rec.trace_ctx)
                               : std::string()}));
}

bool SessionManager::persist_result(const JobRecord& rec) {
  if (options_.spool_dir.empty()) return true;
  try {
    write_line_atomic(spool_file(rec.id, ".result.json"),
                      encode_job_summary(rec.summary));
  } catch (const std::exception& e) {
    LOG_WARN << "spool result write failed for job " << rec.id << ": "
             << e.what();
    return false;
  }
  return true;
}

void SessionManager::finalize_locked(JobRecord& rec, std::string state,
                                     std::string error) {
  if (telemetry::tracing_enabled() && rec.trace_ctx.valid() &&
      rec.enqueue_ns != 0) {
    // The job's root span: covers admission through settlement (or the whole
    // queued life for jobs cancelled before running). Its id is the one the
    // spool carries and every child span points at.
    const std::uint64_t t0 = rec.admit_ns != 0 ? rec.admit_ns : rec.enqueue_ns;
    const std::uint64_t now = telemetry::now_ns();
    telemetry::EventArgs args;
    args.job_id = rec.id;
    args.note = state == "done"        ? "done"
                : state == "cancelled" ? "cancelled"
                                       : "failed";
    telemetry::record_span_event("job.run", t0, now > t0 ? now - t0 : 0,
                                 rec.trace_ctx, rec.trace_parent, args);
  }
  rec.state = state;
  rec.summary.state = state;
  rec.summary.error = std::move(error);
  ++rec.update_version;
  if (state == "done") ++completed_;
  else if (state == "cancelled") ++cancelled_;
  else ++failed_;
  if (persist_result(rec) && !options_.spool_dir.empty()) {
    // The checkpoint is dead weight once the settled summary is durable;
    // keep it only when the result write failed, so a restart can still
    // recover the job from its last checkpoint.
    std::error_code ec;
    fs::remove(spool_file(rec.id, ".ckpt"), ec);
  }
  settled_cv_.notify_all();
}

void SessionManager::recover_spool() {
  if (options_.spool_dir.empty()) return;
  std::error_code ec;
  fs::create_directories(options_.spool_dir, ec);
  if (ec) throw std::runtime_error("cannot create spool dir " + options_.spool_dir);

  struct Found {
    std::uint64_t id = 0;
    SpoolRecord sr;
    bool settled = false;
    JobSummary done;
  };
  std::vector<Found> found;
  for (const auto& entry : fs::directory_iterator(options_.spool_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 14 || name.rfind("job-", 0) != 0) continue;
    if (name.size() < 10 || name.substr(name.size() - 10) != ".spec.json") continue;
    std::string line;
    Found f;
    std::string err;
    if (!read_line(entry.path().string(), line) ||
        !parse_spool_record(line, f.sr, err)) {
      LOG_WARN << "skipping unreadable spool spec " << name << ": " << err;
      continue;
    }
    f.id = f.sr.id;
    found.push_back(std::move(f));
  }
  // Directory order is unspecified; sort so recovered admission order (and
  // hence the queue) is deterministic.
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) { return a.id < b.id; });

  // Classify first: retention below needs the total settled count.
  std::size_t settled = 0;
  for (Found& f : found) {
    std::string line, err;
    if (!read_line(spool_file(f.id, ".result.json"), line)) continue;
    if (parse_job_summary_line(line, f.done, err)) {
      f.settled = true;
      ++settled;
    } else {
      LOG_WARN << "unreadable spool result for job " << f.id << ": " << err
               << "; re-running";
    }
  }
  // Garbage-collect the oldest settled entries past the retention cap —
  // without this, every restart reloads every job the daemon ever ran, and
  // both the spool directory and startup time grow without bound.
  std::size_t drop =
      (options_.spool_retain > 0 && settled > options_.spool_retain)
          ? settled - options_.spool_retain
          : 0;

  for (Found& f : found) {
    const std::uint64_t id = f.id;
    next_id_ = std::max(next_id_, id + 1);
    if (f.settled && drop > 0) {
      --drop;
      for (const char* suffix : {".spec.json", ".ckpt", ".result.json"})
        fs::remove(spool_file(id, suffix), ec);
      continue;
    }
    auto rec = std::make_unique<JobRecord>();
    rec->id = id;
    rec->client = f.sr.client;
    rec->priority = f.sr.priority;
    rec->spec = f.sr.job;
    rec->summary.job_id = id;
    rec->summary.client = f.sr.client;

    if (f.settled) {
      // Settled before the previous daemon died: keep it queryable.
      rec->summary = std::move(f.done);
      rec->state = rec->summary.state;
      ++submitted_;
      if (rec->state == "done") ++completed_;
      else if (rec->state == "cancelled") ++cancelled_;
      else ++failed_;
      records_.emplace(id, std::move(rec));
      continue;
    }

    // Accepted but not settled: re-admit, replaying the journal
    // when one survives. `force` skips admission bounds — this job was
    // already accepted once and must not be re-rejected.
    const std::string ckpt = spool_file(id, ".ckpt");
    const bool have_ckpt = fs::exists(ckpt, ec);
    if (have_ckpt) rec->run.options.resume_from = ckpt;
    rec->summary.state = "queued";
    if (!f.sr.traceparent.empty()) {
      // Re-join the submitting client's trace: the spooled traceparent names
      // the job's root span, so spans from the resumed run stitch under the
      // same trace id. The original request-span parent did not survive the
      // restart; the job root simply has no parent in the new segment.
      telemetry::parse_traceparent(f.sr.traceparent, rec->trace_ctx);
    }
    if (telemetry::tracing_enabled() || telemetry::metrics_enabled())
      rec->enqueue_ns = telemetry::now_ns();
    queue_.push(QueuedJob{id, rec->client, rec->priority, rec->spec},
                /*force=*/true);
    if (rec->priority > 0) ++admitted_high_;
    else if (rec->priority < 0) ++admitted_low_;
    else ++admitted_normal_;
    ++submitted_;
    ++resumed_;
    LOG_INFO << "recovered spooled job " << id
             << (have_ckpt ? " (resuming from checkpoint)" : " (restarting)");
    records_.emplace(id, std::move(rec));
  }
}

void SessionManager::admit_queued_locked(std::unique_lock<std::mutex>& lock) {
  QueuedJob qj;
  while (queue_.pop(qj)) {
    auto it = records_.find(qj.id);
    if (it == records_.end()) continue;  // cancelled between push and pop
    JobRecord& rec = *it->second;
    if (rec.settled()) continue;
    auto add_job = [&] {
      return scheduler_->add_job(
          {rec.tuner.get(), rec.run.task, rec.run.hw, rec.measurer.get(), rec.run.options});
    };
    try {
      build_runtime(rec);
      if (rec.run.options.resume_from.empty()) {
        rec.sched_index = add_job();
      } else {
        // Resume replays the job's journal, re-running its planning (GBT
        // refits included), so it runs off the registry lock. The scheduler
        // is worker-thread state, and nothing else touches this record's
        // runtime fields.
        std::optional<std::string> failure;
        lock.unlock();
        try {
          GLIMPSE_SPAN("session.replay");
          rec.sched_index = add_job();
        } catch (const std::exception& e) {
          failure = e.what();
        }
        lock.lock();
        if (rec.settled()) {  // cancelled while replaying
          if (!failure) scheduler_->cancel(rec.sched_index);
          continue;
        }
        if (failure) {
          // Corrupt or diverging journal: rebuild fresh state and rerun from
          // scratch (its first append truncates the journal) — determinism
          // makes the rerun bit-identical to a resumed one.
          LOG_WARN << "job " << rec.id << ": checkpoint resume failed ("
                   << *failure << "); restarting from scratch";
          rec.run.options.resume_from.clear();
          build_runtime(rec);
          rec.sched_index = add_job();
        }
      }
    } catch (const std::exception& e) {
      finalize_locked(rec, "failed", e.what());
      continue;
    }
    rec.admitted = true;
    rec.state = "running";
    rec.summary.state = "running";
    ++rec.update_version;  // subscribers see queued -> running
    if (rec.enqueue_ns != 0) {
      rec.admit_ns = telemetry::now_ns();
      const std::uint64_t waited =
          rec.admit_ns > rec.enqueue_ns ? rec.admit_ns - rec.enqueue_ns : 0;
      if (telemetry::metrics_enabled())
        telemetry::MetricsRegistry::global()
            .histogram("stage.queue_wait_s")
            .record(static_cast<double>(waited) * 1e-9);
      if (telemetry::tracing_enabled() && rec.trace_ctx.valid()) {
        // The wait spans two threads (submit on a connection thread, admit
        // here on the worker), so it is recorded retroactively as a child
        // of the job's root span.
        telemetry::TraceContext ev = rec.trace_ctx;
        ev.span_id = telemetry::next_span_id();
        telemetry::EventArgs args;
        args.job_id = rec.id;
        telemetry::record_span_event("queue.wait", rec.enqueue_ns, waited, ev,
                                     rec.trace_ctx.span_id, args);
      }
    }
    if (rec.cancel_requested) scheduler_->cancel(rec.sched_index);
  }
}

void SessionManager::refresh_locked() {
  bool progressed = false;
  for (auto& [id, recp] : records_) {
    JobRecord& rec = *recp;
    if (rec.state != "running" || !rec.admitted) continue;
    const tuning::Trace& tr = scheduler_->trace(rec.sched_index);
    for (; rec.scan_pos < tr.trials.size(); ++rec.scan_pos) {
      const tuning::TrialRecord& t = tr.trials[rec.scan_pos];
      if (t.result.error != gpusim::MeasureError::kNone) ++rec.summary.faulted;
      if (t.result.valid && t.result.gflops > rec.summary.best_gflops) {
        rec.summary.best_gflops = t.result.gflops;
        rec.summary.best_config = t.config;
      }
    }
    if (rec.summary.trials != tr.trials.size()) {
      ++rec.update_version;  // new trials are visible progress
      progressed = true;
    }
    rec.summary.trials = tr.trials.size();
    // Quota accounting charges the client for the simulated time this
    // round added (the measurer's elapsed clock is monotone per job).
    const double prev_elapsed = rec.summary.elapsed_s;
    rec.summary.elapsed_s = rec.measurer->elapsed_seconds();
    if (options_.quota_gpu_s > 0.0 && rec.summary.elapsed_s > prev_elapsed)
      quota_spent_[rec.client] += rec.summary.elapsed_s - prev_elapsed;
    if (scheduler_->job_done(rec.sched_index)) {
      finalize_locked(rec,
                      scheduler_->job_cancelled(rec.sched_index) ? "cancelled"
                                                                 : "done",
                      "");
    }
  }
  if (progressed) settled_cv_.notify_all();  // wake subscribe() streams
}

void SessionManager::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    admit_queued_locked(lock);
    for (auto& [id, rec] : records_)
      if (rec->state == "running" && rec->admitted && rec->cancel_requested)
        scheduler_->cancel(rec->sched_index);
    if (scheduler_->idle() && queue_.empty()) {
      worker_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      continue;
    }
    lock.unlock();
    bool threw = false;
    std::string what;
    try {
      // The round runs outside the lock: proposals and measurements fan out
      // across the thread pool and can take a while; status()/submit() must
      // not stall.
      scheduler_->step_round();
    } catch (const std::exception& e) {
      threw = true;
      what = e.what();
    }
    // Pull peer shards' fresh cache entries between rounds (no-op without
    // a shared tier). Outside the lock: it reads tier files from disk.
    if (cache_) cache_->sync_peers();
    lock.lock();
    if (threw) {
      LOG_ERROR << "scheduler round failed: " << what;
      for (auto& [id, rec] : records_)
        if (rec->state == "running")
          finalize_locked(*rec, "failed", "scheduler round failed: " + what);
      // The failed jobs are still live inside the scheduler (finish() never
      // ran for them), so idle() would stay false and this loop would spin
      // re-running the failing round forever on a persistent error (e.g. a
      // full disk during checkpointing). Replace the scheduler outright:
      // queued jobs are re-admitted into the fresh one next iteration.
      scheduler_ = std::make_unique<tuning::Scheduler>(
          tuning::SchedulerOptions{options_.slots});
      continue;
    }
    refresh_locked();
  }
}

}  // namespace glimpse::service
