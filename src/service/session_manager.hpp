// SessionManager: the glimpsed daemon's brain. Owns the job registry, the
// admission-controlled JobQueue, one scheduler thread driving the shared
// tuning/scheduler slot pool, the cross-job ResultCache, and the crash-safe
// spool.
//
// Threading model: connection threads call submit/status/result/cancel/
// stats/drain concurrently; all registry state lives behind one mutex. The
// scheduler itself (tuning/scheduler.hpp, NOT thread-safe) is touched only
// by the worker thread, which admits queued jobs between rounds, runs each
// round outside the lock, then refreshes every running job's JobSummary
// under the lock — so status() never races the scheduler. A resumed job's
// admission also runs outside the lock: it replays the job's journal, which
// re-runs the job's planning.
//
// Crash safety: with a spool directory configured, every accepted job is
// persisted as `job-<id>.spec.json` before the client sees "accepted", the
// running session appends each batch to its journal `job-<id>.ckpt`, and
// the settled summary lands in `job-<id>.result.json`. A restarted daemon
// re-admits every spec without a result — replaying the journal when one
// exists, and rerunning from scratch when the replay fails — so an
// accepted job survives SIGKILL and completes with the bit-identical trace
// an uninterrupted run would have produced (the determinism contract of
// tuning/checkpoint.hpp).
//
// Tuner registry: "random", "autotvm", "chameleon" — the strategies that
// need no offline pretraining. "glimpse" and "dgp" require
// pretrained artifacts the daemon does not hold; submitting them is
// rejected at the door, not failed mid-run.
#pragma once

#include <cstdint>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "service/job_queue.hpp"
#include "service/protocol.hpp"
#include "service/request_handler.hpp"
#include "tuning/session.hpp"

namespace glimpse::tuning {
class ConfigPredictor;
class ResultCache;
class Scheduler;
class WarmStartAdvisor;
}

namespace glimpse::service {

/// What a JobSpec runs, apart from its tuner; `options` carry no cache,
/// journal or trace.
struct JobRun {
  const searchspace::Task* task = nullptr;
  const hwspec::GpuSpec* hw = nullptr;
  tuning::SessionOptions options;
};

/// The one mapping from a JobSpec to its task, GPU and session options, for
/// the daemon and the tests. Throws std::invalid_argument on an unknown model
/// or GPU, or a task index out of range.
JobRun resolve_job(const JobSpec& spec);

/// The tuners a daemon builds: random, autotvm and chameleon. Throws
/// std::invalid_argument on any other name.
tuning::TunerFactory daemon_tuner(const std::string& name);

struct SessionManagerOptions {
  /// Concurrent measurer slots in the shared scheduler pool. >= 1.
  std::size_t slots = 4;
  JobQueueOptions queue;
  /// Crash-safe spool directory (specs, checkpoints, results). Empty
  /// disables persistence: jobs die with the daemon.
  std::string spool_dir;
  /// Shared result cache: "" off, "mem" memory-only, else a disk path.
  std::string cache;
  /// Fleet shared cache tier: a directory of replicated per-shard JSONL
  /// tiers (`tier-<shard>.jsonl`). Non-empty overrides `cache`: this
  /// daemon appends its own tier there and periodically merges every
  /// peer's tier, so a cache hit on any shard eventually serves all
  /// shards. See tuning::ResultCacheOptions::shared_dir.
  std::string cache_shared_dir;
  /// This daemon's name inside the shared tier (file stem and peer
  /// identity). Required when cache_shared_dir is set.
  std::string shard_name;
  /// Per-client simulated-GPU-seconds quota (protocol v3). A client whose
  /// completed measurements have consumed at least this much simulated
  /// time has further submissions rejected ("quota_exhausted"). 0 means
  /// unlimited. Spent time is tracked for this daemon's lifetime.
  double quota_gpu_s = 0.0;
  /// Warm-start advisor (tuning/warmstart.hpp): before an autotvm/chameleon
  /// job's first proposal, mine the shared cache tiers for same-task donor
  /// entries, weight them by Blueprint distance, and seed the tuner with the
  /// top-k. Off by default — cold start is byte-for-byte the pre-warmstart
  /// behaviour. Clients can opt a single job out (JobSpec::warmstart).
  bool warmstart = false;
  /// Optional learned ConfigPredictor file (train with glimpse_warmstart)
  /// blended into the advisor's donor scores and used for predictor-only
  /// seeding when the tiers hold no donor. An unreadable or unfitted file
  /// logs a warning and is ignored — it never takes the daemon down.
  std::string warmstart_predictor;
  /// Settled jobs kept in the spool across restarts. recover_spool()
  /// garbage-collects all but the newest `spool_retain` settled entries
  /// (their spec/result files are deleted and they are not reloaded), so
  /// the spool directory, the in-memory registry, and startup time stay
  /// bounded across long restart sequences. 0 means keep everything.
  std::size_t spool_retain = 256;
};

/// All client-facing methods speak protocol Responses so the server layer
/// only frames and encodes.
class SessionManager : public RequestHandler {
 public:
  explicit SessionManager(SessionManagerOptions options = {});
  ~SessionManager() override;

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// RequestHandler: dispatch one parsed request (the Server handles ping
  /// and shutdown itself). kSubscribe streams interim kStatus responses
  /// through `emit` until the job settles with a final kResult.
  bool handle(const Request& req, const Emit& emit) override;

  /// Validate + admit one job. kAccepted with the job id, or kRejected
  /// ("saturated" / "client_saturated" / "draining", with a retry hint),
  /// or kError for specs naming unknown tuners/models/GPUs/tasks.
  Response submit(const std::string& client, std::int64_t priority,
                  const JobSpec& spec);

  /// kStatus with the job's current summary; kError for unknown ids.
  Response status(std::uint64_t job_id) const;

  /// kResult with the final summary once the job settled. Unsettled:
  /// blocks until settled when `wait`, else returns kStatus (poll again).
  Response result(std::uint64_t job_id, bool wait);

  /// Cancel a queued or running job (kOk; idempotent on settled jobs).
  Response cancel(std::uint64_t job_id);

  /// v3 push streaming: emit the job's current summary immediately, then
  /// one kStatus per visible progress change, then the final kResult (or
  /// kError on unknown ids / daemon stop). Returns the keep-open decision
  /// (false only when `emit` reported the connection gone).
  bool subscribe(std::uint64_t job_id, const Emit& emit);

  Response stats() const;

  /// Stop admitting new jobs and block until every accepted job settles.
  Response drain();
  bool draining() const;

  /// Stop the worker promptly (running jobs stay checkpointed in the spool
  /// for the next daemon). Idempotent; the destructor calls it.
  void stop() override;

  /// Jobs re-admitted from the spool by this process at startup.
  std::uint64_t recovered() const;

 private:
  struct JobRecord;

  void recover_spool();
  void worker_loop();
  /// Pop every queued job into the scheduler. Caller holds mu_ through
  /// `lock`, which is released while a resumed job replays its journal.
  void admit_queued_locked(std::unique_lock<std::mutex>& lock);
  /// Sync running summaries from the scheduler; finalize settled jobs.
  /// Caller holds mu_.
  void refresh_locked();
  void finalize_locked(JobRecord& rec, std::string state, std::string error);
  void persist_spec(const JobRecord& rec);
  /// Spool the settled summary. False when the write failed (the job's
  /// checkpoint must then survive so a restart can still recover it).
  bool persist_result(const JobRecord& rec);
  std::string spool_file(std::uint64_t id, const char* suffix) const;
  /// Builds tuner + measurer + session options into `rec`; throws on bad
  /// specs (validated at submit, so only resume-time surprises remain).
  void build_runtime(JobRecord& rec);

  SessionManagerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable worker_cv_;   ///< wake the scheduler thread
  std::condition_variable settled_cv_;  ///< wake result(wait=true) callers
  bool stop_ = false;
  bool draining_ = false;

  JobQueue queue_;
  std::map<std::uint64_t, std::unique_ptr<JobRecord>> records_;
  std::uint64_t next_id_ = 1;

  // Counters (guarded by mu_).
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t quota_rejections_ = 0;
  std::uint64_t resumed_ = 0;
  /// Simulated GPU seconds consumed per client (quota accounting).
  std::map<std::string, double> quota_spent_;
  // Per-priority-class admissions (jobs that entered the queue, including
  // spool re-admissions): priority > 0, == 0, < 0.
  std::uint64_t admitted_high_ = 0;
  std::uint64_t admitted_normal_ = 0;
  std::uint64_t admitted_low_ = 0;

  // Worker-thread-only state (see threading model above).
  std::unique_ptr<tuning::Scheduler> scheduler_;

  std::unique_ptr<tuning::ResultCache> cache_;
  std::unique_ptr<tuning::ConfigPredictor> predictor_;
  std::unique_ptr<tuning::WarmStartAdvisor> advisor_;

  std::thread worker_;
};

}  // namespace glimpse::service
