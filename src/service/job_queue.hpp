// Admission-controlled job queue for the glimpsed daemon.
//
// Ordering: strictly by priority (higher first); within one priority level,
// round-robin across clients (each client keeps a FIFO of its own jobs, and
// the level serves clients in rotation) so one chatty client cannot starve
// the fleet. The whole order is deterministic in the submission sequence —
// no timestamps, no pointer ordering — which is what makes the daemon's
// end-to-end tests reproducible.
//
// Admission control: the queue is bounded. Pushing into a full queue (or
// past the per-client cap) is rejected with a suggested retry-after, never
// blocked — backpressure belongs at the edge, not inside the daemon. A
// `force` push bypasses the bounds for jobs that were already accepted once
// (spool recovery after a crash must never re-reject them).
//
// Thread-safe: connection threads push/erase concurrently with the
// scheduler thread popping.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace glimpse::service {

struct QueuedJob {
  std::uint64_t id = 0;
  std::string client;
  std::int64_t priority = 0;
  JobSpec spec;
};

struct JobQueueOptions {
  /// Total queued jobs across all clients and priorities. >= 1.
  std::size_t max_depth = 64;
  /// Queued jobs per client; 0 = no per-client cap.
  std::size_t max_per_client = 0;
  /// Suggested client backoff when saturated (wall-clock seconds).
  double retry_after_s = 2.0;
};

struct Admission {
  bool accepted = false;
  std::string reason;          ///< "saturated" | "client_saturated"
  double retry_after_s = 0.0;  ///< backoff hint when rejected
};

class JobQueue {
 public:
  explicit JobQueue(JobQueueOptions options = {});

  /// Admission-checked push. `force` skips the depth checks (spool
  /// recovery) but keeps ordering semantics.
  Admission push(QueuedJob job, bool force = false);

  /// Pop the next job per the ordering above. False when empty.
  bool pop(QueuedJob& out);

  /// Remove a queued job by id (cancel-before-run). False when not queued.
  bool erase(std::uint64_t id);

  std::size_t depth() const;
  bool empty() const { return depth() == 0; }

 private:
  /// One priority level: per-client FIFOs served round-robin. `rotation`
  /// lists clients in service order; the front client serves one job, then
  /// moves to the back (when it still has queued jobs).
  struct Level {
    std::map<std::string, std::deque<QueuedJob>> per_client;
    std::deque<std::string> rotation;
  };

  JobQueueOptions options_;
  mutable std::mutex mu_;
  // Key = -priority so begin() is the highest priority level.
  std::map<std::int64_t, Level> levels_;
  std::size_t depth_ = 0;
  std::map<std::string, std::size_t> client_depth_;
};

}  // namespace glimpse::service
