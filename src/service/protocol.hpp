// glimpsed wire protocol: line-delimited JSON over a byte stream.
//
// Every message is one JSON object on one line (LF-terminated; no embedded
// newlines — JsonWriter escapes control characters). Requests and responses
// carry a version field `"v"`; a daemon accepts any version in
// [kMinProtocolVersion, kProtocolVersion] and refuses versions it does not
// speak rather than guessing. Version 2 added an optional "traceparent"
// member (W3C trace context, common/telemetry/trace_context.hpp) to every
// request and response; v1 messages simply omit it, and peers that do not
// trace ignore it. Version 3 added (all optional, so v1/v2 still parse):
// an "auth" member on every request (shared-secret token, required by
// daemons serving non-loopback TCP), the "subscribe" request type (the
// server pushes a stream of "status" responses for the job on the same
// connection, terminated by a final "result" — push streaming instead of
// poll loops), and the "quota_rejections" stats counter (submissions
// refused because the client exhausted its simulated-GPU-seconds quota).
// Lines are read by the shared strict reader (common/json_reader.hpp:
// grammar, duplicate keys, caps including the json::kMaxLineBytes line
// cap); on top of it unknown keys are rejected and every numeric field is
// range-checked — a garbled or hostile line yields a parse error message,
// never UB or a half-filled message. Encoding goes through the shared
// JsonWriter, so framing and escaping match every other machine-readable
// artifact in the repo.
//
// Requests (canonical encodings; the parser is key-order-insensitive):
//   {"v":1,"type":"ping"}
//   {"v":1,"type":"submit","client":"c1","priority":0,"job":{
//      "tuner":"random","model":"resnet18","task":1,"gpu":"Titan Xp",
//      "seed":7,"max_trials":64,"batch_size":8,"plateau":0,
//      "time_budget_s":0}}
//   {"v":1,"type":"status","job_id":3}
//   {"v":1,"type":"result","job_id":3,"wait":true}
//   {"v":1,"type":"cancel","job_id":3}
//   {"v":3,"type":"subscribe","job_id":3}
//   {"v":1,"type":"stats"}
//   {"v":1,"type":"drain"}
//   {"v":1,"type":"shutdown"}
//
// Optional members appended to any request in canonical order:
//   ...,"auth":"<token>","traceparent":"00-..."}
//
// Responses:
//   {"v":1,"type":"pong"} / {"v":1,"type":"ok"}
//   {"v":1,"type":"accepted","job_id":3}
//   {"v":1,"type":"rejected","reason":"saturated","retry_after_s":2}
//   {"v":1,"type":"status","job":{...}}   (also "result")
//   {"v":1,"type":"stats","stats":{...}}
//   {"v":1,"type":"error","reason":"..."}
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace glimpse::service {

inline constexpr int kProtocolVersion = 3;
/// Oldest version still accepted (v1 = the pre-tracing wire format).
inline constexpr int kMinProtocolVersion = 1;

/// What to tune: everything the daemon needs to build a (tuner, task,
/// hardware, measurer) job. Models and GPUs are referenced by their
/// database names, tuners by registry name (service/session_manager.hpp).
struct JobSpec {
  std::string tuner = "random";
  std::string model = "resnet18";
  std::uint64_t task_index = 0;  ///< index into the model's TaskSet
  std::string gpu = "Titan Xp";
  std::uint64_t seed = 1;
  std::uint64_t max_trials = 64;
  std::uint64_t batch_size = 8;
  std::uint64_t plateau_trials = 0;  ///< 0 disables plateau stopping
  double time_budget_s = 0.0;        ///< simulated seconds; 0 = unlimited
  /// Let the daemon seed this job from its warm-start advisor (ignored by
  /// daemons started without --warmstart). Default true; encoded on the
  /// wire only when false, so every pre-warmstart message still parses and
  /// old daemons never see the key.
  bool warmstart = true;

  friend bool operator==(const JobSpec&, const JobSpec&) = default;
};

enum class RequestType {
  kPing,
  kSubmit,
  kStatus,
  kResult,
  kCancel,
  kSubscribe,  ///< v3: push-stream status updates until the job settles
  kStats,
  kDrain,
  kShutdown,
};
std::string_view to_string(RequestType t);

struct Request {
  int version = kProtocolVersion;
  RequestType type = RequestType::kPing;
  std::string client;         ///< submit: non-empty client identity
  std::int64_t priority = 0;  ///< submit: higher runs first, in [-100, 100]
  JobSpec job;                ///< submit
  std::uint64_t job_id = 0;   ///< status / result / cancel / subscribe
  bool wait = false;          ///< result: block until the job settles
  /// Optional shared-secret token (v3). A daemon started with an auth
  /// token refuses every request that does not carry the matching value;
  /// empty = unauthenticated (omitted on the wire).
  std::string auth;
  /// Optional W3C traceparent ("00-…") propagating the client's trace
  /// context into the daemon; empty = not traced (omitted on the wire).
  std::string traceparent;

  friend bool operator==(const Request&, const Request&) = default;
};

/// One job's externally visible lifecycle record.
struct JobSummary {
  std::uint64_t job_id = 0;
  std::string client;
  std::string state;  ///< queued | running | done | cancelled | failed
  std::uint64_t trials = 0;
  std::uint64_t faulted = 0;
  double best_gflops = 0.0;
  std::vector<std::uint32_t> best_config;  ///< empty until something valid
  double elapsed_s = 0.0;                  ///< simulated GPU seconds consumed
  std::string error;                       ///< failed jobs: what went wrong

  friend bool operator==(const JobSummary&, const JobSummary&) = default;
};

/// Daemon-wide counters, served to any client asking for "stats".
struct ServiceStats {
  std::uint64_t queue_depth = 0;
  std::uint64_t running = 0;
  /// Jobs accepted but not yet settled (queued + running).
  std::uint64_t jobs_inflight = 0;
  /// Admissions by priority class (priority > 0 / == 0 / < 0).
  std::uint64_t admitted_prio_high = 0;
  std::uint64_t admitted_prio_normal = 0;
  std::uint64_t admitted_prio_low = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  /// v3: submissions refused because the client's simulated-GPU-seconds
  /// quota was exhausted (a subset of `rejected`).
  std::uint64_t quota_rejections = 0;
  std::uint64_t resumed = 0;  ///< jobs recovered from the spool on restart
  std::uint64_t slots = 0;
  bool cache_enabled = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t shared_hits = 0;  ///< cross-job in-round config sharing
  bool draining = false;

  friend bool operator==(const ServiceStats&, const ServiceStats&) = default;
};
/// Fleet-wide aggregation of one shard's stats into `total`: counters sum,
/// flags OR, over the same field table the wire encoding uses.
void accumulate_stats(ServiceStats& total, const ServiceStats& s);

enum class ResponseType {
  kPong,
  kAccepted,
  kRejected,
  kStatus,
  kResult,
  kStats,
  kOk,
  kError,
};
std::string_view to_string(ResponseType t);

struct Response {
  int version = kProtocolVersion;
  ResponseType type = ResponseType::kError;
  std::uint64_t job_id = 0;    ///< accepted
  std::string reason;          ///< rejected / error
  double retry_after_s = 0.0;  ///< rejected: back off this long (wall s)
  JobSummary summary;          ///< status / result
  ServiceStats stats;          ///< stats
  /// Echo of the request's traceparent (empty = untraced request).
  std::string traceparent;

  friend bool operator==(const Response&, const Response&) = default;
};

/// Compact single-line encodings (no trailing newline; the transport adds
/// it). Canonical key order as documented above.
std::string encode_request(const Request& r);
std::string encode_response(const Response& r);

/// Strict one-line parse. Returns false and fills `error` (a short
/// human-readable reason) on any deviation; `out` is untouched on failure.
bool parse_request(std::string_view line, Request& out, std::string& error);
bool parse_response(std::string_view line, Response& out, std::string& error);

/// Convenience: an error response with kProtocolVersion and `reason`.
Response error_response(std::string reason);

/// Spool persistence record for one accepted job (daemon-internal; written
/// at accept time, re-read on daemon restart to recover in-flight work).
/// Same strict parse discipline as the wire messages.
struct SpoolRecord {
  std::uint64_t id = 0;
  std::string client;
  std::int64_t priority = 0;
  JobSpec job;
  /// Trace identity of the accepted job, so a job recovered after a daemon
  /// restart stays stitched to the trace that submitted it. Optional.
  std::string traceparent;

  friend bool operator==(const SpoolRecord&, const SpoolRecord&) = default;
};
std::string encode_spool_record(const SpoolRecord& r);
bool parse_spool_record(std::string_view line, SpoolRecord& out, std::string& error);

/// Settled-job summary persistence (the spool's result file).
std::string encode_job_summary(const JobSummary& s);
bool parse_job_summary_line(std::string_view line, JobSummary& out,
                            std::string& error);

}  // namespace glimpse::service
