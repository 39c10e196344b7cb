#include "service/protocol.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "common/telemetry/trace_context.hpp"

namespace glimpse::service {

namespace {

using json::check_keys;
using json::find;
using json::get_bool;
using json::get_i64;
using json::get_nonneg_double;
using json::get_string;
using json::get_u64;
using json::Kind;
using json::Node;
using json::reject;

bool get_version(const Node& obj, int& out, std::string& error) {
  std::uint64_t v = 0;
  if (!get_u64(obj, "v", v, 0, 1u << 20, error)) return false;
  if (v < static_cast<std::uint64_t>(kMinProtocolVersion) ||
      v > static_cast<std::uint64_t>(kProtocolVersion))
    return reject(error, "unsupported protocol version");
  out = static_cast<int>(v);
  return true;
}

/// Optional "auth" member (v3): absent is fine (unauthenticated peers);
/// when present it must be a non-empty token of sane length.
bool get_auth(const Node& obj, std::string& out, std::string& error) {
  return !find(obj, "auth") || get_string(obj, "auth", out, 256, false, error);
}

/// Optional "traceparent" member: absent is fine (v1 peers, untraced
/// requests); when present it must be a well-formed W3C traceparent.
bool get_traceparent(const Node& obj, std::string& out, std::string& error) {
  if (!find(obj, "traceparent")) return true;
  std::string tp;
  if (!get_string(obj, "traceparent", tp, json::kMaxStringLen, true, error)) return false;
  telemetry::TraceContext ctx;
  if (!telemetry::parse_traceparent(tp, ctx))
    return reject(error, "malformed traceparent");
  out = std::move(tp);
  return true;
}

/// The "job" member of `parent`.
bool parse_job_spec(const Node& parent, JobSpec& out, std::string& error) {
  const Node* job = find(parent, "job");
  if (!job) return reject(error, "missing key 'job'");
  if (job->kind != Kind::kObject) return reject(error, "'job' must be an object");
  const Node& obj = *job;
  if (!check_keys(obj,
                  {"tuner", "model", "task", "gpu", "seed", "max_trials",
                   "batch_size", "plateau", "time_budget_s", "warmstart"},
                  error))
    return false;
  JobSpec spec;
  if (!get_string(obj, "tuner", spec.tuner, 64, false, error)) return false;
  if (!get_string(obj, "model", spec.model, 64, false, error)) return false;
  if (!get_u64(obj, "task", spec.task_index, 0, 10000, error)) return false;
  if (!get_string(obj, "gpu", spec.gpu, 128, false, error)) return false;
  if (!get_u64(obj, "seed", spec.seed, 0, UINT64_MAX, error)) return false;
  if (!get_u64(obj, "max_trials", spec.max_trials, 1, 1000000, error)) return false;
  if (!get_u64(obj, "batch_size", spec.batch_size, 1, 4096, error)) return false;
  if (!get_u64(obj, "plateau", spec.plateau_trials, 0, 1000000, error)) return false;
  if (!get_nonneg_double(obj, "time_budget_s", spec.time_budget_s, error))
    return false;
  if (!get_bool(obj, "warmstart", spec.warmstart, error, false)) return false;
  out = std::move(spec);
  return true;
}

void write_job_spec(JsonWriter& w, const JobSpec& spec) {
  w.begin_object();
  w.kv("tuner", spec.tuner);
  w.kv("model", spec.model);
  w.kv("task", spec.task_index);
  w.kv("gpu", spec.gpu);
  w.kv("seed", spec.seed);
  w.kv("max_trials", spec.max_trials);
  w.kv("batch_size", spec.batch_size);
  w.kv("plateau", spec.plateau_trials);
  w.kv("time_budget_s", spec.time_budget_s);
  // Omitted when true (the default) so old peers never see the key.
  if (!spec.warmstart) w.kv("warmstart", spec.warmstart);
  w.end_object();
}

bool parse_job_summary(const Node& obj, JobSummary& out, std::string& error) {
  if (obj.kind != Kind::kObject) return reject(error, "'job' must be an object");
  if (!check_keys(obj,
                  {"job_id", "client", "state", "trials", "faulted",
                   "best_gflops", "best_config", "elapsed_s", "error"},
                  error))
    return false;
  JobSummary s;
  if (!get_u64(obj, "job_id", s.job_id, 0, UINT64_MAX, error)) return false;
  if (!get_string(obj, "client", s.client, 256, true, error)) return false;
  if (!get_string(obj, "state", s.state, 16, false, error)) return false;
  if (s.state != "queued" && s.state != "running" && s.state != "done" &&
      s.state != "cancelled" && s.state != "failed")
    return reject(error, "unknown job state '" + s.state + "'");
  if (!get_u64(obj, "trials", s.trials, 0, UINT64_MAX, error)) return false;
  if (!get_u64(obj, "faulted", s.faulted, 0, UINT64_MAX, error)) return false;
  if (!get_nonneg_double(obj, "best_gflops", s.best_gflops, error)) return false;
  const Node* cfg = find(obj, "best_config");
  if (!cfg || cfg->kind != Kind::kArray)
    return reject(error, "'best_config' must be an array");
  for (const Node& e : cfg->children()) {
    if (e.kind != Kind::kInt || e.i < 0 || e.i > 0xffffffffLL)
      return reject(error, "'best_config' entries must be uint32");
    s.best_config.push_back(static_cast<std::uint32_t>(e.i));
  }
  if (!get_nonneg_double(obj, "elapsed_s", s.elapsed_s, error)) return false;
  if (!get_string(obj, "error", s.error, 1024, true, error)) return false;
  out = std::move(s);
  return true;
}

void write_job_summary(JsonWriter& w, const JobSummary& s) {
  w.begin_object();
  w.kv("job_id", s.job_id);
  w.kv("client", s.client);
  w.kv("state", s.state);
  w.kv("trials", s.trials);
  w.kv("faulted", s.faulted);
  w.kv("best_gflops", s.best_gflops);
  w.key("best_config");
  w.begin_array();
  for (std::uint32_t v : s.best_config) w.value(static_cast<std::uint64_t>(v));
  w.end_array();
  w.kv("elapsed_s", s.elapsed_s);
  w.kv("error", s.error);
  w.end_object();
}

/// The "stats" members in wire order: a counter or, for the two flags, a
/// bool. The v2 and v3 additions are optional so older payloads parse.
struct StatsField {
  std::string_view key;
  std::uint64_t ServiceStats::*counter;
  bool ServiceStats::*flag;
  bool required;
};
constexpr StatsField kStatsFields[] = {
    {"queue_depth", &ServiceStats::queue_depth, nullptr, true},
    {"running", &ServiceStats::running, nullptr, true},
    {"jobs_inflight", &ServiceStats::jobs_inflight, nullptr, false},              // v2
    {"admitted_prio_high", &ServiceStats::admitted_prio_high, nullptr, false},    // v2
    {"admitted_prio_normal", &ServiceStats::admitted_prio_normal, nullptr, false},  // v2
    {"admitted_prio_low", &ServiceStats::admitted_prio_low, nullptr, false},      // v2
    {"submitted", &ServiceStats::submitted, nullptr, true},
    {"completed", &ServiceStats::completed, nullptr, true},
    {"cancelled", &ServiceStats::cancelled, nullptr, true},
    {"failed", &ServiceStats::failed, nullptr, true},
    {"rejected", &ServiceStats::rejected, nullptr, true},
    {"quota_rejections", &ServiceStats::quota_rejections, nullptr, false},  // v3
    {"resumed", &ServiceStats::resumed, nullptr, true},
    {"slots", &ServiceStats::slots, nullptr, true},
    {"cache_enabled", nullptr, &ServiceStats::cache_enabled, true},
    {"cache_hits", &ServiceStats::cache_hits, nullptr, true},
    {"cache_inserts", &ServiceStats::cache_inserts, nullptr, true},
    {"shared_hits", &ServiceStats::shared_hits, nullptr, true},
    {"draining", nullptr, &ServiceStats::draining, true},
};

bool parse_stats(const Node& obj, ServiceStats& out, std::string& error) {
  if (obj.kind != Kind::kObject) return reject(error, "'stats' must be an object");
  for (const Node& m : obj.children())
    if (std::none_of(std::begin(kStatsFields), std::end(kStatsFields),
                     [&](const StatsField& f) { return f.key == m.key; }))
      return reject(error, "unknown key '" + std::string(m.key) + "'");
  ServiceStats s;
  for (const StatsField& f : kStatsFields)
    if (f.counter ? !get_u64(obj, f.key, s.*f.counter, 0, UINT64_MAX, error, f.required)
                  : !get_bool(obj, f.key, s.*f.flag, error))
      return false;
  out = s;
  return true;
}

void write_stats(JsonWriter& w, const ServiceStats& s) {
  w.begin_object();
  for (const StatsField& f : kStatsFields) {
    if (f.counter)
      w.kv(f.key, s.*f.counter);
    else
      w.kv(f.key, s.*f.flag);
  }
  w.end_object();
}

}  // namespace

void accumulate_stats(ServiceStats& total, const ServiceStats& s) {
  for (const StatsField& f : kStatsFields) {
    if (f.counter)
      total.*f.counter += s.*f.counter;
    else
      total.*f.flag = total.*f.flag || s.*f.flag;
  }
}

std::string_view to_string(RequestType t) {
  switch (t) {
    case RequestType::kPing: return "ping";
    case RequestType::kSubmit: return "submit";
    case RequestType::kStatus: return "status";
    case RequestType::kResult: return "result";
    case RequestType::kCancel: return "cancel";
    case RequestType::kSubscribe: return "subscribe";
    case RequestType::kStats: return "stats";
    case RequestType::kDrain: return "drain";
    case RequestType::kShutdown: return "shutdown";
  }
  return "?";
}

std::string_view to_string(ResponseType t) {
  switch (t) {
    case ResponseType::kPong: return "pong";
    case ResponseType::kAccepted: return "accepted";
    case ResponseType::kRejected: return "rejected";
    case ResponseType::kStatus: return "status";
    case ResponseType::kResult: return "result";
    case ResponseType::kStats: return "stats";
    case ResponseType::kOk: return "ok";
    case ResponseType::kError: return "error";
  }
  return "?";
}

std::string encode_request(const Request& r) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.kv("v", static_cast<std::int64_t>(r.version));
    w.kv("type", to_string(r.type));
    switch (r.type) {
      case RequestType::kSubmit:
        w.kv("client", r.client);
        w.kv("priority", r.priority);
        w.key("job");
        write_job_spec(w, r.job);
        break;
      case RequestType::kStatus:
      case RequestType::kCancel:
      case RequestType::kSubscribe:
        w.kv("job_id", r.job_id);
        break;
      case RequestType::kResult:
        w.kv("job_id", r.job_id);
        w.kv("wait", r.wait);
        break;
      default: break;  // ping / stats / drain / shutdown carry no payload
    }
    if (!r.auth.empty()) w.kv("auth", r.auth);
    if (!r.traceparent.empty()) w.kv("traceparent", r.traceparent);
    w.end_object();
  }
  return os.str();
}

std::string encode_response(const Response& r) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.kv("v", static_cast<std::int64_t>(r.version));
    w.kv("type", to_string(r.type));
    switch (r.type) {
      case ResponseType::kAccepted: w.kv("job_id", r.job_id); break;
      case ResponseType::kRejected:
        w.kv("reason", r.reason);
        w.kv("retry_after_s", r.retry_after_s);
        break;
      case ResponseType::kStatus:
      case ResponseType::kResult:
        w.key("job");
        write_job_summary(w, r.summary);
        break;
      case ResponseType::kStats:
        w.key("stats");
        write_stats(w, r.stats);
        break;
      case ResponseType::kError: w.kv("reason", r.reason); break;
      default: break;  // pong / ok carry no payload
    }
    if (!r.traceparent.empty()) w.kv("traceparent", r.traceparent);
    w.end_object();
  }
  return os.str();
}

bool parse_request(std::string_view line, Request& out, std::string& error) {
  json::Document doc;
  if (!doc.parse(line, error)) return false;
  const Node& root = doc.root();
  if (root.kind != Kind::kObject) return reject(error, "request must be a JSON object");
  Request r;
  if (!get_version(root, r.version, error)) return false;
  if (!get_auth(root, r.auth, error)) return false;
  if (!get_traceparent(root, r.traceparent, error)) return false;
  std::string type;
  if (!get_string(root, "type", type, 16, false, error)) return false;
  if (type == "ping" || type == "stats" || type == "drain" || type == "shutdown") {
    if (!check_keys(root, {"v", "type", "auth", "traceparent"}, error))
      return false;
    r.type = type == "ping"    ? RequestType::kPing
             : type == "stats" ? RequestType::kStats
             : type == "drain" ? RequestType::kDrain
                               : RequestType::kShutdown;
  } else if (type == "submit") {
    if (!check_keys(root,
                    {"v", "type", "client", "priority", "job", "auth",
                     "traceparent"},
                    error))
      return false;
    r.type = RequestType::kSubmit;
    if (!get_string(root, "client", r.client, 256, false, error)) return false;
    if (!get_i64(root, "priority", r.priority, -100, 100, error)) return false;
    if (!parse_job_spec(root, r.job, error)) return false;
  } else if (type == "status" || type == "cancel" || type == "subscribe") {
    if (!check_keys(root, {"v", "type", "job_id", "auth", "traceparent"}, error))
      return false;
    r.type = type == "status"   ? RequestType::kStatus
             : type == "cancel" ? RequestType::kCancel
                                : RequestType::kSubscribe;
    if (r.type == RequestType::kSubscribe && r.version < 3)
      return reject(error, "'subscribe' requires protocol v3");
    if (!get_u64(root, "job_id", r.job_id, 0, UINT64_MAX, error)) return false;
  } else if (type == "result") {
    if (!check_keys(root, {"v", "type", "job_id", "wait", "auth", "traceparent"},
                    error))
      return false;
    r.type = RequestType::kResult;
    if (!get_u64(root, "job_id", r.job_id, 0, UINT64_MAX, error)) return false;
    if (!get_bool(root, "wait", r.wait, error, /*required=*/false)) return false;
  } else {
    return reject(error, "unknown request type '" + type + "'");
  }
  out = std::move(r);
  return true;
}

bool parse_response(std::string_view line, Response& out, std::string& error) {
  json::Document doc;
  if (!doc.parse(line, error)) return false;
  const Node& root = doc.root();
  if (root.kind != Kind::kObject) return reject(error, "response must be a JSON object");
  Response r;
  if (!get_version(root, r.version, error)) return false;
  if (!get_traceparent(root, r.traceparent, error)) return false;
  std::string type;
  if (!get_string(root, "type", type, 16, false, error)) return false;
  if (type == "pong" || type == "ok") {
    if (!check_keys(root, {"v", "type", "traceparent"}, error)) return false;
    r.type = type == "pong" ? ResponseType::kPong : ResponseType::kOk;
  } else if (type == "accepted") {
    if (!check_keys(root, {"v", "type", "job_id", "traceparent"}, error))
      return false;
    r.type = ResponseType::kAccepted;
    if (!get_u64(root, "job_id", r.job_id, 0, UINT64_MAX, error)) return false;
  } else if (type == "rejected") {
    if (!check_keys(root, {"v", "type", "reason", "retry_after_s", "traceparent"},
                    error))
      return false;
    r.type = ResponseType::kRejected;
    if (!get_string(root, "reason", r.reason, 1024, false, error)) return false;
    if (!get_nonneg_double(root, "retry_after_s", r.retry_after_s, error))
      return false;
  } else if (type == "status" || type == "result") {
    if (!check_keys(root, {"v", "type", "job", "traceparent"}, error))
      return false;
    r.type = type == "status" ? ResponseType::kStatus : ResponseType::kResult;
    const Node* job = find(root, "job");
    if (!job) return reject(error, "missing key 'job'");
    if (!parse_job_summary(*job, r.summary, error)) return false;
  } else if (type == "stats") {
    if (!check_keys(root, {"v", "type", "stats", "traceparent"}, error))
      return false;
    r.type = ResponseType::kStats;
    const Node* st = find(root, "stats");
    if (!st) return reject(error, "missing key 'stats'");
    if (!parse_stats(*st, r.stats, error)) return false;
  } else if (type == "error") {
    if (!check_keys(root, {"v", "type", "reason", "traceparent"}, error))
      return false;
    r.type = ResponseType::kError;
    if (!get_string(root, "reason", r.reason, 1024, true, error)) return false;
  } else {
    return reject(error, "unknown response type '" + type + "'");
  }
  out = std::move(r);
  return true;
}

Response error_response(std::string reason) {
  Response r;
  r.type = ResponseType::kError;
  r.reason = std::move(reason);
  return r;
}

std::string encode_spool_record(const SpoolRecord& r) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.kv("v", static_cast<std::int64_t>(kProtocolVersion));
    w.kv("id", r.id);
    w.kv("client", r.client);
    w.kv("priority", r.priority);
    w.key("job");
    write_job_spec(w, r.job);
    if (!r.traceparent.empty()) w.kv("traceparent", r.traceparent);
    w.end_object();
  }
  return os.str();
}

bool parse_spool_record(std::string_view line, SpoolRecord& out, std::string& error) {
  json::Document doc;
  if (!doc.parse(line, error)) return false;
  const Node& root = doc.root();
  if (root.kind != Kind::kObject)
    return reject(error, "spool record must be a JSON object");
  int version = 0;
  if (!get_version(root, version, error)) return false;
  if (!check_keys(root, {"v", "id", "client", "priority", "job", "traceparent"},
                  error))
    return false;
  SpoolRecord r;
  if (!get_traceparent(root, r.traceparent, error)) return false;
  if (!get_u64(root, "id", r.id, 0, UINT64_MAX, error)) return false;
  if (!get_string(root, "client", r.client, 256, false, error)) return false;
  if (!get_i64(root, "priority", r.priority, -100, 100, error)) return false;
  if (!parse_job_spec(root, r.job, error)) return false;
  out = std::move(r);
  return true;
}

std::string encode_job_summary(const JobSummary& s) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/0);
    write_job_summary(w, s);
  }
  return os.str();
}

bool parse_job_summary_line(std::string_view line, JobSummary& out,
                            std::string& error) {
  json::Document doc;
  return doc.parse(line, error) && parse_job_summary(doc.root(), out, error);
}

}  // namespace glimpse::service
