// Service subsystem tests (ctest -L service): protocol round-trip and
// garbled-input properties, job-queue ordering/admission, SessionManager
// end-to-end behavior (multi-client determinism, saturation, drain,
// restart-resume), the socket server, and a kill -9 of the real glimpsed
// binary mid-job followed by a restart that must complete every accepted
// job bit-identically.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.hpp"
#include "common/parallel.hpp"
#include "common/strutil.hpp"
#include "common/telemetry/span.hpp"
#include "common/telemetry/trace_context.hpp"
#include "gpusim/measurer.hpp"
#include "identity.hpp"
#include "proptest_util.hpp"
#include "service/client.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session_manager.hpp"
#include "test_util.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/session.hpp"

namespace glimpse {
namespace {

using service::Admission;
using service::Client;
using service::JobQueue;
using service::JobQueueOptions;
using service::JobSpec;
using service::JobSummary;
using service::QueuedJob;
using service::Request;
using service::RequestType;
using service::Response;
using service::ResponseType;
using service::Server;
using service::ServerOptions;
using service::ServiceStats;
using service::SessionManager;
using service::SessionManagerOptions;
using testing::expect_summary_matches_trace;
using testing::IdentityChecker;
using testing::job_run;
using testing::reference_trace;
using testing::short_sock_path;
using testing::tmp_path;
using testing::unix_server;

JobSpec small_job(std::uint64_t seed, std::uint64_t max_trials = 48) {
  return testing::job_spec("Titan Xp", 1, seed, max_trials);
}

// ---------------------------------------------------------------------------
// Protocol: round trips and hostile input.
// ---------------------------------------------------------------------------

std::uint64_t any_u64(Rng& rng) {
  auto v = static_cast<std::uint64_t>(
      rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()));
  if (rng.chance(0.2)) v |= 0x8000000000000000ULL;  // exercise the kUint path
  return v;
}

double nonneg_finite(Rng& rng) {
  double v = std::abs(testing::finite_double(rng));
  return std::isfinite(v) ? v : 1.0;
}

std::string nonempty_string(Rng& rng, std::size_t max_len) {
  std::string s = testing::any_string(rng, max_len);
  if (s.empty()) s = "x";
  return s;
}

JobSpec any_job_spec(Rng& rng) {
  JobSpec spec;
  spec.tuner = nonempty_string(rng, 16);
  spec.model = nonempty_string(rng, 16);
  spec.task_index = static_cast<std::uint64_t>(rng.uniform_int(0, 10000));
  spec.gpu = nonempty_string(rng, 32);
  spec.seed = any_u64(rng);
  spec.max_trials = static_cast<std::uint64_t>(rng.uniform_int(1, 1000000));
  spec.batch_size = static_cast<std::uint64_t>(rng.uniform_int(1, 4096));
  spec.plateau_trials = static_cast<std::uint64_t>(rng.uniform_int(0, 1000000));
  spec.time_budget_s = nonneg_finite(rng);
  spec.warmstart = rng.chance(0.5);  // exercises the omitted-when-true wire form
  return spec;
}

/// A well-formed random traceparent (the parser rejects malformed ones, so
/// the round-trip generators must only produce valid values or none).
std::string any_traceparent(Rng& rng) {
  telemetry::TraceContext ctx;
  ctx.trace_id_hi = any_u64(rng);
  ctx.trace_id_lo = any_u64(rng) | 1;  // trace id must be nonzero
  ctx.span_id = any_u64(rng) | 1;      // span id must be nonzero
  ctx.sampled = rng.chance(0.5);
  return telemetry::to_traceparent(ctx);
}

Request any_request(Rng& rng) {
  Request r;
  r.type = static_cast<RequestType>(rng.uniform_int(0, 8));
  if (rng.chance(0.5)) r.traceparent = any_traceparent(rng);
  if (rng.chance(0.3)) r.auth = nonempty_string(rng, 24);
  switch (r.type) {
    case RequestType::kSubmit:
      r.client = nonempty_string(rng, 32);
      r.priority = rng.uniform_int(-100, 100);
      r.job = any_job_spec(rng);
      break;
    case RequestType::kStatus:
    case RequestType::kCancel:
    case RequestType::kSubscribe:
      r.job_id = any_u64(rng);
      break;
    case RequestType::kResult:
      r.job_id = any_u64(rng);
      r.wait = rng.chance(0.5);
      break;
    default:
      break;
  }
  return r;
}

service::SpoolRecord any_spool_record(Rng& rng) {
  service::SpoolRecord rec;
  rec.id = any_u64(rng);
  rec.client = nonempty_string(rng, 32);
  rec.priority = rng.uniform_int(-100, 100);
  rec.job = any_job_spec(rng);
  if (rng.chance(0.5)) rec.traceparent = any_traceparent(rng);
  return rec;
}

JobSummary any_summary(Rng& rng) {
  static const char* kStates[] = {"queued", "running", "done", "cancelled",
                                  "failed"};
  JobSummary s;
  s.job_id = any_u64(rng);
  s.client = testing::any_string(rng, 32);
  s.state = kStates[rng.index(5)];
  s.trials = any_u64(rng);
  s.faulted = any_u64(rng);
  s.best_gflops = nonneg_finite(rng);
  for (std::size_t i = rng.index(12); i > 0; --i)
    s.best_config.push_back(
        static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL)));
  s.elapsed_s = nonneg_finite(rng);
  s.error = testing::any_string(rng, 64);
  return s;
}

Response any_response(Rng& rng) {
  Response r;
  r.type = static_cast<ResponseType>(rng.uniform_int(0, 7));
  if (rng.chance(0.5)) r.traceparent = any_traceparent(rng);
  switch (r.type) {
    case ResponseType::kAccepted:
      r.job_id = any_u64(rng);
      break;
    case ResponseType::kRejected:
      r.reason = nonempty_string(rng, 64);
      r.retry_after_s = nonneg_finite(rng);
      break;
    case ResponseType::kStatus:
    case ResponseType::kResult:
      r.summary = any_summary(rng);
      break;
    case ResponseType::kStats: {
      ServiceStats& s = r.stats;
      s.queue_depth = any_u64(rng);
      s.running = any_u64(rng);
      s.jobs_inflight = any_u64(rng);
      s.admitted_prio_high = any_u64(rng);
      s.admitted_prio_normal = any_u64(rng);
      s.admitted_prio_low = any_u64(rng);
      s.submitted = any_u64(rng);
      s.completed = any_u64(rng);
      s.cancelled = any_u64(rng);
      s.failed = any_u64(rng);
      s.rejected = any_u64(rng);
      s.quota_rejections = any_u64(rng);
      s.resumed = any_u64(rng);
      s.slots = any_u64(rng);
      s.cache_enabled = rng.chance(0.5);
      s.cache_hits = any_u64(rng);
      s.cache_inserts = any_u64(rng);
      s.shared_hits = any_u64(rng);
      s.draining = rng.chance(0.5);
      break;
    }
    case ResponseType::kError:
      r.reason = testing::any_string(rng, 64);
      break;
    default:
      break;
  }
  return r;
}

TEST(ServiceProtocol, RequestRoundTrip) {
  CHECK_PROP(0x5eb1ce01, 300, [](Rng& rng) {
    Request r = any_request(rng);
    std::string line = service::encode_request(r);
    Request back;
    std::string err;
    if (!service::parse_request(line, back, err)) {
      ADD_FAILURE() << "parse failed: " << err << "\n  line: " << line;
      return false;
    }
    return back == r;
  });
}

TEST(ServiceProtocol, WarmstartFlagIsOmittedWhenDefault) {
  // warmstart=true (the default) must stay off the wire so pre-warmstart
  // daemons never see an unknown key; warmstart=false must round-trip.
  Request r;
  r.type = RequestType::kSubmit;
  r.client = "compat";
  r.job.tuner = "autotvm";
  r.job.model = "resnet18";
  r.job.gpu = "Titan Xp";
  std::string line = service::encode_request(r);
  EXPECT_EQ(line.find("warmstart"), std::string::npos);

  r.job.warmstart = false;
  line = service::encode_request(r);
  EXPECT_NE(line.find("\"warmstart\":false"), std::string::npos);
  Request back;
  std::string err;
  ASSERT_TRUE(service::parse_request(line, back, err)) << err;
  EXPECT_FALSE(back.job.warmstart);

  // A line written before the field existed parses as warmstart=true.
  r.job.warmstart = true;
  ASSERT_TRUE(service::parse_request(service::encode_request(r), back, err))
      << err;
  EXPECT_TRUE(back.job.warmstart);
}

TEST(ServiceProtocol, ResponseRoundTrip) {
  CHECK_PROP(0x5eb1ce02, 300, [](Rng& rng) {
    Response r = any_response(rng);
    std::string line = service::encode_response(r);
    Response back;
    std::string err;
    if (!service::parse_response(line, back, err)) {
      ADD_FAILURE() << "parse failed: " << err << "\n  line: " << line;
      return false;
    }
    return back == r;
  });
}

TEST(ServiceProtocol, SpoolRecordRoundTrip) {
  CHECK_PROP(0x5eb1ce03, 200, [](Rng& rng) {
    service::SpoolRecord rec = any_spool_record(rng);
    service::SpoolRecord back;
    std::string err;
    if (!service::parse_spool_record(service::encode_spool_record(rec), back, err))
      return false;
    return back == rec;
  });
}

TEST(ServiceProtocol, JobSummaryLineRoundTrip) {
  CHECK_PROP(0x5eb1ce04, 200, [](Rng& rng) {
    JobSummary s = any_summary(rng);
    JobSummary back;
    std::string err;
    if (!service::parse_job_summary_line(service::encode_job_summary(s), back, err))
      return false;
    return back == s;
  });
}

// A garbled line must yield a clean parse error (with a message) or — when
// the damage cancels out — a valid parse. Never UB, never a silent
// half-filled message. (ASan/UBSan builds of this suite are the teeth.)
TEST(ServiceProtocol, GarbledRequestNeverMisbehaves) {
  CHECK_PROP(0x5eb1ce05, 500, [](Rng& rng) {
    std::string line = service::encode_request(any_request(rng));
    std::string damaged = testing::garble(line, rng);
    Request out;
    std::string err;
    bool ok = service::parse_request(damaged, out, err);
    return ok || !err.empty();
  });
}

TEST(ServiceProtocol, GarbledResponseNeverMisbehaves) {
  CHECK_PROP(0x5eb1ce06, 500, [](Rng& rng) {
    std::string line = service::encode_response(any_response(rng));
    std::string damaged = testing::garble(line, rng);
    Response out;
    std::string err;
    bool ok = service::parse_response(damaged, out, err);
    return ok || !err.empty();
  });
}

// Differential fuzz of the one strict reader (common/json_reader.hpp)
// against testing::json_valid, an independent syntax-only validator, over
// garbled wire messages, spool records and cache-tier lines. The
// reader may be stricter only through its caps and rules beyond syntax, so
// within_reader_caps() — a textual scan that never parses a value — skips
// every input that could trip one: long lines, deep nesting, duplicate or
// escaped keys, oversized objects, surrogate escapes, out-of-range
// integers, and numbers that may round to infinity.
bool within_reader_caps(const std::string& s) {
  if (s.size() >= json::kMaxStringLen) return false;  // below every size cap
  std::vector<char> open;                              // '{' or '['
  std::vector<std::set<std::string>> keys;             // one per open '{'
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') {
      std::size_t j = i + 1;
      bool escaped = false;
      for (; j < s.size() && s[j] != '"'; ++j) {
        if (s[j] != '\\') continue;
        escaped = true;
        if (s.compare(j + 1, 2, "ud") == 0 || s.compare(j + 1, 2, "uD") == 0)
          return false;
        ++j;
      }
      std::size_t k = j + 1;
      while (k < s.size() && std::string_view(" \t\n\r").find(s[k]) != std::string::npos)
        ++k;
      const bool is_key =
          k < s.size() && s[k] == ':' && !open.empty() && open.back() == '{';
      if (is_key && (escaped || !keys.back().insert(s.substr(i + 1, j - i - 1)).second ||
                     keys.back().size() > json::kMaxObjectKeys))
        return false;
      i = j;
    } else if (c == '{' || c == '[') {
      open.push_back(c);
      if (c == '{') keys.emplace_back();
      if (open.size() > static_cast<std::size_t>(json::kMaxDepth)) return false;
    } else if ((c == '}' || c == ']') && !open.empty()) {
      if (open.back() == '{') keys.pop_back();
      open.pop_back();
    } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      auto digits_end = [&](std::size_t j) {
        while (j < s.size() && std::isdigit(static_cast<unsigned char>(s[j]))) ++j;
        return j;
      };
      const std::size_t d0 = i + (c == '-'), d1 = digits_end(d0);
      std::size_t j = d1 < s.size() && s[d1] == '.' ? digits_end(d1 + 1) : d1;
      long exp = 0;
      if (j < s.size() && (s[j] == 'e' || s[j] == 'E')) {
        const bool sign = j + 1 < s.size() && (s[j + 1] == '+' || s[j + 1] == '-');
        const std::size_t e0 = j + (sign ? 2 : 1);
        j = digits_end(e0);
        if (j - e0 > 4) return false;
        if (j > e0 && s[e0 - 1] != '-') exp = std::stol(s.substr(e0, j - e0));
      }
      // Same-length decimal strings compare like the integers they spell.
      const std::string digits = s.substr(d0, d1 - d0);
      const std::string limit = c == '-' ? "9223372036854775808" : "18446744073709551615";
      if (j == d1 ? digits.size() > limit.size() ||
                        (digits.size() == limit.size() && digits > limit)
                  : static_cast<long>(digits.size()) + exp > 308)
        return false;
      i = j - 1;
    }
  }
  return true;
}

TEST(ServiceProtocol, ReaderAgreesWithIndependentValidator) {
  // Cache-tier lines as the result cache writes them.
  const std::string path = tmp_path("svc_reader_tier.jsonl");
  std::filesystem::remove(path);
  {
    tuning::ResultCacheOptions opts;
    opts.path = path;
    tuning::ResultCache cache(opts);
    Rng rng(0x5eb1ce0c);
    for (std::uint32_t i = 0; i < 16; ++i) {
      gpusim::MeasureResult r;
      r.valid = rng.chance(0.7);
      r.latency_s = r.gflops = r.valid ? nonneg_finite(rng) : 0.0;
      r.cost_s = nonneg_finite(rng);
      cache.insert({any_u64(rng), any_u64(rng), {i, 7}}, r);
    }
  }
  std::vector<std::string> tier;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) tier.push_back(line);
  ASSERT_EQ(tier.size(), 16u);

  int compared = 0, compared_valid = 0;
  CHECK_PROP(0x5eb1ce0d, 3000, [&](Rng& rng) {
    const std::size_t kind = rng.index(5);
    std::string line;
    switch (kind) {
      case 0: line = service::encode_request(any_request(rng)); break;
      case 1: line = service::encode_response(any_response(rng)); break;
      case 2: line = service::encode_spool_record(any_spool_record(rng)); break;
      case 3: line = service::encode_job_summary(any_summary(rng)); break;
      default: line = tier[rng.index(tier.size())]; break;
    }
    if (rng.chance(0.9)) line = testing::garble(line, rng);
    json::Document doc;
    std::string err;
    const bool accepted = doc.parse(line, err);
    // The typed parsers on top accept only what the reader accepts and
    // explain every rejection: never UB, never a half-filled message.
    if (kind < 2) {
      std::string why;
      Request req;
      Response resp;
      const bool ok = kind == 0 ? service::parse_request(line, req, why)
                                : service::parse_response(line, resp, why);
      if (ok ? !accepted : why.empty()) return false;
    }
    const bool valid = testing::json_valid(line);
    if (!within_reader_caps(line)) return !accepted || valid;  // never accept non-JSON
    ++compared;
    compared_valid += valid;
    if (accepted == valid) return true;
    ADD_FAILURE() << "reader " << (accepted ? "accepted" : "rejected (" + err + ")")
                  << " but json_valid says " << valid << "\n  line: " << line;
    return false;
  });
  // The cap filter leaves nearly every input in, and both verdicts occur.
  EXPECT_GT(compared, 2700);
  EXPECT_GT(compared_valid, 600);
  std::filesystem::remove(path);
}

TEST(ServiceProtocol, StrictParserRejects) {
  Request r;
  std::string err;
  // Unknown key.
  EXPECT_FALSE(service::parse_request(R"({"v":1,"type":"ping","zap":1})", r, err));
  // Duplicate key.
  EXPECT_FALSE(service::parse_request(R"({"v":1,"v":1,"type":"ping"})", r, err));
  // Wrong version (v1..v3 are the live protocol; v4 does not exist).
  EXPECT_FALSE(service::parse_request(R"({"v":4,"type":"ping"})", r, err));
  // subscribe is a v3 addition; older versions must not smuggle it in.
  EXPECT_FALSE(
      service::parse_request(R"({"v":2,"type":"subscribe","job_id":1})", r, err));
  // Missing version.
  EXPECT_FALSE(service::parse_request(R"({"type":"ping"})", r, err));
  // Unknown type.
  EXPECT_FALSE(service::parse_request(R"({"v":1,"type":"zap"})", r, err));
  // Trailing bytes.
  EXPECT_FALSE(service::parse_request(R"({"v":1,"type":"ping"} x)", r, err));
  // Not an object.
  EXPECT_FALSE(service::parse_request(R"([1,2,3])", r, err));
  // Leading zero (not JSON).
  EXPECT_FALSE(service::parse_request(R"({"v":01,"type":"ping"})", r, err));
  // Raw control character in a string.
  EXPECT_FALSE(service::parse_request("{\"v\":1,\"type\":\"ping\x01\"}", r, err));
  // Lone surrogate escape.
  EXPECT_FALSE(
      service::parse_request(R"({"v":1,"type":"status","job_id":"\ud800"})", r, err));
  // Priority out of range.
  EXPECT_FALSE(service::parse_request(
      R"({"v":1,"type":"submit","client":"c","priority":101,"job":{"tuner":"random","model":"resnet18","task":1,"gpu":"Titan Xp","seed":1,"max_trials":8,"batch_size":8,"plateau":0,"time_budget_s":0}})",
      r, err));
  // batch_size of zero.
  EXPECT_FALSE(service::parse_request(
      R"({"v":1,"type":"submit","client":"c","priority":0,"job":{"tuner":"random","model":"resnet18","task":1,"gpu":"Titan Xp","seed":1,"max_trials":8,"batch_size":0,"plateau":0,"time_budget_s":0}})",
      r, err));
  // Oversized line.
  std::string big = R"({"v":1,"type":"ping",)";
  big += std::string(json::kMaxLineBytes, ' ');
  big += "}";
  EXPECT_FALSE(service::parse_request(big, r, err));
  EXPECT_EQ(err, "line too long");
  // Nesting bomb.
  std::string deep(64, '[');
  EXPECT_FALSE(service::parse_request(deep, r, err));
}

// Protocol v2 added the optional traceparent; v1 peers (no traceparent, no
// jobs_inflight/admission counters) must keep parsing, and a traceparent
// that is present must be well-formed.
TEST(ServiceProtocol, VersionCompatAndTraceparent) {
  Request r;
  std::string err;
  EXPECT_TRUE(service::parse_request(R"({"v":1,"type":"ping"})", r, err)) << err;
  EXPECT_TRUE(r.traceparent.empty());
  EXPECT_TRUE(service::parse_request(R"({"v":2,"type":"ping"})", r, err)) << err;
  EXPECT_TRUE(r.traceparent.empty());

  const std::string tp =
      "00-118d627ac8387f2ece243bda5e27a40b-a4871a5c829f593c-01";
  EXPECT_TRUE(service::parse_request(
      R"({"v":2,"type":"ping","traceparent":")" + tp + R"("})", r, err))
      << err;
  EXPECT_EQ(r.traceparent, tp);

  // Malformed traceparents are a parse error, not a silent drop.
  for (const char* bad :
       {"garbage",
        "01-118d627ac8387f2ece243bda5e27a40b-a4871a5c829f593c-01",  // version
        "00-00000000000000000000000000000000-a4871a5c829f593c-01",  // zero trace
        "00-118d627ac8387f2ece243bda5e27a40b-0000000000000000-01",  // zero span
        "00-118d627ac8387f2ece243bda5e27a40b-a4871a5c829f593c-1"}) {
    EXPECT_FALSE(service::parse_request(
        std::string(R"({"v":2,"type":"ping","traceparent":")") + bad + R"("})",
        r, err))
        << bad;
    EXPECT_EQ(err, "malformed traceparent") << bad;
  }

  // A v1 stats payload without the v2 counters parses; counters default 0.
  Response resp;
  EXPECT_TRUE(service::parse_response(
      R"({"v":1,"type":"stats","stats":{"queue_depth":1,"running":2,)"
      R"("submitted":3,"completed":4,"cancelled":0,"failed":0,"rejected":0,)"
      R"("resumed":0,"slots":2,"cache_enabled":true,"cache_hits":0,)"
      R"("cache_inserts":0,"shared_hits":0,"draining":false}})",
      resp, err))
      << err;
  EXPECT_EQ(resp.stats.queue_depth, 1u);
  EXPECT_EQ(resp.stats.jobs_inflight, 0u);
  EXPECT_EQ(resp.stats.admitted_prio_normal, 0u);

  // Responses carry the echoed traceparent through a round-trip.
  Response echo;
  echo.type = ResponseType::kPong;
  echo.traceparent = tp;
  Response echo_back;
  ASSERT_TRUE(
      service::parse_response(service::encode_response(echo), echo_back, err))
      << err;
  EXPECT_EQ(echo_back.traceparent, tp);
}

// Protocol v3 added the optional auth token, the subscribe request, and the
// quota_rejections stats counter. v2 peers keep working; the v3 additions
// round-trip; auth is version-agnostic (a v3 daemon demands it from every
// peer, however old).
TEST(ServiceProtocol, V3AuthSubscribeQuotaCompat) {
  Request r;
  std::string err;
  // auth parses at any version and round-trips.
  EXPECT_TRUE(service::parse_request(
      R"({"v":1,"type":"ping","auth":"hunter2"})", r, err))
      << err;
  EXPECT_EQ(r.auth, "hunter2");
  Request subr;
  subr.type = service::RequestType::kSubscribe;
  subr.job_id = 7;
  subr.auth = "tok";
  Request subr_back;
  ASSERT_TRUE(
      service::parse_request(service::encode_request(subr), subr_back, err))
      << err;
  EXPECT_EQ(subr_back, subr);
  // Empty auth is a parse error, not an empty credential.
  EXPECT_FALSE(
      service::parse_request(R"({"v":3,"type":"ping","auth":""})", r, err));

  // A v2 stats payload (no quota_rejections) parses; the counter defaults 0.
  Response resp;
  EXPECT_TRUE(service::parse_response(
      R"({"v":2,"type":"stats","stats":{"queue_depth":0,"running":0,)"
      R"("jobs_inflight":0,"admitted_prio_high":0,"admitted_prio_normal":0,)"
      R"("admitted_prio_low":0,"submitted":0,"completed":0,"cancelled":0,)"
      R"("failed":0,"rejected":5,"resumed":0,"slots":1,"cache_enabled":false,)"
      R"("cache_hits":0,"cache_inserts":0,"shared_hits":0,"draining":false}})",
      resp, err))
      << err;
  EXPECT_EQ(resp.stats.rejected, 5u);
  EXPECT_EQ(resp.stats.quota_rejections, 0u);
}

// ---------------------------------------------------------------------------
// JobQueue: ordering, fairness, admission.
// ---------------------------------------------------------------------------

QueuedJob qj(std::uint64_t id, const std::string& client, std::int64_t prio) {
  return {id, client, prio, JobSpec{}};
}

TEST(ServiceJobQueue, PriorityThenClientRoundRobin) {
  JobQueue q;
  ASSERT_TRUE(q.push(qj(1, "a", 0)).accepted);
  ASSERT_TRUE(q.push(qj(2, "a", 0)).accepted);
  ASSERT_TRUE(q.push(qj(3, "a", 0)).accepted);
  ASSERT_TRUE(q.push(qj(4, "b", 0)).accepted);
  ASSERT_TRUE(q.push(qj(5, "b", 0)).accepted);
  ASSERT_TRUE(q.push(qj(6, "c", 5)).accepted);  // higher priority jumps ahead
  std::vector<std::uint64_t> order;
  QueuedJob out;
  while (q.pop(out)) order.push_back(out.id);
  // c first (priority 5), then a/b alternate (round-robin), a's backlog last.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{6, 1, 4, 2, 5, 3}));
}

TEST(ServiceJobQueue, AdmissionBounds) {
  JobQueueOptions opts;
  opts.max_depth = 2;
  opts.retry_after_s = 3.5;
  JobQueue q(opts);
  EXPECT_TRUE(q.push(qj(1, "a", 0)).accepted);
  EXPECT_TRUE(q.push(qj(2, "b", 0)).accepted);
  Admission rejected = q.push(qj(3, "c", 0));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reason, "saturated");
  EXPECT_EQ(rejected.retry_after_s, 3.5);
  // Forced pushes (spool recovery) bypass the bound.
  EXPECT_TRUE(q.push(qj(4, "d", 0), /*force=*/true).accepted);
  EXPECT_EQ(q.depth(), 3u);
}

TEST(ServiceJobQueue, PerClientBound) {
  JobQueueOptions opts;
  opts.max_per_client = 1;
  JobQueue q(opts);
  EXPECT_TRUE(q.push(qj(1, "a", 0)).accepted);
  Admission rejected = q.push(qj(2, "a", 0));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reason, "client_saturated");
  EXPECT_TRUE(q.push(qj(3, "b", 0)).accepted);
  // Popping a's job frees its slot.
  QueuedJob out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.id, 1u);
  EXPECT_TRUE(q.push(qj(4, "a", 0)).accepted);
}

TEST(ServiceJobQueue, EraseCancelsQueuedJob) {
  JobQueue q;
  ASSERT_TRUE(q.push(qj(1, "a", 0)).accepted);
  ASSERT_TRUE(q.push(qj(2, "a", 0)).accepted);
  EXPECT_TRUE(q.erase(1));
  EXPECT_FALSE(q.erase(1));  // already gone
  QueuedJob out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out.id, 2u);
  EXPECT_FALSE(q.pop(out));
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// SessionManager end to end (no sockets).
// ---------------------------------------------------------------------------

TEST(ServiceManager, JobMatchesDirectRunBitIdentically) {
  IdentityChecker({job_run(small_job(/*seed=*/41))}).expect_manager({.slots = 2});
}

TEST(ServiceManager, RejectsBadSpecsAtTheDoor) {
  SessionManager manager{SessionManagerOptions{}};
  auto bad = [](auto edit) {
    JobSpec s = small_job(1);
    edit(s);
    return s;
  };
  for (const JobSpec& spec : {bad([](JobSpec& s) { s.tuner = "glimpse"; }),  // needs artifacts
                              bad([](JobSpec& s) { s.tuner = "dgp"; }),
                              bad([](JobSpec& s) { s.tuner = "annealing"; }),
                              bad([](JobSpec& s) { s.model = "resnet999"; }),
                              bad([](JobSpec& s) { s.gpu = "Voodoo 2"; }),
                              bad([](JobSpec& s) { s.task_index = 9999; })}) {  // 17 tasks
    EXPECT_EQ(manager.submit("a", 0, spec).type, ResponseType::kError);
    // The reference run resolves a spec the same way: it never falls back to
    // another tuner or model (glimpse and dgp it runs on test artifacts).
    if (spec.tuner != "glimpse" && spec.tuner != "dgp") {
      EXPECT_THROW(reference_trace(job_run(spec)), std::invalid_argument);
    }
  }
  EXPECT_EQ(manager.status(123).type, ResponseType::kError);
  EXPECT_EQ(manager.cancel(123).type, ResponseType::kError);
}

// N clients submit overlapping work concurrently. Every job's result must
// be bit-identical to its direct single-session run no matter the
// interleaving, and the shared cache must show cross-client hits.
TEST(ServiceManager, ConcurrentMultiClientSubmitIsDeterministic) {
  SessionManagerOptions opts;
  opts.slots = 3;
  opts.cache = "mem";
  SessionManager manager(opts);

  // 4 clients x 3 jobs; seeds overlap across clients so identical sessions
  // exist (the cache/dedup targets) alongside distinct ones.
  const int kClients = 4, kJobsPerClient = 3;
  std::vector<std::vector<std::uint64_t>> ids(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int j = 0; j < kJobsPerClient; ++j) {
        JobSpec spec = small_job(/*seed=*/100 + j);  // same seeds per client
        Response r = manager.submit("client" + std::to_string(c), 0, spec);
        if (r.type != ResponseType::kAccepted) {
          ++failures;
          return;
        }
        ids[c].push_back(r.job_id);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  for (int j = 0; j < kJobsPerClient; ++j) {
    tuning::Trace reference = reference_trace(job_run(small_job(100 + j)));
    for (int c = 0; c < kClients; ++c) {
      Response result = manager.result(ids[c][j], /*wait=*/true);
      ASSERT_EQ(result.type, ResponseType::kResult);
      expect_summary_matches_trace(result.summary, reference);
    }
  }

  Response stats = manager.stats();
  ASSERT_EQ(stats.type, ResponseType::kStats);
  EXPECT_EQ(stats.stats.submitted, 12u);
  EXPECT_EQ(stats.stats.completed, 12u);
  EXPECT_TRUE(stats.stats.cache_enabled);
  // 3 distinct sessions, 4 clients each, 576 trials total. How duplicate
  // measurements split between cache hits and the scheduler's in-round
  // sharing depends on interleaving (lockstep copies share, staggered
  // copies hit), but the real work is interleaving-independent: exactly
  // one insert per distinct (task, hw, config), everything else deduped.
  EXPECT_EQ(stats.stats.cache_inserts, 3u * 48u);
  EXPECT_LE(stats.stats.cache_hits, 9u * 48u);
}

// The determinism matrix the tracing layer must not break: tracing on/off x
// pool width, two concurrent jobs at two priorities — every job matches its
// direct (daemon-free, untraced) reference run. Tracing ids come from a
// dedicated entropy stream, so enabling spans must not perturb a single
// tuning decision.
TEST(ServiceManager, TracingMatrixIsBitIdentical) {
  IdentityChecker check({job_run(small_job(/*seed=*/501), 1), job_run(small_job(502), -1)});
  for (bool tracing : {false, true}) {
    for (std::size_t threads : {1, 4}) {
      check.expect_manager(
          {.env = {.threads = threads, .telemetry = tracing}},
          [](SessionManager& manager, const std::vector<std::uint64_t>&) {
            // The admission counters see one job per priority class.
            const ServiceStats stats = manager.stats().stats;
            EXPECT_EQ(stats.admitted_prio_high, 1u);
            EXPECT_EQ(stats.admitted_prio_low, 1u);
            EXPECT_EQ(stats.admitted_prio_normal, 0u);
            EXPECT_EQ(stats.jobs_inflight, 0u);
          });
    }
  }
  telemetry::clear_events();
}

// Saturate admission: pin the worker inside a long scheduler round, then
// burst more submissions than the queue accepts.
TEST(ServiceManager, SaturationRejectsWithRetryAfter) {
  SessionManagerOptions opts;
  opts.slots = 1;
  opts.queue.max_depth = 2;
  opts.queue.retry_after_s = 1.5;
  SessionManager manager(opts);

  // One round of this job is 2048 measurements — plenty of wall-clock to
  // land the burst while the worker is busy inside step_round().
  JobSpec big = small_job(/*seed=*/7, /*max_trials=*/4096);
  big.batch_size = 2048;
  Response first = manager.submit("hog", 0, big);
  ASSERT_EQ(first.type, ResponseType::kAccepted);
  while (true) {  // wait until the worker admitted it (queue drained)
    Response s = manager.stats();
    if (s.stats.running >= 1 && s.stats.queue_depth == 0) break;
    std::this_thread::yield();
  }

  int accepted = 0, rejected = 0;
  double retry_after = 0.0;
  for (int i = 0; i < 5; ++i) {
    Response r = manager.submit("burst", 0, small_job(10 + i, /*max_trials=*/8));
    if (r.type == ResponseType::kAccepted) {
      ++accepted;
    } else {
      ASSERT_EQ(r.type, ResponseType::kRejected);
      EXPECT_EQ(r.reason, "saturated");
      retry_after = r.retry_after_s;
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(rejected, 3);
  EXPECT_EQ(retry_after, 1.5);

  // The hog is no longer needed; cancel it and drain the rest.
  EXPECT_EQ(manager.cancel(first.job_id).type, ResponseType::kOk);
  EXPECT_EQ(manager.drain().type, ResponseType::kOk);
  Response stats = manager.stats();
  EXPECT_EQ(stats.stats.rejected, 3u);
  EXPECT_EQ(stats.stats.completed, 2u);
  EXPECT_EQ(stats.stats.cancelled, 1u);
}

TEST(ServiceManager, DrainCompletesAcceptedAndRejectsNew) {
  SessionManagerOptions opts;
  opts.slots = 2;
  SessionManager manager(opts);
  Response a = manager.submit("a", 0, small_job(1));
  Response b = manager.submit("b", 0, small_job(2));
  ASSERT_EQ(a.type, ResponseType::kAccepted);
  ASSERT_EQ(b.type, ResponseType::kAccepted);
  EXPECT_EQ(manager.drain().type, ResponseType::kOk);
  // Everything accepted before the drain has settled.
  EXPECT_EQ(manager.status(a.job_id).summary.state, "done");
  EXPECT_EQ(manager.status(b.job_id).summary.state, "done");
  // New work is refused.
  Response after = manager.submit("c", 0, small_job(3));
  ASSERT_EQ(after.type, ResponseType::kRejected);
  EXPECT_EQ(after.reason, "draining");
  EXPECT_TRUE(manager.stats().stats.draining);
}

TEST(ServiceManager, CancelQueuedJobNeverRuns) {
  SessionManagerOptions opts;
  opts.slots = 1;
  SessionManager manager(opts);
  JobSpec big = small_job(/*seed=*/3, /*max_trials=*/4096);
  big.batch_size = 2048;
  Response hog = manager.submit("a", 0, big);
  ASSERT_EQ(hog.type, ResponseType::kAccepted);
  while (manager.stats().stats.running < 1) std::this_thread::yield();
  Response queued = manager.submit("b", 0, small_job(4));
  ASSERT_EQ(queued.type, ResponseType::kAccepted);
  EXPECT_EQ(manager.cancel(queued.job_id).type, ResponseType::kOk);
  Response result = manager.result(queued.job_id, /*wait=*/true);
  ASSERT_EQ(result.type, ResponseType::kResult);
  EXPECT_EQ(result.summary.state, "cancelled");
  EXPECT_EQ(result.summary.trials, 0u);
  manager.cancel(hog.job_id);
}

// Stop the daemon mid-job (graceful this time; the SIGKILL variant runs
// against the real binary below), restart on the same spool, and the job
// must resume from its checkpoint and finish bit-identically.
TEST(ServiceManager, RestartOnSpoolResumesAndCompletes) {
  const std::string spool = tmp_path("svc_restart_spool");
  std::filesystem::remove_all(spool);
  // autotvm refits its surrogate every batch: rounds are milliseconds, not
  // microseconds, so stop() reliably lands while the job is still running.
  JobSpec spec = small_job(/*seed=*/77, /*max_trials=*/96);
  spec.tuner = "autotvm";
  spec.batch_size = 4;  // many batches -> several checkpoints
  std::uint64_t job_id = 0;
  IdentityChecker({job_run(spec)})
      .expect_manager({.spool = spool, .stop_after = 8},
                      [&](SessionManager& manager, const std::vector<std::uint64_t>& ids) {
                        EXPECT_EQ(manager.recovered(), 1u);
                        EXPECT_EQ(manager.stats().stats.resumed, 1u);
                        job_id = ids[0];
                      });
  // A third daemon on the same spool serves the settled result without
  // re-running anything.
  SessionManagerOptions opts;
  opts.spool_dir = spool;
  SessionManager manager(opts);
  EXPECT_EQ(manager.recovered(), 0u);
  Response r = manager.result(job_id, /*wait=*/false);
  ASSERT_EQ(r.type, ResponseType::kResult);
  EXPECT_EQ(r.summary.state, "done");
}

// A journal the restarted daemon cannot replay is not trusted: the job
// reruns from scratch, starting its journal afresh, and still settles
// bit-identically — also when that rerun is interrupted and resumed again.
TEST(ServiceManager, UnreplayableJournalRerunsFromScratch) {
  const std::string spool = tmp_path("svc_bad_journal_spool");
  std::filesystem::remove_all(spool);
  JobSpec spec = small_job(/*seed=*/78, /*max_trials=*/96);
  spec.tuner = "autotvm";
  spec.batch_size = 4;
  SessionManagerOptions opts;
  opts.slots = 2;
  opts.spool_dir = spool;
  std::uint64_t job_id = 0;
  {
    SessionManager manager(opts);
    Response r = manager.submit("alice", 0, spec);
    ASSERT_EQ(r.type, ResponseType::kAccepted);
    job_id = r.job_id;
    while (manager.status(job_id).summary.trials < 8) std::this_thread::yield();
    manager.stop();
  }
  {
    std::ofstream os(spool + "/job-00000001.ckpt", std::ios::trunc);
    os << "not a journal\n";
  }
  {
    SessionManager manager(opts);  // the replay fails: rerun from scratch
    for (JobSummary s = manager.status(job_id).summary;
         s.state == "queued" || (s.state == "running" && s.trials < 8);
         s = manager.status(job_id).summary)
      std::this_thread::yield();
    manager.stop();
  }
  SessionManager manager(opts);
  Response result = manager.result(job_id, /*wait=*/true);
  ASSERT_EQ(result.type, ResponseType::kResult);
  expect_summary_matches_trace(result.summary, reference_trace(job_run(spec)));
}

// A persistently failing scheduler round (here: the job's checkpoint path
// is blocked by a directory, so opening its journal fails every time)
// must fail the affected jobs once and leave the daemon healthy — not spin
// re-running the failing round forever, and not poison later jobs.
TEST(ServiceManager, SchedulerRoundFailureFailsJobsWithoutSpinning) {
  const std::string spool = tmp_path("svc_round_fail_spool");
  std::filesystem::remove_all(spool);
  std::filesystem::create_directories(spool);
  // Job ids start at 1; a directory squatting on job 1's checkpoint path
  // makes every checkpoint attempt throw.
  std::filesystem::create_directories(spool + "/job-00000001.ckpt");

  SessionManagerOptions opts;
  opts.slots = 2;
  opts.spool_dir = spool;
  SessionManager manager(opts);

  Response r1 = manager.submit("alice", 0, small_job(/*seed=*/11));
  ASSERT_EQ(r1.type, ResponseType::kAccepted);
  ASSERT_EQ(r1.job_id, 1u);
  Response failed = manager.result(r1.job_id, /*wait=*/true);
  ASSERT_EQ(failed.type, ResponseType::kResult);
  EXPECT_EQ(failed.summary.state, "failed");
  EXPECT_NE(failed.summary.error.find("scheduler round failed"),
            std::string::npos);

  // The worker rebuilt its scheduler: a fresh job (unblocked checkpoint
  // path) admitted after the failure completes normally.
  Response r2 = manager.submit("alice", 0, small_job(/*seed=*/12));
  ASSERT_EQ(r2.type, ResponseType::kAccepted);
  Response done = manager.result(r2.job_id, /*wait=*/true);
  ASSERT_EQ(done.type, ResponseType::kResult);
  EXPECT_EQ(done.summary.state, "done");
  expect_summary_matches_trace(done.summary, reference_trace(job_run(small_job(12))));
}

// Settled jobs past the retention cap are garbage-collected at startup:
// their spool files disappear and they are no longer queryable, while the
// newest settled jobs survive restarts intact.
TEST(ServiceManager, SpoolRetentionGarbageCollectsSettledJobs) {
  const std::string spool = tmp_path("svc_retention_spool");
  std::filesystem::remove_all(spool);
  std::vector<std::uint64_t> ids;
  {
    SessionManagerOptions opts;
    opts.slots = 2;
    opts.spool_dir = spool;
    SessionManager manager(opts);
    for (std::uint64_t seed : {21, 22, 23}) {
      Response r =
          manager.submit("alice", 0, small_job(seed, /*max_trials=*/16));
      ASSERT_EQ(r.type, ResponseType::kAccepted);
      ids.push_back(r.job_id);
    }
    manager.drain();
  }
  {
    SessionManagerOptions opts;
    opts.spool_dir = spool;
    opts.spool_retain = 1;
    SessionManager manager(opts);
    EXPECT_EQ(manager.recovered(), 0u);
    EXPECT_EQ(manager.status(ids[0]).type, ResponseType::kError);
    EXPECT_EQ(manager.status(ids[1]).type, ResponseType::kError);
    Response kept = manager.result(ids[2], /*wait=*/false);
    ASSERT_EQ(kept.type, ResponseType::kResult);
    EXPECT_EQ(kept.summary.state, "done");
    EXPECT_EQ(manager.stats().stats.completed, 1u);
  }
  // On disk only the retained job's spec + result remain (its checkpoint
  // was already removed when it settled).
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(spool)) {
    EXPECT_NE(entry.path().filename().string().find("job-00000003"),
              std::string::npos)
        << "stale spool file: " << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 2u);
}

// ---------------------------------------------------------------------------
// Socket server + client.
// ---------------------------------------------------------------------------

TEST(ServiceServer, TcpEndToEnd) {
  SessionManagerOptions mopts;
  mopts.slots = 2;
  mopts.cache = "mem";
  SessionManager manager(mopts);
  ServerOptions sopts;
  sopts.tcp_port = 0;  // ephemeral
  Server server(manager, sopts);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);

  Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
  EXPECT_EQ(client.ping().type, ResponseType::kPong);

  JobSpec spec = small_job(/*seed=*/5);
  Response accepted = client.submit("alice", 0, spec);
  ASSERT_EQ(accepted.type, ResponseType::kAccepted);
  Response result = client.result(accepted.job_id, /*wait=*/true);
  ASSERT_EQ(result.type, ResponseType::kResult);
  expect_summary_matches_trace(result.summary, reference_trace(job_run(spec)));

  Response stats = client.stats();
  ASSERT_EQ(stats.type, ResponseType::kStats);
  EXPECT_EQ(stats.stats.completed, 1u);
  server.stop();
}

TEST(ServiceServer, UnixSocketAndTwoClients) {
  const std::string sock = short_sock_path("uds");
  SessionManagerOptions mopts;
  mopts.slots = 2;
  mopts.cache = "mem";
  SessionManager manager(mopts);
  Server server(manager, unix_server(sock));
  server.start();

  Client c1 = Client::connect_unix(sock);
  Client c2 = Client::connect_unix(sock);
  JobSpec spec = small_job(/*seed=*/6);
  Response r1 = c1.submit("one", 0, spec);
  ASSERT_EQ(r1.type, ResponseType::kAccepted);
  Response done1 = c1.result(r1.job_id, true);
  // Second client re-submits the identical spec after the first settled:
  // every measurement must now come from the shared cache.
  Response r2 = c2.submit("two", 0, spec);
  ASSERT_EQ(r2.type, ResponseType::kAccepted);
  Response done2 = c2.result(r2.job_id, true);
  // Same spec from different clients: identical results, via the cache.
  EXPECT_EQ(done1.summary.best_gflops, done2.summary.best_gflops);
  EXPECT_EQ(done1.summary.best_config, done2.summary.best_config);
  Response stats = c1.stats();
  EXPECT_GE(stats.stats.cache_hits, spec.max_trials);
  server.stop();
}

// Raw-socket client: garbage must get an error line (connection stays up);
// an overlong line must close the connection.
TEST(ServiceServer, GarbageLinesGetErrorsNotCrashes) {
  const std::string sock = short_sock_path("garbage");
  SessionManager manager{SessionManagerOptions{}};
  Server server(manager, unix_server(sock));
  server.start();

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  auto send_line = [&](const std::string& s) {
    std::string payload = s + "\n";
    ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
              static_cast<ssize_t>(payload.size()));
  };
  auto read_line = [&]() {
    std::string line;
    char c;
    while (::recv(fd, &c, 1, 0) == 1) {
      if (c == '\n') break;
      line += c;
    }
    return line;
  };

  send_line("this is not json");
  Response resp;
  std::string err;
  ASSERT_TRUE(service::parse_response(read_line(), resp, err)) << err;
  EXPECT_EQ(resp.type, ResponseType::kError);

  // The conversation survives garbage: a valid request still works.
  send_line(R"({"v":1,"type":"ping"})");
  ASSERT_TRUE(service::parse_response(read_line(), resp, err)) << err;
  EXPECT_EQ(resp.type, ResponseType::kPong);

  // An overlong line gets an error and the connection is closed.
  std::string huge(json::kMaxLineBytes + 100, 'x');
  send_line(huge);
  ASSERT_TRUE(service::parse_response(read_line(), resp, err)) << err;
  EXPECT_EQ(resp.type, ResponseType::kError);
  char c;
  EXPECT_EQ(::recv(fd, &c, 1, 0), 0);  // EOF: server hung up
  ::close(fd);
  server.stop();
}

// Satellite regression: every connection gets its own short-lived thread,
// and with tracing on each records spans. Exited threads must recycle their
// buffer tags, so a burst of sequential connections cannot grow the span
// registry — and none of their spans may be lost before the drain.
TEST(ServiceServer, ShortLivedConnectionThreadsRecycleSpanBuffers) {
  const std::string sock = short_sock_path("recycle");
  SessionManager manager{SessionManagerOptions{}};
  Server server(manager, unix_server(sock));
  server.start();

  constexpr int kConnections = 48;
  std::size_t buffers_before = 0;
  {
    testing::EnvScope traced({.telemetry = true});
    telemetry::clear_events();
    buffers_before = telemetry::num_thread_buffers();
    for (int i = 0; i < kConnections; ++i) {
      Client client = Client::connect_unix(sock);
      ASSERT_EQ(client.ping().type, ResponseType::kPong);
    }  // ~> destructor closes the socket; the connection thread exits

    server.stop();  // joins every connection thread: all tags released
  }

  // Sequential connections overlap only briefly (thread exit is async), so
  // the registry's high-water mark stays far below the connection count.
  EXPECT_LE(telemetry::num_thread_buffers(), buffers_before + 8);

  // The recycled buffers kept every exited thread's spans for the flush.
  int server_spans = 0;
  for (const telemetry::TraceEvent& e : telemetry::drain_events())
    if (std::strcmp(e.name, "server.request") == 0) ++server_spans;
  EXPECT_EQ(server_spans, kConnections);
}

// ---------------------------------------------------------------------------
// The real thing: kill -9 the glimpsed binary mid-job; a restarted daemon
// must resume and complete every accepted job bit-identically.
// ---------------------------------------------------------------------------

// A malformed numeric flag is a usage error (exit 2), never read as zero:
// `--quota-gpu-s abc` must not mean "no quota", nor `--tcp x` "any port".
TEST(ServiceDaemon, MalformedNumericFlagExitsWithUsageError) {
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--quota-gpu-s", "abc"},
        std::vector<std::string>{"--tcp", "x"}}) {
    testing::ChildProcess daemon(GLIMPSED_BIN, args);
    ASSERT_TRUE(daemon.started());
    const int status = daemon.wait_exit();
    EXPECT_TRUE(WIFEXITED(status)) << args[0];
    EXPECT_EQ(WEXITSTATUS(status), 2) << args[0];
  }
}

TEST(ServiceDaemon, SigkillMidJobThenRestartCompletesEverything) {
  // autotvm refits its surrogate every batch, which makes the job slow
  // enough (hundreds of ms) to reliably SIGKILL mid-run.
  JobSpec slow = small_job(/*seed=*/11, /*max_trials=*/160);
  slow.tuner = "autotvm";
  testing::DaemonFleet daemon(GLIMPSED_BIN, nullptr, "kill", 1);
  IdentityChecker({job_run(slow), job_run(small_job(/*seed=*/12, /*max_trials=*/32))})
      .expect_processes(daemon, {.kill_after = 8});
}

// The tentpole acceptance test: one traced job against a real glimpsed over
// a unix socket yields spans in BOTH processes sharing one trace id — the
// client-side request span here (this process is the traced client), and
// the daemon's server/queue/scheduler/measurer spans in the GLIMPSE_TRACE
// JSONL export it writes on clean shutdown. tools/trace_stitch.py merges
// the two files; this test checks the same join key the stitch relies on.
TEST(ServiceDaemon, DistributedTraceSharesOneTraceId) {
  testing::DaemonFleet daemon(GLIMPSED_BIN, nullptr, "trace", 1);
  daemon.start(/*traced=*/true);
  const std::string& daemon_trace = daemon.traces[0];

  std::vector<telemetry::TraceEvent> events;
  {
    testing::EnvScope traced({.telemetry = true});
    telemetry::clear_events();
    Client client = daemon.client();
    Response r = client.submit("tracer", 0, small_job(/*seed=*/31));
    ASSERT_EQ(r.type, ResponseType::kAccepted);
    // Accepted responses echo the request's traceparent back.
    EXPECT_FALSE(r.traceparent.empty());
    Response done = client.result(r.job_id, /*wait=*/true);
    ASSERT_EQ(done.type, ResponseType::kResult);
    EXPECT_EQ(done.summary.state, "done");
    EXPECT_EQ(client.shutdown().type, ResponseType::kOk);
    events = telemetry::drain_events();
  }
  int status = daemon.shards[0]->wait_exit();
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // Client half: the submit request span roots the trace.
  std::uint64_t hi = 0, lo = 0;
  int client_request_spans = 0;
  for (const telemetry::TraceEvent& e : events) {
    if (e.name == nullptr || std::strcmp(e.name, "client.request") != 0)
      continue;
    ++client_request_spans;
    if (e.note != nullptr && std::strcmp(e.note, "submit") == 0) {
      EXPECT_EQ(e.parent_span_id, 0u) << "the request span should be a root";
      hi = e.trace_id_hi;
      lo = e.trace_id_lo;
    }
  }
  EXPECT_GE(client_request_spans, 3);  // submit + result + shutdown
  ASSERT_NE(hi | lo, 0u) << "no traced submit request recorded client-side";
  const std::string trace_hex = hex64(hi) + hex64(lo);

  // Daemon half: its JSONL export holds the rest of the same trace.
  const std::string text = testing::read_file(daemon_trace);
  ASSERT_FALSE(text.empty()) << "daemon wrote no trace file: " << daemon_trace;
  const testing::JsonLines lines(text);
  bool saw_meta = false;
  std::set<std::string> names;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view name = testing::json_at(lines[i], "name").s;
    if (name == "trace_meta") saw_meta = true;
    const json::Node* id = json::find(testing::json_at(lines[i], "args"), "trace_id");
    if (id != nullptr && id->s == trace_hex) names.insert(std::string(name));
  }
  EXPECT_TRUE(saw_meta) << "daemon export lacks its trace_meta header";
  for (const char* want : {"server.request", "queue.wait", "job.run",
                           "scheduler.job_plan", "scheduler.job_round",
                           "measure.attempt"})
    EXPECT_TRUE(names.count(want) > 0)
        << want << " missing from the daemon's half of trace " << trace_hex;
}

}  // namespace
}  // namespace glimpse
