// Fleet tests (ctest -L service / -L fleet): N glimpsed shards behind the
// consistent-hash Router.
//
// In-process: Router routing/id-remapping/stats-aggregation/drain-fan-out,
// subscribe streaming through the router, shared-secret auth, per-client
// simulated-GPU-seconds quotas, and the shared result-cache tier (a hit on
// any shard eventually serves all shards).
//
// Real processes: a 12-job mixed-priority workload against 4 real glimpsed
// daemons behind a real glimpse_router must settle bit-identically to the
// same workload on a single daemon, with each job's trace id present in
// both the router's and the owning shard's GLIMPSE_TRACE export; and a
// SIGKILLed shard mid-job must fail over — the client's call rides the
// router's retry loop, the restarted shard resumes from its spool, the
// job completes bit-identically, and the other shards are unperturbed.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/json_reader.hpp"
#include "common/strutil.hpp"
#include "common/telemetry/span.hpp"
#include "identity.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "service/session_manager.hpp"
#include "service/shard_ring.hpp"
#include "test_util.hpp"
#include "tuning/session.hpp"

namespace glimpse {
namespace {

using service::Client;
using service::JobSpec;
using service::JobSummary;
using service::Request;
using service::RequestHandler;
using service::RequestType;
using service::Response;
using service::ResponseType;
using service::Router;
using service::RouterOptions;
using service::Server;
using service::ServerOptions;
using service::ServiceStats;
using service::SessionManager;
using service::SessionManagerOptions;
using service::ShardEndpoint;
using service::ShardRing;
using testing::DaemonFleet;
using testing::expect_summary_matches_trace;
using testing::IdentityChecker;
using testing::job_run;
using testing::job_spec;
using testing::reference_trace;
using testing::short_sock_path;
using testing::tmp_path;
using testing::unix_server;

const char* kGpus[] = {"Titan Xp", "RTX 2070 Super", "RTX 2080 Ti",
                       "RTX 3090"};

/// The 12-job mixed-priority acceptance workload: distinct (task, gpu)
/// pairs so every job exercises its own cache entries, priorities cycling
/// high/normal/low.
std::vector<std::pair<std::int64_t, JobSpec>> fleet_workload() {
  std::vector<std::pair<std::int64_t, JobSpec>> jobs;
  for (std::uint64_t i = 0; i < 12; ++i)
    jobs.emplace_back(static_cast<std::int64_t>(i % 3) - 1,
                      job_spec(kGpus[i % 4], i % 6, 100 + i));
  return jobs;
}

// ---------------------------------------------------------------------------
// In-process fleet: Router + two real shard servers over unix sockets.
// ---------------------------------------------------------------------------

/// Two SessionManager shards served on unix sockets plus an in-process
/// Router pointed at them. The Router is exercised directly through its
/// RequestHandler interface (no third server needed).
struct MiniFleet {
  explicit MiniFleet(const std::string& tag,
                     SessionManagerOptions mopts = {}) {
    mopts.slots = 2;
    if (mopts.cache.empty() && mopts.cache_shared_dir.empty())
      mopts.cache = "mem";
    for (int i = 0; i < 2; ++i) {
      const std::string name = "s" + std::to_string(i);
      socks.push_back(short_sock_path(tag + name));
      SessionManagerOptions per = mopts;
      if (!per.cache_shared_dir.empty()) per.shard_name = name;
      managers.push_back(std::make_unique<SessionManager>(per));
      servers.push_back(std::make_unique<Server>(
          *managers.back(), unix_server(socks.back())));
      servers.back()->start();
      endpoints.push_back(ShardEndpoint{name, socks.back(), "", -1});
    }
    RouterOptions ropts;
    ropts.shards = endpoints;
    ropts.connect_retries = 2;
    ropts.retry_delay_s = 0.05;
    router = std::make_unique<Router>(ropts);
  }

  ~MiniFleet() {
    router->stop();
    for (auto& s : servers) s->stop();
  }

  /// Drive one request through the router, collecting every emitted
  /// response (subscribe emits several).
  std::vector<Response> call(const Request& req) {
    std::vector<Response> out;
    router->handle(req, [&](const Response& r) {
      out.push_back(r);
      return true;
    });
    return out;
  }

  Response call_one(const Request& req) {
    std::vector<Response> out = call(req);
    EXPECT_EQ(out.size(), 1u);
    return out.empty() ? Response{} : out.back();
  }

  Response submit(const JobSpec& spec, std::int64_t priority = 0,
                  const std::string& client = "fleet") {
    Request req;
    req.type = RequestType::kSubmit;
    req.client = client;
    req.priority = priority;
    req.job = spec;
    return call_one(req);
  }

  Response result_wait(std::uint64_t id) {
    Request req;
    req.type = RequestType::kResult;
    req.job_id = id;
    req.wait = true;
    return call_one(req);
  }

  std::vector<std::string> socks;
  std::vector<std::unique_ptr<SessionManager>> managers;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<ShardEndpoint> endpoints;
  std::unique_ptr<Router> router;
};

TEST(FleetRouter, RoutesByRingAndRemapsJobIds) {
  MiniFleet fleet("route");
  ShardRing ring({"s0", "s1"});

  // Enough distinct tasks to hit both shards.
  std::vector<JobSpec> specs;
  std::set<std::string> shards_used;
  for (std::uint64_t t = 0; t < 6; ++t) {
    specs.push_back(job_spec(kGpus[t % 4], t, 500 + t, /*max_trials=*/8));
    shards_used.insert(ring.node_for_job(specs.back()));
  }
  ASSERT_EQ(shards_used.size(), 2u) << "workload never crosses shards";

  std::vector<std::uint64_t> ids;
  for (const JobSpec& s : specs) {
    Response r = fleet.submit(s);
    ASSERT_EQ(r.type, ResponseType::kAccepted);
    ids.push_back(r.job_id);
  }
  // Router ids are dense and router-owned: both shards number from 1, so
  // without remapping six submits could not yield six distinct ids.
  std::set<std::uint64_t> unique_ids(ids.begin(), ids.end());
  EXPECT_EQ(unique_ids.size(), specs.size());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i + 1);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    Response done = fleet.result_wait(ids[i]);
    ASSERT_EQ(done.type, ResponseType::kResult);
    EXPECT_EQ(done.summary.job_id, ids[i]) << "summary not remapped";
    expect_summary_matches_trace(done.summary, reference_trace(job_run(specs[i])));
  }

  Request unknown;
  unknown.type = RequestType::kStatus;
  unknown.job_id = 999;
  Response err = fleet.call_one(unknown);
  EXPECT_EQ(err.type, ResponseType::kError);
  EXPECT_EQ(err.reason, "unknown job_id");
}

TEST(FleetRouter, StatsAggregateAndDrainFansOut) {
  MiniFleet fleet("stats");
  // The router's aggregate, field by field, against the shards' own stats:
  // counters sum, flags OR.
  auto expect_aggregate = [&](const ServiceStats& agg) {
    ServiceStats want;
    for (const auto& m : fleet.managers) {
      const ServiceStats s = m->stats().stats;
      want.queue_depth += s.queue_depth;
      want.running += s.running;
      want.jobs_inflight += s.jobs_inflight;
      want.admitted_prio_high += s.admitted_prio_high;
      want.admitted_prio_normal += s.admitted_prio_normal;
      want.admitted_prio_low += s.admitted_prio_low;
      want.submitted += s.submitted;
      want.completed += s.completed;
      want.cancelled += s.cancelled;
      want.failed += s.failed;
      want.rejected += s.rejected;
      want.quota_rejections += s.quota_rejections;
      want.resumed += s.resumed;
      want.slots += s.slots;
      want.cache_enabled = want.cache_enabled || s.cache_enabled;
      want.cache_hits += s.cache_hits;
      want.cache_inserts += s.cache_inserts;
      want.shared_hits += s.shared_hits;
      want.draining = want.draining || s.draining;
    }
    auto text = [](const ServiceStats& st) {
      Response r;
      r.type = ResponseType::kStats;
      r.stats = st;
      return service::encode_response(r);
    };
    EXPECT_EQ(agg, want) << text(agg) << "\nwant " << text(want);
  };
  Response a = fleet.submit(job_spec("Titan Xp", 1, 900, 8), /*priority=*/1);
  Response b = fleet.submit(job_spec("RTX 3090", 2, 901, 8), /*priority=*/-1);
  ASSERT_EQ(a.type, ResponseType::kAccepted);
  ASSERT_EQ(b.type, ResponseType::kAccepted);
  fleet.result_wait(a.job_id);
  fleet.result_wait(b.job_id);

  Request sreq;
  sreq.type = RequestType::kStats;
  Response stats = fleet.call_one(sreq);
  ASSERT_EQ(stats.type, ResponseType::kStats);
  EXPECT_EQ(stats.stats.submitted, 2u);
  EXPECT_EQ(stats.stats.completed, 2u);
  EXPECT_EQ(stats.stats.admitted_prio_high, 1u);
  EXPECT_EQ(stats.stats.admitted_prio_low, 1u);
  EXPECT_EQ(stats.stats.slots, 4u) << "2 shards x 2 slots must sum";
  EXPECT_TRUE(stats.stats.cache_enabled);
  expect_aggregate(stats.stats);

  Request dreq;
  dreq.type = RequestType::kDrain;
  EXPECT_EQ(fleet.call_one(dreq).type, ResponseType::kOk);
  Response rejected = fleet.submit(job_spec("Titan Xp", 3, 902, 8));
  EXPECT_EQ(rejected.type, ResponseType::kRejected);
  // Draining is now true on every shard, and the aggregate ORs it.
  stats = fleet.call_one(sreq);
  ASSERT_EQ(stats.type, ResponseType::kStats);
  EXPECT_TRUE(stats.stats.draining);
  EXPECT_EQ(stats.stats.rejected, 1u);
  expect_aggregate(stats.stats);
}

TEST(FleetRouter, SubscribeStreamsThroughWithRouterIds) {
  MiniFleet fleet("sub");
  // autotvm refits its surrogate every batch, slow enough (hundreds of ms)
  // that the subscription reliably attaches before the job settles.
  const JobSpec spec = job_spec("RTX 2080 Ti", 1, 910, /*max_trials=*/120,
                                /*tuner=*/"autotvm");
  Response acc = fleet.submit(spec);
  ASSERT_EQ(acc.type, ResponseType::kAccepted);

  Request sub;
  sub.type = RequestType::kSubscribe;
  sub.job_id = acc.job_id;
  std::vector<Response> stream = fleet.call(sub);
  ASSERT_GE(stream.size(), 2u) << "expected >=1 interim push + final result";
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    EXPECT_EQ(stream[i].type, ResponseType::kStatus);
    EXPECT_EQ(stream[i].summary.job_id, acc.job_id) << "push not remapped";
  }
  ASSERT_EQ(stream.back().type, ResponseType::kResult);
  EXPECT_EQ(stream.back().summary.job_id, acc.job_id);
  expect_summary_matches_trace(stream.back().summary, reference_trace(job_run(spec)));
  // Trials grow monotonically along the stream.
  for (std::size_t i = 1; i < stream.size(); ++i)
    EXPECT_GE(stream[i].summary.trials, stream[i - 1].summary.trials);

  // Subscribing to an already-settled job pushes the final result at once.
  std::vector<Response> again = fleet.call(sub);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again.back().type, ResponseType::kResult);
}

TEST(FleetRouter, ConstructorRejectsBadTopologies) {
  RouterOptions empty;
  EXPECT_THROW(Router{empty}, std::invalid_argument);
  RouterOptions dup;
  dup.shards = {ShardEndpoint{"s0", "/tmp/a.sock", "", -1},
                ShardEndpoint{"s0", "/tmp/b.sock", "", -1}};
  EXPECT_THROW(Router{dup}, std::invalid_argument);
  RouterOptions addressless;
  addressless.shards = {ShardEndpoint{"s0", "", "", -1}};
  EXPECT_THROW(Router{addressless}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Deferred hardening: auth and quotas.
// ---------------------------------------------------------------------------

TEST(FleetAuth, TokenGatesEveryRequestOnEveryListener) {
  const std::string sock = short_sock_path("auth");
  SessionManager manager{SessionManagerOptions{}};
  ServerOptions sopts;
  sopts.unix_path = sock;
  sopts.auth_token = "fleet-secret";
  Server server(manager, sopts);
  server.start();

  Client anon = Client::connect_unix(sock);
  Response denied = anon.ping();
  EXPECT_EQ(denied.type, ResponseType::kError);
  EXPECT_EQ(denied.reason, "unauthorized");
  // The connection stays open: a fixed client can retry with the token.
  anon.set_auth("wrong-token");
  EXPECT_EQ(anon.ping().type, ResponseType::kError);
  anon.set_auth("fleet-secret");
  EXPECT_EQ(anon.ping().type, ResponseType::kPong);
  EXPECT_EQ(anon.stats().type, ResponseType::kStats);
  server.stop();
}

TEST(FleetAuth, NonLoopbackTcpRefusedWithoutToken) {
  SessionManager manager{SessionManagerOptions{}};
  ServerOptions sopts;
  sopts.tcp_port = 0;
  sopts.tcp_bind_any = true;  // 0.0.0.0 without auth must be refused
  Server server(manager, sopts);
  EXPECT_THROW(server.start(), std::invalid_argument);

  SessionManager manager2{SessionManagerOptions{}};
  ServerOptions ok = sopts;
  ok.auth_token = "secret";
  Server server2(manager2, ok);
  server2.start();  // with a token the wide bind is allowed
  EXPECT_GT(server2.tcp_port(), 0);
  server2.stop();
}

TEST(FleetQuota, PerClientSimulatedGpuSecondsQuota) {
  SessionManagerOptions mopts;
  mopts.slots = 1;
  // One 16-trial job burns tens of simulated GPU-seconds, far beyond 1.0:
  // the first job runs to completion, the second submit must be refused.
  mopts.quota_gpu_s = 1.0;
  SessionManager manager(mopts);

  const JobSpec spec = job_spec("Titan Xp", 1, 920, /*max_trials=*/16);
  Response first = manager.submit("heavy", 0, spec);
  ASSERT_EQ(first.type, ResponseType::kAccepted);
  Response done = manager.result(first.job_id, /*wait=*/true);
  ASSERT_EQ(done.type, ResponseType::kResult);
  EXPECT_EQ(done.summary.state, "done");
  EXPECT_GT(done.summary.elapsed_s, mopts.quota_gpu_s);

  Response refused = manager.submit("heavy", 0, spec);
  EXPECT_EQ(refused.type, ResponseType::kRejected);
  EXPECT_EQ(refused.reason, "quota_exhausted");
  // Quotas never replenish within a daemon lifetime, so the rejection is
  // terminal: retry_after_s must be 0 ("don't retry"), not a hint that
  // sends clients into an infinite retry loop.
  EXPECT_EQ(refused.retry_after_s, 0.0);

  // Quotas are per client: a different identity is admitted.
  Response other = manager.submit("light", 0, spec);
  EXPECT_EQ(other.type, ResponseType::kAccepted);
  EXPECT_EQ(manager.result(other.job_id, true).summary.state, "done");

  Response stats = manager.stats();
  EXPECT_EQ(stats.stats.quota_rejections, 1u);
  EXPECT_EQ(stats.stats.rejected, 1u);
}

// ---------------------------------------------------------------------------
// Shared result-cache tier: a hit on any shard eventually serves them all.
// ---------------------------------------------------------------------------

TEST(FleetSharedCache, WarmShardServesPeersAndRestarts) {
  const std::string dir = tmp_path("fleet_shared_cache");
  std::filesystem::remove_all(dir);
  const JobSpec spec = job_spec("RTX 3090", 2, 930, /*max_trials=*/32);
  const tuning::Trace reference = reference_trace(job_run(spec));

  SessionManagerOptions base;
  base.slots = 1;
  base.cache_shared_dir = dir;

  SessionManagerOptions m0 = base;
  m0.shard_name = "s0";
  SessionManager s0(m0);
  Response warm = s0.submit("warmup", 0, spec);
  ASSERT_EQ(warm.type, ResponseType::kAccepted);
  Response warm_done = s0.result(warm.job_id, true);
  ASSERT_EQ(warm_done.summary.state, "done");
  EXPECT_EQ(s0.stats().stats.cache_hits, 0u);
  expect_summary_matches_trace(warm_done.summary, reference);

  // A peer shard running the same task adopts s0's tier between rounds:
  // later rounds of the very same job already hit, and the decisions stay
  // bit-identical to the uncached run.
  SessionManagerOptions m1 = base;
  m1.shard_name = "s1";
  SessionManager s1(m1);
  Response peer = s1.submit("peer", 0, spec);
  ASSERT_EQ(peer.type, ResponseType::kAccepted);
  Response peer_done = s1.result(peer.job_id, true);
  ASSERT_EQ(peer_done.summary.state, "done");
  expect_summary_matches_trace(peer_done.summary, reference);
  EXPECT_GT(s1.stats().stats.cache_hits, 0u)
      << "peer tier never served this shard";

  // A shard (re)started after the fleet warmed up syncs at construction
  // and serves the whole job from cache.
  SessionManagerOptions m2 = base;
  m2.shard_name = "s2";
  SessionManager s2(m2);
  Response cold = s2.submit("restart", 0, spec);
  ASSERT_EQ(cold.type, ResponseType::kAccepted);
  Response cold_done = s2.result(cold.job_id, true);
  ASSERT_EQ(cold_done.summary.state, "done");
  expect_summary_matches_trace(cold_done.summary, reference);
  EXPECT_EQ(s2.stats().stats.cache_hits, spec.max_trials)
      << "a boot-time sync should serve every trial";

  // Every shard appended only its own tier file.
  EXPECT_TRUE(std::filesystem::exists(dir + "/tier-s0.jsonl"));
  for (const char* peer_tier : {"tier-s1.jsonl", "tier-s2.jsonl"}) {
    // Peers measured nothing new for this job beyond their own misses.
    const std::string p = dir + "/" + peer_tier;
    if (std::filesystem::exists(p)) {
      EXPECT_LT(std::filesystem::file_size(p),
                std::filesystem::file_size(dir + "/tier-s0.jsonl"));
    }
  }
}

// ---------------------------------------------------------------------------
// Real processes: 4 glimpsed shards behind a real glimpse_router.
// ---------------------------------------------------------------------------

/// The trace ids (32 hex digits) of the events in the JSONL trace at `path`.
std::set<std::string> trace_ids(const std::string& path) {
  const testing::JsonLines lines(testing::read_file(path));
  std::set<std::string> ids;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (const json::Node* id = json::find(testing::json_at(lines[i], "args"), "trace_id"))
      ids.emplace(id->s);
  return ids;
}

// The acceptance test: the 12-job mixed-priority workload settles
// bit-identically on a single daemon and on 4 real glimpsed shards behind a
// real glimpse_router, and every job's trace id shows up in both the
// router's and exactly its own shard's trace export.
TEST(FleetDaemons, TwelveJobsAcrossFourShardsMatchSingleDaemon) {
  std::vector<testing::TuningRun> runs;
  for (const auto& [prio, spec] : fleet_workload()) runs.push_back(job_run(spec, prio));
  IdentityChecker check(std::move(runs));
  DaemonFleet single(GLIMPSED_BIN, nullptr, "single", 1);
  check.expect_processes(single, {});
  DaemonFleet fleet(GLIMPSED_BIN, GLIMPSE_ROUTER_BIN, "accept", 4);
  check.expect_processes(fleet, {.traced = true});

  // Trace stitching: every submit's trace id must appear in the router
  // export AND in exactly one shard export (the shard that ran the job).
  std::vector<std::string> trace_hexes;
  for (const telemetry::TraceEvent& e : telemetry::drain_events()) {
    if (e.name == nullptr || std::strcmp(e.name, "client.request") != 0)
      continue;
    if (e.note == nullptr || std::strcmp(e.note, "submit") != 0) continue;
    trace_hexes.push_back(hex64(e.trace_id_hi) + hex64(e.trace_id_lo));
  }
  ASSERT_EQ(trace_hexes.size(), 12u);
  const std::set<std::string> router_ids = trace_ids(fleet.router_trace);
  std::vector<std::set<std::string>> shard_ids;
  for (const std::string& trace : fleet.traces) shard_ids.push_back(trace_ids(trace));
  for (const std::string& hex : trace_hexes) {
    EXPECT_TRUE(router_ids.count(hex) > 0) << "router spans missing for trace " << hex;
    int shards_with_trace = 0;
    for (const std::set<std::string>& ids : shard_ids)
      if (ids.count(hex) > 0) ++shards_with_trace;
    EXPECT_EQ(shards_with_trace, 1)
        << "trace " << hex << " should live on exactly the owning shard";
  }
}

// Failover: SIGKILL the shard that owns a long-running job. Jobs on the
// other three shards complete undisturbed while it is down; once the shard
// restarts (same name, same spool), the client's result(wait) — which rode
// the router's retry loop the whole time — returns the job resumed from
// its checkpoint, bit-identical to an uninterrupted run.
TEST(FleetDaemons, SigkillShardFailsOverAndResumesBitIdentically) {
  DaemonFleet fleet(GLIMPSED_BIN, GLIMPSE_ROUTER_BIN, "kill", 4);
  const ShardRing ring(fleet.names);

  // The victim job: slow enough (autotvm refits per batch) to be killed
  // mid-run reliably.
  const JobSpec slow = job_spec("Titan Xp", 1, 11, /*max_trials=*/160,
                                /*tuner=*/"autotvm");
  const std::string victim = ring.node_for_job(slow);

  // One quick job pinned to every *other* shard, to prove they are
  // unperturbed while the victim is down.
  std::vector<testing::TuningRun> runs = {job_run(slow, 1)};
  std::set<std::string> covered;
  for (std::uint64_t seed = 300; covered.size() < 3; ++seed) {
    JobSpec q = job_spec(kGpus[seed % 4], seed % 6, seed, /*max_trials=*/12);
    const std::string& shard = ring.node_for_job(q);
    if (shard == victim || covered.count(shard)) continue;
    covered.insert(shard);
    runs.push_back(job_run(q));
  }
  IdentityChecker(std::move(runs)).expect_processes(fleet, {.kill_after = 8});
}

}  // namespace
}  // namespace glimpse
