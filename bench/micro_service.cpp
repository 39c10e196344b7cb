// Tuning-service bench: the glimpsed daemon stack exercised end to end.
//
// Three scenarios, each against a fresh in-process SessionManager behind a
// real Unix-socket Server (so every job crosses the wire protocol both
// ways, like production clients):
//
//   * single_stream      -- one client streams distinct jobs and waits for
//                           each result; baseline daemon throughput.
//   * fleet_shared_cache -- several clients concurrently submit overlapping
//                           specs against a shared result cache; duplicate
//                           work must be deduplicated (cache hits and/or
//                           in-round sharing) and every duplicate must
//                           settle with identical best results.
//   * saturation_burst   -- a long-running job pins the worker, then a
//                           burst overruns the bounded queue; admission
//                           control must reject the overflow with a
//                           retry-after hint, never block or drop silently.
//
// Plus a tracing-overhead probe: the same ping round-trip timed with
// distributed tracing off and on, so the per-request cost of the span +
// traceparent layer shows up as a number instead of a guess.
//
// Gates (never skipped): per scenario, admission accounts for every request
// (accepted + rejected == submitted, completed + cancelled == accepted) and
// results are identical; the burst is rejected in part and the fleet hits
// the cache. Results go to stdout and BENCH_service.json.
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/telemetry/span.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/session_manager.hpp"

namespace {

using namespace glimpse;
using service::Client;
using service::JobSpec;
using service::Response;
using service::ResponseType;

constexpr std::uint64_t kMaxTrials = 48;
constexpr std::uint64_t kBatch = 8;
constexpr std::uint64_t kSlots = 4;

using bench::now_ms;

JobSpec job_spec(std::uint64_t seed, std::uint64_t max_trials = kMaxTrials) {
  JobSpec spec;
  spec.tuner = "random";
  spec.model = "resnet18";
  spec.task_index = 1;
  spec.gpu = "Titan Xp";
  spec.seed = seed;
  spec.max_trials = max_trials;
  spec.batch_size = kBatch;
  return spec;
}

struct Scenario {
  std::string name;
  std::size_t clients = 0;
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t trials_total = 0;
  std::uint64_t cache_hits = 0;
  bool results_identical = true;
  double wall_ms = 0.0;
};

void fill_totals(Scenario& s, bench::LocalDaemon& d) {
  Client c = Client::connect_unix(d.sock());
  Response stats = c.stats();
  s.completed = stats.stats.completed;
  s.cancelled = stats.stats.cancelled;
  s.cache_hits = stats.stats.cache_hits;
}

Scenario run_single_stream(int index) {
  Scenario s;
  s.name = "single_stream";
  s.clients = 1;
  service::SessionManagerOptions mopts;
  mopts.slots = kSlots;
  bench::LocalDaemon d(mopts, "service_" + std::to_string(index));
  double t0 = now_ms();

  Client client = Client::connect_unix(d.sock());
  constexpr std::size_t kJobs = 8;
  for (std::size_t j = 0; j < kJobs; ++j) {
    ++s.submitted;
    Response accepted = client.submit("stream", 0, job_spec(1000 + j));
    if (accepted.type != ResponseType::kAccepted) {
      ++s.rejected;
      continue;
    }
    ++s.accepted;
    Response done = client.result(accepted.job_id, /*wait=*/true);
    s.results_identical = s.results_identical &&
                          done.type == ResponseType::kResult &&
                          done.summary.state == "done";
    s.trials_total += done.summary.trials;
  }

  s.wall_ms = now_ms() - t0;
  fill_totals(s, d);
  return s;
}

Scenario run_fleet_shared_cache(int index) {
  Scenario s;
  s.name = "fleet_shared_cache";
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kJobsPerClient = 4;
  constexpr std::size_t kDistinctSeeds = 2;  // heavy overlap across clients
  s.clients = kClients;
  service::SessionManagerOptions mopts;
  mopts.slots = kSlots;
  mopts.cache = "mem";
  bench::LocalDaemon d(mopts, "service_" + std::to_string(index));
  double t0 = now_ms();

  // Warm the cache with one run per distinct spec first: the fleet's
  // duplicates then hit the cache regardless of round interleaving (fully
  // concurrent duplicates would otherwise be absorbed by the scheduler's
  // in-round sharing, which is invisible to the cache counters).
  std::size_t warm_accepted = 0;
  {
    Client warmer = Client::connect_unix(d.sock());
    for (std::size_t seed = 0; seed < kDistinctSeeds; ++seed) {
      Response r = warmer.submit("warmup", 0, job_spec(2000 + seed));
      if (r.type != ResponseType::kAccepted) continue;
      ++warm_accepted;
      warmer.result(r.job_id, true);
    }
  }

  std::mutex mu;
  std::vector<service::JobSummary> done;
  std::size_t accepted = 0, rejected = 0;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = Client::connect_unix(d.sock());
      std::vector<std::uint64_t> ids;
      for (std::size_t j = 0; j < kJobsPerClient; ++j) {
        Response r = client.submit("fleet" + std::to_string(c), 0,
                                   job_spec(2000 + j % kDistinctSeeds));
        std::lock_guard<std::mutex> lock(mu);
        if (r.type == ResponseType::kAccepted) {
          ++accepted;
          ids.push_back(r.job_id);
        } else {
          ++rejected;
        }
      }
      for (std::uint64_t id : ids) {
        Response r = client.result(id, /*wait=*/true);
        std::lock_guard<std::mutex> lock(mu);
        if (r.type == ResponseType::kResult) done.push_back(r.summary);
      }
    });
  }
  for (auto& t : threads) t.join();

  s.submitted = kDistinctSeeds + kClients * kJobsPerClient;
  s.accepted = warm_accepted + accepted;
  s.rejected = kDistinctSeeds - warm_accepted + rejected;
  // Every duplicate of a spec must settle with the identical best result no
  // matter which client ran first or how rounds interleaved: with only
  // kDistinctSeeds distinct specs there can be at most that many distinct
  // best-GFLOPS values (bit-compared) across all settled jobs.
  std::vector<double> distinct;
  for (const auto& summary : done) {
    s.results_identical = s.results_identical && summary.state == "done";
    s.trials_total += summary.trials;
    bool seen = false;
    for (double v : distinct) seen = seen || v == summary.best_gflops;
    if (!seen) distinct.push_back(summary.best_gflops);
  }
  s.results_identical = s.results_identical && done.size() == accepted &&
                        distinct.size() <= kDistinctSeeds;

  s.wall_ms = now_ms() - t0;
  fill_totals(s, d);
  return s;
}

Scenario run_saturation_burst(int index) {
  Scenario s;
  s.name = "saturation_burst";
  s.clients = 1;
  service::SessionManagerOptions mopts;
  mopts.slots = 1;
  mopts.queue.max_depth = 4;
  bench::LocalDaemon d(mopts, "service_" + std::to_string(index));
  double t0 = now_ms();

  Client client = Client::connect_unix(d.sock());
  // Pin the worker inside one long scheduler round.
  JobSpec hog = job_spec(1, /*max_trials=*/4096);
  hog.batch_size = 2048;
  ++s.submitted;
  Response hog_resp = client.submit("hog", 0, hog);
  bool hog_running = hog_resp.type == ResponseType::kAccepted;
  if (hog_running) ++s.accepted;
  while (hog_running) {
    Response st = client.stats();
    if (st.stats.running >= 1 && st.stats.queue_depth == 0) break;
    std::this_thread::yield();
  }

  for (std::size_t j = 0; j < 8; ++j) {
    ++s.submitted;
    Response r = client.submit("burst", 0, job_spec(3000 + j, /*max_trials=*/8));
    if (r.type == ResponseType::kAccepted)
      ++s.accepted;
    else
      ++s.rejected;
  }
  if (hog_running) client.cancel(hog_resp.job_id);
  client.drain();

  s.wall_ms = now_ms() - t0;
  fill_totals(s, d);
  return s;
}

struct TracingOverhead {
  std::size_t requests = 0;
  double off_us_per_req = 0.0;
  double on_us_per_req = 0.0;
  std::uint64_t traced_spans = 0;
};

/// Same client, same daemon, same request: ping round-trips timed with
/// tracing off and then on. Both halves run in this process, so the "on"
/// number carries the full cost of the layer (client request span, wire
/// traceparent, server request span, buffer appends).
TracingOverhead run_tracing_overhead(int index) {
  TracingOverhead t;
  constexpr std::size_t kRequests = 2000;
  t.requests = kRequests;
  bench::LocalDaemon d(service::SessionManagerOptions{}, "service_" + std::to_string(index));
  Client client = Client::connect_unix(d.sock());

  auto us_per_ping = [&](std::size_t n) {
    double t0 = now_ms();
    for (std::size_t i = 0; i < n; ++i) client.ping();
    return (now_ms() - t0) * 1000.0 / static_cast<double>(n);
  };

  us_per_ping(200);  // warm the connection and the daemon's dispatch path
  telemetry::set_tracing_enabled(false);
  t.off_us_per_req = us_per_ping(kRequests);
  telemetry::set_tracing_enabled(true);
  telemetry::clear_events();
  t.on_us_per_req = us_per_ping(kRequests);
  telemetry::set_tracing_enabled(false);
  t.traced_spans = telemetry::drain_events().size();
  return t;
}

/// Reports one scenario with its admission-accounting gates (never skipped).
void report_scenario(bench::Report& report, const Scenario& s) {
  using Op = bench::Report::Op;
  report.row({{"name", s.name},
              {"clients", s.clients},
              {"submitted", s.submitted},
              {"accepted", s.accepted},
              {"rejected", s.rejected},
              {"completed", s.completed},
              {"cancelled", s.cancelled},
              {"trials_total", s.trials_total},
              {"cache_hits", s.cache_hits},
              {"results_identical", s.results_identical},
              {"wall_ms", s.wall_ms}});
  report.gate(s.name + ".clients", s.clients, Op::kGe, 1);
  report.gate(s.name + ".accepted_plus_rejected", s.accepted + s.rejected, Op::kEq,
              s.submitted);
  report.gate(s.name + ".completed_plus_cancelled", s.completed + s.cancelled, Op::kEq,
              s.accepted);
  report.check(s.name + ".results_identical", s.results_identical);
}

}  // namespace

int main() {
  std::printf("=== micro_service: glimpsed daemon end to end ===\n\n");
  bench::Report report("service");
  report.param("slots", kSlots);
  report.param("max_trials", kMaxTrials);
  report.param("batch_size", kBatch);
  report_scenario(report, run_single_stream(0));
  const Scenario fleet = run_fleet_shared_cache(1);
  report_scenario(report, fleet);
  const Scenario burst = run_saturation_burst(2);
  report_scenario(report, burst);
  // The burst must actually overrun the queue, and the fleet must actually
  // share work across clients.
  report.gate(burst.name + ".rejected", burst.rejected, bench::Report::Op::kGe, 1);
  report.gate(fleet.name + ".cache_hits", fleet.cache_hits, bench::Report::Op::kGe, 1);

  const TracingOverhead overhead = run_tracing_overhead(3);
  report.param("tracing_requests", overhead.requests);
  report.row({{"name", "tracing_overhead"},
              {"off_us_per_req", overhead.off_us_per_req},
              {"on_us_per_req", overhead.on_us_per_req},
              {"traced_spans", overhead.traced_spans}});
  return report.write();
}
