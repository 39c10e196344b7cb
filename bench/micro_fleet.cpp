// Fleet scaling bench: the same job mix against 1, 2, and 4 glimpsed
// shards, placed by the client-side ShardRing exactly as a fleet client
// would (the hot path bypasses the router; the router is control-plane).
//
// Method: a warm-up pass runs every job once against a single shard with a
// shared cache directory, recording the reference decisions and filling
// the shared tier. Each measured point then boots N fresh shards against
// that warm tier (their constructors sync it), places every job with the
// ring, and times submit-to-settle for the whole mix. Cache-warm, the
// measured cost is the serving stack itself — protocol framing, queue,
// scheduler rounds, cache lookups — which is what must scale with shards.
//
// Gates: every point settles every job with decisions bit-identical to the
// single-shard reference (sharding must not change results), and the
// per-shard counts sum to the point totals — never skipped. Aggregate
// jobs/sec at 4 shards vs 1 is gated at scaling_4v1 >= 3.0 on hosts with
// >= 4 cores and skipped elsewhere, so the number is recorded either way.
//
// Results go to stdout and BENCH_fleet.json.
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/session_manager.hpp"
#include "service/shard_ring.hpp"

namespace {

using namespace glimpse;
using service::Client;
using service::JobSpec;
using service::JobSummary;
using service::Response;
using service::ResponseType;
using service::ShardRing;

constexpr std::uint64_t kMaxTrials = 16;
constexpr std::size_t kJobs = 48;

using bench::now_ms;

/// Distinct (task, gpu, seed) triples spread across 4 GPUs x 12 tasks so
/// the ring has real variety to place.
std::vector<JobSpec> workload() {
  static const char* kGpus[] = {"Titan Xp", "RTX 2070 Super", "RTX 2080 Ti",
                                "RTX 3090"};
  std::vector<JobSpec> jobs;
  for (std::size_t i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.tuner = "random";
    spec.model = "resnet18";
    spec.task_index = i % 12;
    spec.gpu = kGpus[i % 4];
    spec.seed = 7000 + i;
    spec.max_trials = kMaxTrials;
    spec.batch_size = 8;
    jobs.push_back(spec);
  }
  return jobs;
}

/// One in-process shard named `name` over the shared tier in `cache_dir`.
std::unique_ptr<bench::LocalDaemon> make_shard(const std::string& name,
                                               const std::string& cache_dir, int index) {
  service::SessionManagerOptions mopts;
  mopts.slots = 1;  // scaling must come from shard count, not slots
  mopts.cache_shared_dir = cache_dir;
  mopts.shard_name = name;
  return std::make_unique<bench::LocalDaemon>(
      mopts, "fleet_" + std::to_string(index) + "_" + name);
}

/// Key a job by its identity axes (ids differ per deployment).
std::uint64_t job_key(const JobSpec& s) { return s.seed; }

/// Runs one point and reports it, one row per shard, with its accounting and
/// bit-identity gates (never skipped). Returns the point's jobs/sec.
double run_point(bench::Report& report, std::size_t daemons, int index,
                 const std::string& cache_dir, const std::vector<JobSpec>& jobs,
                 const std::map<std::uint64_t, JobSummary>& reference) {
  using Op = bench::Report::Op;

  std::vector<std::string> names;
  std::vector<std::unique_ptr<bench::LocalDaemon>> shards;
  std::map<std::string, std::size_t> by_name;
  for (std::size_t i = 0; i < daemons; ++i) {
    names.push_back("p" + std::to_string(index) + "s" + std::to_string(i));
    by_name[names.back()] = i;
    shards.push_back(make_shard(names.back(), cache_dir, index * 8 + static_cast<int>(i)));
  }
  ShardRing ring(names);

  // One client thread per shard, each driving exactly the jobs the ring
  // places there: submit everything, then wait every result.
  std::vector<std::vector<const JobSpec*>> assigned(daemons);
  for (const JobSpec& j : jobs)
    assigned[by_name[ring.node_for_job(j)]].push_back(&j);

  std::vector<std::vector<JobSummary>> settled(daemons);
  const double t0 = now_ms();
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < daemons; ++s) {
    threads.emplace_back([&, s] {
      Client client = Client::connect_unix(shards[s]->sock());
      std::vector<std::uint64_t> ids;
      for (const JobSpec* spec : assigned[s]) {
        Response r = client.submit("bench", 0, *spec);
        if (r.type == ResponseType::kAccepted) ids.push_back(r.job_id);
      }
      for (std::uint64_t id : ids) {
        Response done = client.result(id, /*wait=*/true);
        if (done.type == ResponseType::kResult)
          settled[s].push_back(done.summary);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms = now_ms() - t0;

  std::uint64_t completed = 0;
  for (std::size_t s = 0; s < daemons; ++s) completed += settled[s].size();

  // Bit-identity against the reference, matched by submission order (each
  // shard settles its own jobs in its own id order = submission order).
  bool identical = completed == jobs.size();
  for (std::size_t s = 0; s < daemons; ++s) {
    if (settled[s].size() != assigned[s].size()) {
      identical = false;
      continue;
    }
    for (std::size_t i = 0; i < settled[s].size(); ++i) {
      const JobSummary& got = settled[s][i];
      auto it = reference.find(job_key(*assigned[s][i]));
      if (it == reference.end()) {
        identical = false;
        continue;
      }
      const JobSummary& want = it->second;
      identical = identical && got.state == "done" && got.trials == want.trials &&
                  got.faulted == want.faulted &&
                  got.best_gflops == want.best_gflops &&  // bits
                  got.best_config == want.best_config;
    }
  }

  std::vector<service::ServiceStats> stats;
  std::uint64_t cache_hits = 0, shard_completed = 0;
  for (std::size_t s = 0; s < daemons; ++s) {
    stats.push_back(Client::connect_unix(shards[s]->sock()).stats().stats);
    cache_hits += stats.back().cache_hits;
    shard_completed += stats.back().completed;
  }
  const double jobs_per_s =
      wall_ms > 0.0 ? static_cast<double>(completed) * 1000.0 / wall_ms : 0.0;
  std::uint64_t shard_hits = 0;
  for (std::size_t s = 0; s < daemons; ++s) {
    report.row({{"daemons", daemons},
                {"wall_ms", wall_ms},
                {"jobs_per_s", jobs_per_s},
                {"completed", completed},
                {"cache_hits", cache_hits},
                {"shard", names[s]},
                {"shard_completed", stats[s].completed},
                {"shard_cache_hits", stats[s].cache_hits}});
    shard_hits += stats[s].cache_hits;
  }
  const std::string d = "d" + std::to_string(daemons);
  report.gate(d + ".completed", completed, Op::kEq, kJobs);
  report.gate(d + ".shards_reporting", stats.size(), Op::kEq, daemons);
  report.gate(d + ".shard_completed_sum", shard_completed, Op::kEq, completed);
  report.gate(d + ".shard_cache_hits_sum", shard_hits, Op::kEq, cache_hits);
  report.check(d + ".decisions_identical", identical);
  return jobs_per_s;
}

}  // namespace

int main() {
  std::printf("=== micro_fleet: sharded glimpsed scaling ===\n\n");
  bench::Report report("fleet");
  report.param("jobs", kJobs);
  report.param("max_trials", kMaxTrials);
  const std::vector<JobSpec> jobs = workload();

  const std::string cache_dir =
      "/tmp/glimpse_micro_fleet_cache_" + std::to_string(::getpid());
  std::filesystem::remove_all(cache_dir);

  // Warm-up pass: fill the shared tier and record reference decisions.
  std::map<std::uint64_t, JobSummary> reference;
  {
    auto warm = make_shard("warm", cache_dir, 99);
    Client client = Client::connect_unix(warm->sock());
    double t0 = now_ms();
    std::vector<std::uint64_t> ids;
    for (const JobSpec& spec : jobs) {
      Response r = client.submit("warm", 0, spec);
      if (r.type == ResponseType::kAccepted) ids.push_back(r.job_id);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Response done = client.result(ids[i], /*wait=*/true);
      if (done.type == ResponseType::kResult)
        reference[job_key(jobs[i])] = done.summary;
    }
    std::printf("warm-up          %zu jobs  wall %8.1f ms (cache-cold)\n",
                reference.size(), now_ms() - t0);
  }
  if (reference.size() != jobs.size()) {
    std::printf("warm-up failed to settle every job\n");
    return 1;
  }

  // Aggregate jobs/sec at the largest shard count vs one shard.
  const double jobs_per_s_1 = run_point(report, 1, 0, cache_dir, jobs, reference);
  run_point(report, 2, 1, cache_dir, jobs, reference);
  const double jobs_per_s_4 = run_point(report, 4, 2, cache_dir, jobs, reference);
  const double scaling_4v1 = jobs_per_s_1 > 0.0 ? jobs_per_s_4 / jobs_per_s_1 : 0.0;
  report.gate("scaling_4v1", scaling_4v1, bench::Report::Op::kGe, 3.0,
              {.hardware_concurrency = 4});
  std::filesystem::remove_all(cache_dir);
  return report.write();
}
