// Service scenario: a team shares one glimpsed daemon.
//
// Several engineers tune the same model stages against the same GPUs — the
// daemon's whole value is that they share one scheduler slot pool and one
// measurement cache, so overlapping work is measured once and everyone gets
// bit-identical results. This example stands up an in-process daemon (the
// same SessionManager + Server the glimpsed binary runs), drives it from
// three concurrent "engineer" clients over a Unix socket, and then prints
// the daemon's counters so the dedup is visible.
//
// The same conversation works against a real daemon from the shell:
//   ./build/tools/glimpsed --unix /tmp/glimpsed.sock --cache mem &
//   ./build/tools/glimpse_client --unix /tmp/glimpsed.sock submit
//       --client alice --tuner random --model resnet18 --task 1 --wait
#include <unistd.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session_manager.hpp"

using namespace glimpse;

int main() {
  const std::string sock =
      "/tmp/glimpse_service_fleet_" + std::to_string(::getpid()) + ".sock";

  // The daemon: 4 scheduler slots, a shared in-memory result cache, and a
  // bounded queue (overflow gets a retry-after, it never blocks a client).
  service::SessionManagerOptions mopts;
  mopts.slots = 4;
  mopts.cache = "mem";
  mopts.queue.max_depth = 32;
  service::SessionManager manager(mopts);
  service::ServerOptions sopts;
  sopts.unix_path = sock;
  service::Server server(manager, sopts);
  server.start();
  std::printf("daemon up on %s\n\n", sock.c_str());

  // Three engineers, each tuning the same two ResNet-18 stages with the
  // team's standard seeds — maximal overlap, the daemon's best case.
  const std::vector<std::string> engineers = {"alice", "bob", "carol"};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (const std::string& who : engineers) {
    threads.emplace_back([&, who] {
      service::Client client = service::Client::connect_unix(sock);
      std::vector<std::uint64_t> ids;
      for (std::uint64_t task : {1, 5}) {
        service::JobSpec spec;
        spec.tuner = "random";
        spec.model = "resnet18";
        spec.task_index = task;
        spec.gpu = "Titan Xp";
        spec.seed = 7;  // the team convention: one seed, comparable runs
        spec.max_trials = 128;
        spec.batch_size = 8;
        service::Response r = client.submit(who, /*priority=*/0, spec);
        if (r.type == service::ResponseType::kAccepted) ids.push_back(r.job_id);
      }
      for (std::uint64_t id : ids) {
        service::Response done = client.result(id, /*wait=*/true);
        std::lock_guard<std::mutex> lock(mu);
        std::printf("%-6s job %llu: %-9s best %7.1f GFLOPS  (%zu trials, "
                    "%.1f simulated s)\n",
                    who.c_str(), static_cast<unsigned long long>(id),
                    done.summary.state.c_str(), done.summary.best_gflops,
                    static_cast<std::size_t>(done.summary.trials),
                    done.summary.elapsed_s);
      }
    });
  }
  for (auto& t : threads) t.join();

  // The receipts: 6 jobs over 2 distinct (task, seed) specs — the daemon
  // measured each distinct spec once; duplicates were served from the
  // shared cache / in-round sharing at zero simulated cost (identical
  // best_gflops above, elapsed_s ~0 for the copies).
  service::Client client = service::Client::connect_unix(sock);
  service::Response stats = client.stats();
  std::printf("\ndaemon counters: submitted %llu, completed %llu, "
              "cache hits %llu, cache inserts %llu\n",
              static_cast<unsigned long long>(stats.stats.submitted),
              static_cast<unsigned long long>(stats.stats.completed),
              static_cast<unsigned long long>(stats.stats.cache_hits),
              static_cast<unsigned long long>(stats.stats.cache_inserts));

  // Graceful teardown: stop admission, finish everything accepted.
  client.drain();
  server.stop();
  std::printf("daemon drained and stopped.\n");
  return 0;
}
