// glimpsed: the long-running tuning daemon.
//
// Accepts tuning jobs over the line-delimited JSON protocol
// (src/service/protocol.hpp) on a Unix-domain socket and/or a loopback TCP
// port, runs them on the shared multi-task scheduler slot pool, and spools
// every accepted job to disk so a crashed daemon resumes — and completes —
// all in-flight work on restart.
//
//   glimpsed --unix /tmp/glimpsed.sock --spool /var/tmp/glimpse-spool
//   glimpsed --tcp 7979 --slots 8 --cache mem
//
// Flags:
//   --unix PATH        listen on a Unix-domain socket (default when neither
//                      listener is given: ./glimpsed.sock)
//   --tcp PORT         listen on 127.0.0.1:PORT (0 = ephemeral; the chosen
//                      port is printed on the ready line)
//   --spool DIR        crash-safe spool directory (specs, checkpoints,
//                      results); omit to run without persistence
//   --spool-retain N   settled jobs kept in the spool across restarts;
//                      older settled entries are garbage-collected at
//                      startup (default 256, 0 = keep everything)
//   --slots N          concurrent measurer slots (default 4)
//   --cache MODE       result cache: "off", "mem", or a file path
//                      (default off)
//   --max-queue N      admission bound on queued jobs (default 64)
//   --max-per-client N per-client admission bound (default 0 = none)
//
// Fleet flags (multi-daemon deployments behind a ShardRing / glimpse-router):
//   --shard-name NAME  this daemon's identity on the consistent-hash ring;
//                      required with --cache-shared
//   --cache-shared DIR shared result-cache directory: this shard appends to
//                      DIR/tier-NAME.jsonl and merges every peer tier, so a
//                      hit on any shard eventually serves all shards
//                      (overrides --cache)
//   --auth TOKEN       shared-secret: refuse any request whose "auth" field
//                      does not match (default: GLIMPSE_AUTH, else open)
//   --tcp-any          bind --tcp on 0.0.0.0 instead of loopback; refused
//                      unless an auth token is set
//   --quota-gpu-s S    per-client simulated-GPU-seconds budget; submissions
//                      beyond it are rejected (0 = unlimited)
//   --warmstart        seed autotvm/chameleon jobs from the shared cache
//                      tiers (donor entries for the same task, weighted by
//                      Blueprint distance) before their first proposal;
//                      clients can opt a job out at submit time
//   --warmstart-predictor PATH
//                      learned config predictor (train with
//                      glimpse_warmstart) blended into the warm-start
//                      ranking; implies --warmstart
//
// On successful startup one ready line is printed to stdout:
//   glimpsed ready unix=<path|-> tcp=<port|-> spool=<dir|-> resumed=<n>
// Tests and wrappers block on that line before connecting. SIGINT/SIGTERM
// and the protocol `shutdown` request both stop the daemon gracefully
// (running jobs stay checkpointed in the spool).
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/strutil.hpp"
#include "common/telemetry/export.hpp"
#include "service/server.hpp"
#include "service/session_manager.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  char b = 's';
  ssize_t ignored = ::write(g_signal_pipe[1], &b, 1);
  (void)ignored;
}

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::cerr << "glimpsed: " << error << "\n";
  std::cerr << "usage: " << argv0
            << " [--unix PATH] [--tcp PORT] [--spool DIR] [--spool-retain N]"
               " [--slots N] [--cache off|mem|PATH] [--max-queue N]"
               " [--max-per-client N] [--shard-name NAME] [--cache-shared DIR]"
               " [--auth TOKEN] [--tcp-any] [--quota-gpu-s S] [--warmstart]"
               " [--warmstart-predictor PATH]\n";
  std::exit(error.empty() ? 0 : 2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace glimpse;
  telemetry::set_process_label("glimpsed");

  service::SessionManagerOptions mopts;
  service::ServerOptions sopts;
  if (const char* env = std::getenv("GLIMPSE_AUTH")) sopts.auth_token = env;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], arg + " needs a value");
      return argv[++i];
    };
    // The next argument as a whole-token number; anything else is a usage error.
    auto next_number = [&](auto& out) {
      const std::string v = next();
      if (!parse_number(v, out)) usage(argv[0], "bad value '" + v + "' for " + arg);
    };
    if (arg == "--unix") {
      sopts.unix_path = next();
    } else if (arg == "--tcp") {
      next_number(sopts.tcp_port);
    } else if (arg == "--spool") {
      mopts.spool_dir = next();
    } else if (arg == "--spool-retain") {
      next_number(mopts.spool_retain);
    } else if (arg == "--slots") {
      next_number(mopts.slots);
      if (mopts.slots < 1) usage(argv[0], "--slots must be >= 1");
    } else if (arg == "--cache") {
      const std::string v = next();
      mopts.cache = (v == "off") ? "" : v;
    } else if (arg == "--max-queue") {
      next_number(mopts.queue.max_depth);
      if (mopts.queue.max_depth < 1) usage(argv[0], "--max-queue must be >= 1");
    } else if (arg == "--max-per-client") {
      next_number(mopts.queue.max_per_client);
    } else if (arg == "--shard-name") {
      mopts.shard_name = next();
    } else if (arg == "--cache-shared") {
      mopts.cache_shared_dir = next();
    } else if (arg == "--auth") {
      sopts.auth_token = next();
      if (sopts.auth_token.empty()) usage(argv[0], "--auth token is empty");
    } else if (arg == "--tcp-any") {
      sopts.tcp_bind_any = true;
    } else if (arg == "--quota-gpu-s") {
      next_number(mopts.quota_gpu_s);
      if (mopts.quota_gpu_s < 0.0) usage(argv[0], "--quota-gpu-s must be >= 0");
    } else if (arg == "--warmstart") {
      mopts.warmstart = true;
    } else if (arg == "--warmstart-predictor") {
      mopts.warmstart_predictor = next();
      mopts.warmstart = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      usage(argv[0], "unknown flag " + arg);
    }
  }
  if (sopts.unix_path.empty() && sopts.tcp_port < 0)
    sopts.unix_path = "glimpsed.sock";
  if (!mopts.cache_shared_dir.empty() && mopts.shard_name.empty())
    usage(argv[0], "--cache-shared requires --shard-name");

  try {
    service::SessionManager manager(mopts);
    service::Server server(manager, sopts);
    server.start();

    if (::pipe(g_signal_pipe) != 0) {
      std::cerr << "glimpsed: pipe failed\n";
      return 1;
    }
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::thread signal_thread([&server] {
      char b;
      if (::read(g_signal_pipe[0], &b, 1) > 0) server.stop();
    });

    std::cout << "glimpsed ready unix="
              << (sopts.unix_path.empty() ? "-" : sopts.unix_path)
              << " tcp=" << server.tcp_port() << " spool="
              << (mopts.spool_dir.empty() ? "-" : mopts.spool_dir)
              << " resumed=" << manager.recovered()
              << " shard=" << (mopts.shard_name.empty() ? "-" : mopts.shard_name)
              << std::endl;

    server.wait_shutdown();
    server.stop();
    // Unblock the signal thread if no signal ever arrived.
    char b = 'q';
    ssize_t ignored = ::write(g_signal_pipe[1], &b, 1);
    (void)ignored;
    signal_thread.join();
    // Graceful shutdown is a quiescent point: every connection thread and
    // the worker have joined, so the span buffers are safe to flush.
    for (const std::string& path : telemetry::export_to_env_paths())
      std::cerr << "glimpsed: telemetry written to " << path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "glimpsed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
