// glimpse_router: consistent-hash front door for a glimpsed fleet.
//
// Speaks the same wire protocol as glimpsed but owns no scheduler: submits
// are routed to the shard the ShardRing picks for the job's task/hardware
// key; status/result/cancel/subscribe follow the job; stats aggregates and
// drain fans out across every shard. A client that cannot hash (one socket,
// zero fleet knowledge) talks to the router exactly as it would to a single
// glimpsed.
//
//   glimpse_router --unix /tmp/router.sock --shard s0=unix:/tmp/s0.sock --shard s1=unix:/tmp/s1.sock
//   glimpse_router --tcp 7980 --auth front-secret --upstream-auth fleet-secret --shard s0=tcp:10.0.0.1:7979 --shard s1=tcp:10.0.0.2:7979
//
// Flags:
//   --unix PATH          listen on a Unix-domain socket (default when no
//                        listener is given: ./glimpse_router.sock)
//   --tcp PORT           listen on 127.0.0.1:PORT (0 = ephemeral)
//   --tcp-any            bind --tcp on 0.0.0.0; refused without --auth
//   --shard NAME=ADDR    add a shard; ADDR is unix:PATH or tcp:HOST:PORT.
//                        NAME is the shard's ring identity: every router
//                        and ring-aware client must use identical names or
//                        placement diverges. Repeatable; at least one.
//   --auth TOKEN         shared-secret demanded from the router's clients
//   --upstream-auth TOK  shared-secret the router presents to the shards
//                        (their --auth); defaults to GLIMPSE_AUTH
//   --retries N          transport-failure retries per forward (default 40)
//   --retry-delay S      pause between retries in seconds (default 0.25)
//
// Ready line on stdout once listening:
//   glimpse_router ready unix=<path|-> tcp=<port|-> shards=<n>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/strutil.hpp"
#include "common/telemetry/export.hpp"
#include "service/router.hpp"
#include "service/server.hpp"

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  char b = 's';
  ssize_t ignored = ::write(g_signal_pipe[1], &b, 1);
  (void)ignored;
}

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::cerr << "glimpse_router: " << error << "\n";
  std::cerr << "usage: " << argv0
            << " [--unix PATH] [--tcp PORT] [--tcp-any]"
               " --shard NAME=unix:PATH|tcp:HOST:PORT [--shard ...]"
               " [--auth TOKEN] [--upstream-auth TOKEN]"
               " [--retries N] [--retry-delay S]\n";
  std::exit(error.empty() ? 0 : 2);
}

/// Parse "NAME=unix:PATH" or "NAME=tcp:HOST:PORT".
glimpse::service::ShardEndpoint parse_shard(const char* argv0,
                                            const std::string& spec) {
  glimpse::service::ShardEndpoint ep;
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0)
    usage(argv0, "--shard wants NAME=ADDR, got '" + spec + "'");
  ep.name = spec.substr(0, eq);
  const std::string addr = spec.substr(eq + 1);
  if (addr.rfind("unix:", 0) == 0) {
    ep.unix_path = addr.substr(5);
    if (ep.unix_path.empty()) usage(argv0, "empty unix path in '" + spec + "'");
  } else if (addr.rfind("tcp:", 0) == 0) {
    const std::string hostport = addr.substr(4);
    const std::size_t colon = hostport.rfind(':');
    if (colon == std::string::npos || colon == 0)
      usage(argv0, "--shard tcp wants HOST:PORT, got '" + spec + "'");
    ep.host = hostport.substr(0, colon);
    if (!glimpse::parse_number(hostport.substr(colon + 1), ep.port) || ep.port <= 0)
      usage(argv0, "bad port in '" + spec + "'");
  } else {
    usage(argv0, "--shard ADDR must start unix: or tcp:, got '" + spec + "'");
  }
  return ep;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace glimpse;
  telemetry::set_process_label("glimpse_router");

  service::RouterOptions ropts;
  if (const char* env = std::getenv("GLIMPSE_AUTH")) ropts.upstream_auth = env;
  service::ServerOptions sopts;

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
    } else if (arg == "--tcp-any") {
      sopts.tcp_bind_any = true;
    } else if (arg == "--shard") {
      ropts.shards.push_back(parse_shard(argv[0], next()));
    } else if (arg == "--auth") {
      sopts.auth_token = next();
      if (sopts.auth_token.empty()) usage(argv[0], "--auth token is empty");
    } else if (arg == "--upstream-auth") {
      ropts.upstream_auth = next();
    } else if (arg == "--retries") {
      next_number(ropts.connect_retries);
      if (ropts.connect_retries < 0) usage(argv[0], "--retries must be >= 0");
    } else if (arg == "--retry-delay") {
      next_number(ropts.retry_delay_s);
      if (ropts.retry_delay_s < 0.0)
        usage(argv[0], "--retry-delay must be >= 0");
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      usage(argv[0], "unknown flag " + arg);
    }
  }
  if (ropts.shards.empty()) usage(argv[0], "need at least one --shard");
  if (sopts.unix_path.empty() && sopts.tcp_port < 0)
    sopts.unix_path = "glimpse_router.sock";

  try {
    service::Router router(ropts);
    service::Server server(router, sopts);
    server.start();

    if (::pipe(g_signal_pipe) != 0) {
      std::cerr << "glimpse_router: pipe failed\n";
      return 1;
    }
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::thread signal_thread([&server] {
      char b;
      if (::read(g_signal_pipe[0], &b, 1) > 0) server.stop();
    });

    std::cout << "glimpse_router ready unix="
              << (sopts.unix_path.empty() ? "-" : sopts.unix_path)
              << " tcp=" << server.tcp_port()
              << " shards=" << router.ring().size() << std::endl;

    server.wait_shutdown();
    server.stop();
    char b = 'q';
    ssize_t ignored = ::write(g_signal_pipe[1], &b, 1);
    (void)ignored;
    signal_thread.join();
    for (const std::string& path : telemetry::export_to_env_paths())
      std::cerr << "glimpse_router: telemetry written to " << path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "glimpse_router: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
