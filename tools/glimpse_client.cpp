// glimpse_client: command-line client for the glimpsed daemon.
//
//   glimpse_client --unix /tmp/glimpsed.sock ping
//   glimpse_client --tcp 7979 submit --client alice --model resnet18 --task 1 --tuner random --seed 7 --max-trials 64 --wait
//   glimpse_client --unix glimpsed.sock status 3
//   glimpse_client --unix glimpsed.sock result 3 --wait
//   glimpse_client --unix glimpsed.sock stats
//   glimpse_client --unix glimpsed.sock drain
//   glimpse_client --unix glimpsed.sock shutdown
//
// Every response is printed to stdout as its single protocol JSON line, so
// the output is both readable and scriptable (pipe through python -m
// json.tool for pretty-printing). Exit status: 0 on ok/accepted/settled-done
// responses, 1 on error/rejected/failed, 2 on usage errors.
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/strutil.hpp"
#include "common/telemetry/export.hpp"
#include "service/client.hpp"

namespace {

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "glimpse_client: " << error << "\n";
  std::cerr <<
      "usage: glimpse_client (--unix PATH | --tcp [HOST:]PORT)"
      " [--auth TOKEN] COMMAND\n"
      "  --auth TOKEN   shared-secret for daemons started with --auth\n"
      "                 (default: GLIMPSE_AUTH environment variable)\n"
      "commands:\n"
      "  ping\n"
      "  submit --client NAME [--priority P] [--tuner T] [--model M]\n"
      "         [--task I] [--gpu NAME] [--seed S] [--max-trials N]\n"
      "         [--batch N] [--plateau N] [--time-budget S]\n"
      "         [--no-warmstart] [--wait]\n"
      "         (--no-warmstart: run this job cold even on a daemon\n"
      "          started with --warmstart)\n"
      "  status JOB_ID\n"
      "  result JOB_ID [--wait]\n"
      "  subscribe JOB_ID   (stream status pushes until the job settles)\n"
      "  cancel JOB_ID\n"
      "  stats | drain | shutdown\n";
  std::exit(2);
}

/// Parse `s` as a whole-token number into `out`; anything else is a usage
/// error naming `what`.
template <typename T>
void parse_or_usage(const std::string& what, const std::string& s, T& out) {
  if (!glimpse::parse_number(s, out)) usage("bad " + what + " '" + s + "'");
}

std::uint64_t parse_id(const std::string& s) {
  std::uint64_t id = 0;
  parse_or_usage("job id", s, id);
  return id;
}

int exit_code(const glimpse::service::Response& r) {
  using glimpse::service::ResponseType;
  if (r.type == ResponseType::kError || r.type == ResponseType::kRejected)
    return 1;
  if ((r.type == ResponseType::kResult || r.type == ResponseType::kStatus) &&
      r.summary.state == "failed")
    return 1;
  return 0;
}

/// Rejections get a human explanation on stderr (stdout stays one
/// scriptable JSON line). retry_after_s == 0 on a rejection is the daemon
/// saying "terminal — retrying cannot succeed": quota_exhausted in
/// particular never clears within a daemon lifetime, so looping on it just
/// burns connections.
void explain_rejection(const glimpse::service::Response& r) {
  if (r.type != glimpse::service::ResponseType::kRejected) return;
  if (r.reason == "quota_exhausted") {
    std::cerr << "glimpse_client: rejected: simulated GPU-second quota "
                 "exhausted; quotas never replenish while the daemon runs, "
                 "so do not retry — ask the operator to raise --quota-gpu-s "
                 "or restart the daemon\n";
  } else if (r.retry_after_s > 0.0) {
    std::cerr << "glimpse_client: rejected (" << r.reason << "); retry after "
              << r.retry_after_s << "s\n";
  } else {
    std::cerr << "glimpse_client: rejected (" << r.reason
              << "); terminal, do not retry\n";
  }
}

int print_and_exit_code(const glimpse::service::Response& r) {
  std::cout << glimpse::service::encode_response(r) << std::endl;
  explain_rejection(r);
  return exit_code(r);
}

/// Human-readable load summary for `stats`, on stderr so stdout stays one
/// scriptable JSON line.
void print_stats_summary(const glimpse::service::Response& r) {
  if (r.type != glimpse::service::ResponseType::kStats) return;
  const glimpse::service::ServiceStats& s = r.stats;
  std::cerr << "queue_depth=" << s.queue_depth << " running=" << s.running
            << " jobs_inflight=" << s.jobs_inflight << "\n"
            << "admitted priority: high=" << s.admitted_prio_high
            << " normal=" << s.admitted_prio_normal
            << " low=" << s.admitted_prio_low << "\n";
}

/// Flushes span buffers to GLIMPSE_TRACE (JSONL segments append, so every
/// client invocation adds to the same file) on every return from main.
/// usage() exits via std::exit and skips it: no request was ever traced.
struct TelemetryFlusher {
  ~TelemetryFlusher() { glimpse::telemetry::export_to_env_paths(); }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace glimpse::service;
  glimpse::telemetry::set_process_label("glimpse_client");
  TelemetryFlusher telemetry_flusher;

  std::string unix_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  std::string auth;
  if (const char* env = std::getenv("GLIMPSE_AUTH")) auth = env;
  int i = 1;
  auto next = [&](const std::string& flag) -> std::string {
    if (i + 1 >= argc) usage(flag + " needs a value");
    return argv[++i];
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--unix") {
      unix_path = next(arg);
    } else if (arg == "--tcp") {
      std::string v = next(arg);
      std::size_t colon = v.rfind(':');
      if (colon != std::string::npos) {
        tcp_host = v.substr(0, colon);
        v = v.substr(colon + 1);
      }
      parse_or_usage("--tcp port", v, tcp_port);
      if (tcp_port <= 0) usage("bad --tcp port");
    } else if (arg == "--auth") {
      auth = next(arg);
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      break;  // first non-flag token is the command
    }
  }
  if (i >= argc) usage("missing command");
  if (unix_path.empty() && tcp_port < 0) usage("need --unix or --tcp");
  const std::string command = argv[i++];

  try {
    Client client = unix_path.empty() ? Client::connect_tcp(tcp_host, tcp_port)
                                      : Client::connect_unix(unix_path);
    client.set_auth(auth);

    if (command == "ping") return print_and_exit_code(client.ping());
    if (command == "stats") {
      Response r = client.stats();
      print_stats_summary(r);
      return print_and_exit_code(r);
    }
    if (command == "drain") return print_and_exit_code(client.drain());
    if (command == "shutdown") return print_and_exit_code(client.shutdown());

    if (command == "status" || command == "result" || command == "cancel") {
      if (i >= argc) usage(command + " needs a JOB_ID");
      std::uint64_t id = parse_id(argv[i++]);
      bool wait = false;
      for (; i < argc; ++i) {
        if (std::string(argv[i]) == "--wait" && command == "result") wait = true;
        else usage(std::string("unexpected argument ") + argv[i]);
      }
      if (command == "status") return print_and_exit_code(client.status(id));
      if (command == "cancel") return print_and_exit_code(client.cancel(id));
      return print_and_exit_code(client.result(id, wait));
    }

    if (command == "subscribe") {
      if (i >= argc) usage("subscribe needs a JOB_ID");
      std::uint64_t id = parse_id(argv[i++]);
      if (i < argc) usage(std::string("unexpected argument ") + argv[i]);
      Response final_resp = client.subscribe(id, [](const Response& interim) {
        std::cout << encode_response(interim) << std::endl;
      });
      return print_and_exit_code(final_resp);
    }

    if (command == "submit") {
      std::string name = "cli";
      std::int64_t priority = 0;
      JobSpec spec;
      bool wait = false;
      for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--client") name = next(arg);
        else if (arg == "--priority") parse_or_usage(arg, next(arg), priority);
        else if (arg == "--tuner") spec.tuner = next(arg);
        else if (arg == "--model") spec.model = next(arg);
        else if (arg == "--task") parse_or_usage(arg, next(arg), spec.task_index);
        else if (arg == "--gpu") spec.gpu = next(arg);
        else if (arg == "--seed") parse_or_usage(arg, next(arg), spec.seed);
        else if (arg == "--max-trials") parse_or_usage(arg, next(arg), spec.max_trials);
        else if (arg == "--batch") parse_or_usage(arg, next(arg), spec.batch_size);
        else if (arg == "--plateau") parse_or_usage(arg, next(arg), spec.plateau_trials);
        else if (arg == "--time-budget") parse_or_usage(arg, next(arg), spec.time_budget_s);
        else if (arg == "--no-warmstart") spec.warmstart = false;
        else if (arg == "--wait") wait = true;
        else usage("unknown submit flag " + arg);
      }
      Response r = client.submit(name, priority, spec);
      std::cout << encode_response(r) << std::endl;
      explain_rejection(r);
      if (r.type != ResponseType::kAccepted || !wait) return exit_code(r);
      return print_and_exit_code(client.result(r.job_id, /*wait=*/true));
    }

    usage("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::cerr << "glimpse_client: " << e.what() << "\n";
    return 1;
  }
}
