// Shared fixtures/helpers for the test suite: small tasks, GPUs, and
// (expensively trained, so cached) Glimpse artifacts.
#pragma once

#include <sys/types.h>

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_reader.hpp"

#include "glimpse/glimpse_tuner.hpp"
#include "hwspec/database.hpp"
#include "searchspace/models.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "tuning/dataset.hpp"
#include "tuning/sa.hpp"
#include "tuning/session.hpp"

namespace glimpse::testing {

/// A small conv task (ResNet-18 stage-4 3x3) — cheap spaces for unit tests.
const searchspace::Task& small_conv_task();
/// A small dense task.
const searchspace::Task& small_dense_task();
/// A winograd task.
const searchspace::Task& small_winograd_task();

/// Two evaluation GPUs for cross-hardware tests.
const hwspec::GpuSpec& titan_xp();
const hwspec::GpuSpec& rtx3090();

/// A tiny offline dataset over a handful of tasks and GPUs (cached; built
/// once per process). Suitable for exercising training code paths.
const tuning::OfflineDataset& tiny_dataset();
/// Tasks/gpus backing tiny_dataset() (stable addresses).
const std::vector<const searchspace::Task*>& tiny_dataset_tasks();
const std::vector<const hwspec::GpuSpec*>& tiny_dataset_gpus();

/// Glimpse artifacts pretrained on tiny_dataset() (cached).
const core::GlimpseArtifacts& tiny_artifacts();

/// A batch score function for simulated_annealing that applies the
/// per-config `score` to each config of the batch, in order.
template <typename F>
tuning::BatchScoreFn score_each(F score) {
  return [score](const std::vector<searchspace::Config>& cs,
                 std::span<const std::uint64_t>) {
    std::vector<double> out;
    out.reserve(cs.size());
    for (const auto& c : cs) out.push_back(score(c));
    return out;
  };
}

/// SessionOptions with `max_trials` and `batch_size` set, the rest default.
tuning::SessionOptions session_options(std::size_t max_trials, std::size_t batch_size = 8);

/// The bytes of the file at `path` ("" when it cannot be read).
std::string read_file(const std::string& path);

/// Every non-empty line of `text`, each parsed as one JSON value; throws
/// std::runtime_error naming the first line that does not parse. The
/// Documents view into the lines, which are all stored before the first
/// parse.
class JsonLines {
 public:
  explicit JsonLines(const std::string& text);
  std::size_t size() const { return docs_.size(); }
  const json::Node& operator[](std::size_t i) const { return docs_[i].root(); }

 private:
  std::vector<std::string> lines_;
  std::deque<json::Document> docs_;
};

/// Member `key` of the object `obj`; throws std::runtime_error when absent.
const json::Node& json_at(const json::Node& obj, std::string_view key);

/// `name` under gtest's temp directory.
std::string tmp_path(const std::string& name);
/// A per-process Unix socket path for `tag`: sockaddr_un is short, so it
/// lives in /tmp rather than the (possibly long) temp directory.
std::string short_sock_path(const std::string& tag);
/// Server options for an unauthenticated listener on the Unix socket `path`.
service::ServerOptions unix_server(const std::string& path);

/// A small resnet18 job: batches of 8 on `gpu`, plateau stopping off.
service::JobSpec job_spec(const std::string& gpu, std::uint64_t task,
                          std::uint64_t seed, std::uint64_t max_trials = 16,
                          const std::string& tuner = "random");

/// A settled summary agrees with `trace` on every decision field.
void expect_summary_matches_trace(const service::JobSummary& summary,
                                  const tuning::Trace& trace);

/// A forked-and-exec'd service binary (glimpsed, glimpse_router) with its
/// stdout on a pipe, for tests that need a real process to SIGKILL. The
/// destructor SIGKILLs and reaps a child that is still running.
class ChildProcess {
 public:
  /// `trace_path` non-empty exports the child's spans there on clean exit
  /// (GLIMPSE_TRACE in the child's environment, as a user would set it).
  ChildProcess(const char* bin, const std::vector<std::string>& args,
               const std::string& trace_path = "");
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  bool started() const { return pid_ > 0 && out_fd_ >= 0; }
  /// Block until the child prints its ready line; returns it ("" on EOF).
  std::string wait_ready();
  void kill_hard();
  /// Wait for the child to exit; returns its waitpid status.
  int wait_exit();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

/// `shards` real glimpsed daemons on per-`tag` sockets and spools; with more
/// than one, a real glimpse_router in front of them. A lone daemon keeps a
/// memory cache; fleet shards share a cache tier and an auth token. The
/// binary paths are the ones the test binary is built with.
class DaemonFleet {
 public:
  DaemonFleet(const char* glimpsed_bin, const char* router_bin, const std::string& tag,
              std::size_t shards);
  /// Kills what still runs, then removes the spools, cache tier and traces.
  ~DaemonFleet();
  DaemonFleet(const DaemonFleet&) = delete;
  DaemonFleet& operator=(const DaemonFleet&) = delete;

  /// Start every process and wait for its ready line. `traced` exports each
  /// process's spans (GLIMPSE_TRACE) to `traces` and `router_trace`.
  void start(bool traced = false);
  /// (Re)start shard `i` under the same identity; returns its ready line.
  std::string start_shard(std::size_t i);
  /// A client of the router, or of the lone daemon.
  service::Client client() const;
  /// Shut every process down through the protocol; each must exit with 0.
  void shutdown();

  std::vector<std::string> names, socks, spools, traces;
  std::string cache_dir, router_sock, router_trace;
  std::vector<std::unique_ptr<ChildProcess>> shards;
  std::unique_ptr<ChildProcess> router;

 private:
  const char* glimpsed_bin_;
  const char* router_bin_;
  bool traced_ = false;
};

}  // namespace glimpse::testing
