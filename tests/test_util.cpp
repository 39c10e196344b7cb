#include "test_util.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>

#include <filesystem>

#include "common/logging.hpp"

namespace glimpse::testing {

using searchspace::ConvShape;
using searchspace::DenseShape;
using searchspace::Task;
using searchspace::TemplateKind;

namespace {
ConvShape small_conv_shape() {
  ConvShape s;
  s.n = 1;
  s.c = 512;
  s.h = 7;
  s.w = 7;
  s.k = 512;
  s.kh = 3;
  s.kw = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}
}  // namespace

const Task& small_conv_task() {
  static const Task task("test.conv.small", TemplateKind::kConv2d, small_conv_shape());
  return task;
}

const Task& small_dense_task() {
  static const Task task("test.dense.small", DenseShape{1, 512, 1000});
  return task;
}

const Task& small_winograd_task() {
  static const Task task("test.winograd.small", TemplateKind::kConv2dWinograd,
                         small_conv_shape());
  return task;
}

const hwspec::GpuSpec& titan_xp() {
  const auto* g = hwspec::find_gpu("Titan Xp");
  GLIMPSE_CHECK(g != nullptr);
  return *g;
}

const hwspec::GpuSpec& rtx3090() {
  const auto* g = hwspec::find_gpu("RTX 3090");
  GLIMPSE_CHECK(g != nullptr);
  return *g;
}

const std::vector<const Task*>& tiny_dataset_tasks() {
  static const std::vector<const Task*> tasks = {
      &small_conv_task(), &small_dense_task(), &small_winograd_task()};
  return tasks;
}

const std::vector<const hwspec::GpuSpec*>& tiny_dataset_gpus() {
  // Training population: a spread of generations, excluding the two
  // "target" test GPUs so leave-target-out tests are honest.
  static const std::vector<const hwspec::GpuSpec*> gpus =
      hwspec::training_gpus({"Titan Xp", "RTX 3090"});
  return gpus;
}

const tuning::OfflineDataset& tiny_dataset() {
  static const tuning::OfflineDataset ds = [] {
    Rng rng(20220710);
    return tuning::OfflineDataset::generate(tiny_dataset_tasks(), tiny_dataset_gpus(),
                                            160, rng);
  }();
  return ds;
}

const core::GlimpseArtifacts& tiny_artifacts() {
  static const core::GlimpseArtifacts artifacts = [] {
    Rng rng(42);
    core::PriorTrainOptions prior_opts;
    prior_opts.epochs = 14;
    core::MetaTrainOptions meta_opts;
    meta_opts.max_groups = 18;
    meta_opts.epochs = 16;
    return core::pretrain_glimpse(tiny_dataset(), tiny_dataset_gpus(),
                                  core::default_blueprint_dim(), rng, prior_opts,
                                  meta_opts);
  }();
  return artifacts;
}

tuning::SessionOptions session_options(std::size_t max_trials, std::size_t batch_size) {
  tuning::SessionOptions o;
  o.max_trials = max_trials;
  o.batch_size = batch_size;
  return o;
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string short_sock_path(const std::string& tag) {
  return "/tmp/glimpse_test_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

service::JobSpec job_spec(const std::string& gpu, std::uint64_t task, std::uint64_t seed,
                          std::uint64_t max_trials, const std::string& tuner) {
  service::JobSpec spec;
  spec.tuner = tuner;
  spec.model = "resnet18";
  spec.task_index = task;
  spec.gpu = gpu;
  spec.seed = seed;
  spec.max_trials = max_trials;
  spec.batch_size = 8;
  return spec;
}

void expect_summary_matches_trace(const service::JobSummary& summary,
                                  const tuning::Trace& trace) {
  EXPECT_EQ(summary.state, "done");
  EXPECT_EQ(summary.trials, trace.trials.size());
  EXPECT_EQ(summary.faulted, trace.num_faulted());
  EXPECT_EQ(summary.best_gflops, trace.best_gflops());  // bit-identical
  tuning::Config best;
  double best_gflops = 0.0;
  for (const auto& t : trace.trials)
    if (t.result.valid && t.result.gflops > best_gflops) {
      best_gflops = t.result.gflops;
      best = t.config;
    }
  EXPECT_EQ(summary.best_config, best);
}

ChildProcess::ChildProcess(const char* bin, const std::vector<std::string>& args,
                           const std::string& trace_path) {
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return;
  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    if (trace_path.empty())
      ::unsetenv("GLIMPSE_TRACE");
    else
      ::setenv("GLIMPSE_TRACE", trace_path.c_str(), 1);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(bin, argv.data());
    std::_Exit(127);  // exec failed
  }
  ::close(out_pipe[1]);
  out_fd_ = out_pipe[0];
}

ChildProcess::~ChildProcess() {
  if (out_fd_ >= 0) ::close(out_fd_);
  if (pid_ > 0) kill_hard();
}

std::string ChildProcess::wait_ready() {
  std::string line;
  char c;
  while (::read(out_fd_, &c, 1) == 1) {
    if (c == '\n') return line;
    line += c;
  }
  return "";
}

void ChildProcess::kill_hard() {
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

int ChildProcess::wait_exit() {
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  return status;
}

namespace {
/// The shared token a DaemonFleet's shards require.
constexpr const char* kFleetAuth = "fleet-secret";
}  // namespace

DaemonFleet::DaemonFleet(const char* glimpsed_bin, const char* router_bin,
                         const std::string& tag, std::size_t shards)
    : glimpsed_bin_(glimpsed_bin), router_bin_(router_bin) {
  GLIMPSE_CHECK(shards == 1 || router_bin != nullptr);
  // Per process: test binaries run side by side under ctest -j.
  const std::string dir = "fleet_" + std::to_string(::getpid()) + "_" + tag;
  cache_dir = tmp_path(dir + "_cache");
  router_sock = short_sock_path(tag + "_router");
  router_trace = tmp_path(dir + "_router_trace.jsonl");
  for (std::size_t i = 0; i < shards; ++i) {
    names.push_back("s" + std::to_string(i));
    socks.push_back(short_sock_path(tag + names.back()));
    spools.push_back(tmp_path(dir + "_spool" + names.back()));
    traces.push_back(tmp_path(dir + "_trace_" + names.back() + ".jsonl"));
    std::filesystem::remove_all(spools.back());
    std::filesystem::remove(traces.back());
  }
  std::filesystem::remove_all(cache_dir);
  std::filesystem::remove(router_trace);
  this->shards.resize(shards);
}

DaemonFleet::~DaemonFleet() {
  router.reset();
  shards.clear();
  for (const std::string& path : spools) std::filesystem::remove_all(path);
  for (const std::string& path : traces) std::filesystem::remove(path);
  std::filesystem::remove_all(cache_dir);
  std::filesystem::remove(router_trace);
}

void DaemonFleet::start(bool traced) {
  traced_ = traced;
  for (std::size_t i = 0; i < shards.size(); ++i) ASSERT_NE(start_shard(i), "");
  if (shards.size() == 1) return;
  std::vector<std::string> args = {"--unix",    router_sock, "--upstream-auth", kFleetAuth,
                                   "--retries", "240",       "--retry-delay",   "0.25"};
  for (std::size_t i = 0; i < shards.size(); ++i) {
    args.push_back("--shard");
    args.push_back(names[i] + "=unix:" + socks[i]);
  }
  router = std::make_unique<ChildProcess>(router_bin_, args, traced ? router_trace : "");
  ASSERT_TRUE(router->started());
  ASSERT_NE(router->wait_ready(), "");
}

std::string DaemonFleet::start_shard(std::size_t i) {
  std::vector<std::string> args = {"--unix", socks[i], "--spool", spools[i], "--slots", "2"};
  if (shards.size() == 1) {
    args.insert(args.end(), {"--cache", "mem"});
  } else {
    args.insert(args.end(), {"--shard-name", names[i], "--cache-shared", cache_dir,
                             "--auth", kFleetAuth});
  }
  shards[i] = std::make_unique<ChildProcess>(glimpsed_bin_, args, traced_ ? traces[i] : "");
  return shards[i]->started() ? shards[i]->wait_ready() : "";
}

service::Client DaemonFleet::client() const {
  return service::Client::connect_unix(router ? router_sock : socks[0]);
}

void DaemonFleet::shutdown() {
  std::vector<ChildProcess*> procs;
  if (router) {
    EXPECT_EQ(client().shutdown().type, service::ResponseType::kOk);
    procs.push_back(router.get());
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    service::Client direct = service::Client::connect_unix(socks[i]);
    if (router) direct.set_auth(kFleetAuth);
    EXPECT_EQ(direct.shutdown().type, service::ResponseType::kOk);
    procs.push_back(shards[i].get());
  }
  for (ChildProcess* p : procs) {
    const int status = p->wait_exit();
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
}

}  // namespace glimpse::testing
