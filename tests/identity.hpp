// The determinism contract in one place (DESIGN.md §6): a tuning run's
// trials are bit-identical across thread count, SIMD, telemetry, the result
// cache, kill/resume, scheduling next to other jobs, the in-process
// SessionManager, a real glimpsed and a sharded fleet. IdentityChecker owns
// each run's reference, the variants and the comparison; a test names only
// the runs and the axes:
//
//   IdentityChecker check({task_run("autotvm", small_conv_task(), titan_xp(), 31, 64)});
//   check.expect({.env = {.threads = 4}});
//   check.expect({.kill_every_batch = true});
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gpusim/faulty_measurer.hpp"
#include "test_util.hpp"

namespace glimpse::service {
class SessionManager;
}

namespace glimpse::testing {

/// The process-wide switches a run sees. The reference runs at Env{}.
struct Env {
  std::size_t threads = 1;
  bool simd = false;
  bool telemetry = false;  ///< tracing and metrics
};
std::string to_string(const Env& env);

/// Sets an Env for its lifetime, then restores the default pool width and the
/// SIMD and telemetry switches it found. Tests flip these switches only
/// through here (CI checks).
class EnvScope {
 public:
  explicit EnvScope(const Env& env);
  ~EnvScope();
  EnvScope(const EnvScope&) = delete;
  EnvScope& operator=(const EnvScope&) = delete;

 private:
  bool simd_, tracing_, metrics_;
};

/// `fn()` returns the same value under each of `envs` as under Env{}.
template <typename F>
void expect_env_invariant(F fn, std::initializer_list<Env> envs) {
  const auto want = [&] {
    EnvScope scope(Env{});
    return fn();
  }();
  for (const Env& env : envs) {
    EnvScope scope(env);
    EXPECT_TRUE(fn() == want) << "diverges at " << to_string(env);
  }
}

/// One tuning run: `spec` names the tuner (random, autotvm, chameleon, or
/// glimpse, dgp and autotvm_tl on tiny_dataset()'s pretrained state), GPU,
/// seed, budget and batch size, and the model task unless `task` names a test
/// task. The service axes take only what a daemon runs: a daemon tuner on a
/// model task, without faults or warm seeds.
struct TuningRun {
  service::JobSpec spec;
  const searchspace::Task* task = nullptr;
  std::optional<gpusim::FaultPlan> faults;
  std::vector<searchspace::Config> warm_configs;
  std::vector<double> warm_scores;
  std::int64_t priority = 0;  ///< submission priority on the service axes
  /// Pinned digest of the reference's configs, steps, validity, GFLOPS and
  /// clock; 0 pins none.
  std::uint64_t digest = 0;
};

TuningRun task_run(const std::string& tuner, const searchspace::Task& task,
                   const hwspec::GpuSpec& hw, std::uint64_t seed, std::size_t max_trials,
                   std::size_t batch_size = 8);
TuningRun job_run(const service::JobSpec& spec, std::int64_t priority = 0);

/// `run` alone through run_session at Env{}, with no cache, journal or other
/// job: the reference every variant, daemon and fleet result is held to. It
/// runs the whole budget unless the spec sets a plateau or time budget, and
/// matches a pinned digest. An unknown model, GPU or tuner throws.
tuning::Trace reference_trace(const TuningRun& run);

enum class Cache { kOff, kCold, kWarm };

/// One in-process variant; a field left at its default is the reference's.
struct Variant {
  Env env{};
  /// kCold: a fresh result cache; kWarm: one that a first pass filled. Both
  /// keep the reference's decisions, and equal in full (clock included) the
  /// same cache state at Env{} in one slot.
  Cache cache = Cache::kOff;
  /// 0 runs each run alone; n > 0 runs all of them in one schedule of n slots.
  std::size_t slots = 0;
  /// Kill after this many batches and resume from the journal, for each entry
  /// in turn. In a schedule only the first run is killed.
  std::vector<std::size_t> kill_after{};
  bool kill_every_batch = false;  ///< one kill at each batch boundary in turn
  bool new_path = false;          ///< each resume journals into a path of its own
};

/// The in-process SessionManager, every run submitted at once. With `spool`
/// and `stop_after` set, the manager stops once the first run has that many
/// trials, and a new one on the same spool settles the runs.
struct ManagerVariant {
  Env env{};
  std::size_t slots = 2;
  std::string spool{};
  std::size_t stop_after = 0;
};

/// Real processes: a DaemonFleet. With `kill_after` set, the process owning
/// the first run is SIGKILLed once that run has that many trials; the runs on
/// other shards settle while it is down, then it restarts.
struct ProcessVariant {
  bool traced = false;  ///< processes export spans; this client traces requests
  std::size_t kill_after = 0;
};

class IdentityChecker {
 public:
  explicit IdentityChecker(std::vector<TuningRun> runs);

  /// reference_trace(run `i`), built once.
  const tuning::Trace& reference(std::size_t i = 0);

  /// Each failure names the run, the variant and the first diverging trial.
  void expect(const Variant& v);
  /// `after` sees the manager that settled the runs, and their job ids.
  using ManagerHook =
      std::function<void(service::SessionManager&, const std::vector<std::uint64_t>&)>;
  void expect_manager(const ManagerVariant& v, const ManagerHook& after = {});
  /// Starts `fleet`, settles every run through it and shuts it down.
  void expect_processes(DaemonFleet& fleet, const ProcessVariant& v);

 private:
  std::vector<tuning::Trace> run_variant(const Variant& v,
                                         const std::vector<std::size_t>& kills);

  std::vector<TuningRun> runs_;
  std::vector<std::optional<tuning::Trace>> references_;
  /// Per (cache, scheduled): the clock a variant that dedups measurements keeps.
  std::map<std::pair<Cache, bool>, std::vector<tuning::Trace>> clock_refs_;
};

}  // namespace glimpse::testing
