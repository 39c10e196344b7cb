// Crash-safety tests for session checkpoint/resume (ctest -L robustness).
//
// The central property: killing a session after ANY batch and resuming from
// the snapshot produces a trace bit-identical to the uninterrupted run —
// with and without fault injection, at any thread-pool width. A "kill" is
// simulated by capping max_trials so the session stops right after batch k
// with its snapshot on disk, exactly the state a crash would leave.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "baselines/chameleon.hpp"
#include "baselines/dgp.hpp"
#include "baselines/random_tuner.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "gpusim/faulty_measurer.hpp"
#include "proptest_util.hpp"
#include "test_util.hpp"
#include "tuning/checkpoint.hpp"
#include "tuning/session.hpp"

namespace glimpse::tuning {
namespace {

using baselines::RandomTuner;
using core::GlimpseTuner;
using glimpse::testing::expect_traces_identical;
using glimpse::testing::garble;
using glimpse::testing::small_conv_task;
using glimpse::testing::tiny_artifacts;
using glimpse::testing::titan_xp;
using glimpse::testing::tmp_path;
using gpusim::FaultInjector;
using gpusim::FaultPlan;
using gpusim::SimMeasurer;

void remove_artifacts(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

SessionOptions base_options(std::size_t max_trials, std::size_t batch) {
  SessionOptions o;
  o.max_trials = max_trials;
  o.batch_size = batch;
  return o;
}

FaultPlan flaky_plan() {
  FaultPlan plan;
  plan.p_transient = 0.15;
  plan.p_timeout = 0.05;
  plan.p_corrupt = 0.05;
  return plan;
}

// Reference run, no checkpointing.
Trace reference_trace(std::uint64_t seed, const SessionOptions& opts, bool faults) {
  RandomTuner tuner(small_conv_task(), titan_xp(), seed);
  SimMeasurer sim;
  if (!faults) return run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
  FaultInjector injector(sim, flaky_plan());
  return run_session(tuner, small_conv_task(), titan_xp(), injector, opts);
}

// Run to `stop_after` trials with a checkpoint after every batch (the "kill"),
// then resume from the snapshot with a completely fresh tuner + measurer.
Trace killed_and_resumed(std::uint64_t seed, const SessionOptions& opts,
                         std::size_t stop_after, const std::string& path,
                         bool faults) {
  {
    RandomTuner tuner(small_conv_task(), titan_xp(), seed);
    SimMeasurer sim;
    SessionOptions first = opts;
    first.max_trials = stop_after;
    first.checkpoint_path = path;
    if (faults) {
      FaultInjector injector(sim, flaky_plan());
      run_session(tuner, small_conv_task(), titan_xp(), injector, first);
    } else {
      run_session(tuner, small_conv_task(), titan_xp(), sim, first);
    }
  }
  // Fresh everything — only the snapshot carries state across the "crash".
  RandomTuner tuner(small_conv_task(), titan_xp(), seed);
  SimMeasurer sim;
  SessionOptions second = opts;
  second.checkpoint_path = path;
  second.resume_from = path;
  if (faults) {
    FaultInjector injector(sim, flaky_plan());
    return run_session(tuner, small_conv_task(), titan_xp(), injector, second);
  }
  return run_session(tuner, small_conv_task(), titan_xp(), sim, second);
}

TEST(CheckpointTest, ResumeAfterEveryBatchIsBitIdentical) {
  const std::size_t kTrials = 48, kBatch = 8;
  SessionOptions opts = base_options(kTrials, kBatch);
  Trace ref = reference_trace(11, opts, /*faults=*/false);
  ASSERT_EQ(ref.trials.size(), kTrials);

  std::string path = tmp_path("ckpt_every_batch.txt");
  for (std::size_t k = 1; k * kBatch < kTrials; ++k) {
    remove_artifacts(path);
    Trace resumed = killed_and_resumed(11, opts, k * kBatch, path, /*faults=*/false);
    expect_traces_identical(ref, resumed);
  }
  remove_artifacts(path);
}

TEST(CheckpointTest, ResumeUnderFaultInjectionIsBitIdentical) {
  const std::size_t kTrials = 48, kBatch = 8;
  SessionOptions opts = base_options(kTrials, kBatch);
  Trace ref = reference_trace(12, opts, /*faults=*/true);
  ASSERT_EQ(ref.trials.size(), kTrials);
  EXPECT_GT(ref.num_faulted() + [&] {
    std::size_t retried = 0;
    for (const auto& t : ref.trials) retried += (t.result.attempts > 1);
    return retried;
  }(), 0u) << "fault plan injected nothing; the test is vacuous";

  std::string path = tmp_path("ckpt_faulty.txt");
  for (std::size_t k = 1; k * kBatch < kTrials; ++k) {
    remove_artifacts(path);
    Trace resumed = killed_and_resumed(12, opts, k * kBatch, path, /*faults=*/true);
    expect_traces_identical(ref, resumed);
  }
  remove_artifacts(path);
}

TEST(CheckpointTest, ResumeIsThreadCountIndependent) {
  struct PoolGuard {
    ~PoolGuard() { set_num_threads(0); }
  } guard;
  const std::size_t kTrials = 32, kBatch = 8;
  SessionOptions opts = base_options(kTrials, kBatch);

  set_num_threads(1);
  Trace ref = reference_trace(13, opts, /*faults=*/true);

  set_num_threads(4);
  std::string path = tmp_path("ckpt_threads.txt");
  remove_artifacts(path);
  Trace resumed = killed_and_resumed(13, opts, 2 * kBatch, path, /*faults=*/true);
  expect_traces_identical(ref, resumed);
  remove_artifacts(path);
}

TEST(CheckpointTest, GlimpseTunerResumesBitIdentically) {
  // The full tuner: surrogate ensemble weights, Adam moments, SA rng, priors.
  const std::size_t kTrials = 24, kBatch = 8;
  SessionOptions opts = base_options(kTrials, kBatch);

  Trace ref;
  {
    GlimpseTuner tuner(small_conv_task(), titan_xp(), 21, tiny_artifacts());
    SimMeasurer sim;
    ref = run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
  }
  ASSERT_EQ(ref.trials.size(), kTrials);

  std::string path = tmp_path("ckpt_glimpse.txt");
  remove_artifacts(path);
  {
    GlimpseTuner tuner(small_conv_task(), titan_xp(), 21, tiny_artifacts());
    SimMeasurer sim;
    SessionOptions first = opts;
    first.max_trials = 2 * kBatch;
    first.checkpoint_path = path;
    run_session(tuner, small_conv_task(), titan_xp(), sim, first);
  }
  GlimpseTuner tuner(small_conv_task(), titan_xp(), 21, tiny_artifacts());
  SimMeasurer sim;
  SessionOptions second = opts;
  second.resume_from = path;
  Trace resumed = run_session(tuner, small_conv_task(), titan_xp(), sim, second);
  expect_traces_identical(ref, resumed);
  remove_artifacts(path);
}

TEST(CheckpointTest, SaveIsAtomicNoTmpLeftBehind) {
  std::string path = tmp_path("ckpt_atomic.txt");
  remove_artifacts(path);
  RandomTuner tuner(small_conv_task(), titan_xp(), 15);
  SimMeasurer sim;
  SessionOptions opts = base_options(16, 8);
  opts.checkpoint_path = path;
  run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  remove_artifacts(path);
}

TEST(CheckpointTest, CorruptedSnapshotsAreRejectedNotTrusted) {
  std::string path = tmp_path("ckpt_corrupt.txt");
  remove_artifacts(path);
  {
    RandomTuner tuner(small_conv_task(), titan_xp(), 16);
    SimMeasurer sim;
    SessionOptions opts = base_options(16, 8);
    opts.checkpoint_path = path;
    run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
  }
  std::string bytes;
  {
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  ASSERT_FALSE(bytes.empty());

  CHECK_PROP(301, 100, [&](Rng& rng) {
    std::string bad_path = tmp_path("ckpt_corrupt_bad.txt");
    {
      std::ofstream os(bad_path, std::ios::trunc);
      os << garble(bytes, rng);
    }
    RandomTuner tuner(small_conv_task(), titan_xp(), 16);
    SimMeasurer sim;
    SessionCheckpoint st;
    try {
      load_checkpoint(bad_path, st, tuner, sim);  // surviving a garble is ok
    } catch (const std::runtime_error&) {
      // the contractual failure mode — never a crash or foreign exception
    }
    return true;
  });
  remove_artifacts(path);
  std::remove(tmp_path("ckpt_corrupt_bad.txt").c_str());
}

TEST(CheckpointTest, MismatchedTunerOrWorkloadIsRejected) {
  std::string path = tmp_path("ckpt_mismatch.txt");
  remove_artifacts(path);
  {
    RandomTuner tuner(small_conv_task(), titan_xp(), 17);
    SimMeasurer sim;
    SessionOptions opts = base_options(16, 8);
    opts.checkpoint_path = path;
    run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
  }
  // Wrong tuner type.
  {
    GlimpseTuner tuner(small_conv_task(), titan_xp(), 17, tiny_artifacts());
    SimMeasurer sim;
    SessionCheckpoint st;
    EXPECT_THROW(load_checkpoint(path, st, tuner, sim), std::runtime_error);
  }
  // Wrong task for the session that resumes.
  {
    RandomTuner tuner(glimpse::testing::small_dense_task(), titan_xp(), 17);
    SimMeasurer sim;
    SessionOptions opts = base_options(32, 8);
    opts.resume_from = path;
    EXPECT_THROW(run_session(tuner, glimpse::testing::small_dense_task(), titan_xp(),
                             sim, opts),
                 CheckError);
  }
  remove_artifacts(path);
}

TEST(CheckpointTest, MissingSnapshotThrows) {
  RandomTuner tuner(small_conv_task(), titan_xp(), 18);
  SimMeasurer sim;
  SessionCheckpoint st;
  EXPECT_THROW(load_checkpoint(tmp_path("ckpt_nonexistent.txt"), st, tuner, sim),
               std::runtime_error);
}

TEST(CheckpointTest, NonCheckpointableTunerFailsLoudly) {
  // A tuner that opts out of checkpointing must fail at save time, not
  // silently write a resumable-looking file.
  struct Opaque : Tuner {
    std::string name() const override { return "Opaque"; }
    std::vector<Config> propose(std::size_t) override { return {}; }
    void update(const std::vector<Config>&,
                const std::vector<MeasureResult>&) override {}
  } opaque;
  SimMeasurer sim;
  SessionCheckpoint st;
  EXPECT_FALSE(opaque.checkpointable());
  EXPECT_THROW(save_checkpoint(tmp_path("ckpt_opaque.txt"), st, opaque, sim),
               std::runtime_error);
}

// ---------- resume never re-proposes a measured config ----------

// For each tuner: run a reference session, then kill after `stop_after`
// trials and resume with a completely fresh tuner. The resumed full trace
// must (a) contain no duplicate configs — the restored visited set plus each
// tuner's own schedule state must prevent re-measuring anything — and
// (b) be bit-identical to the uninterrupted run.
template <typename MakeTuner>
void check_resume_no_reproposal(const std::string& name, const MakeTuner& make) {
  const std::size_t kTrials = 40, kBatch = 8, kStopAfter = 2 * kBatch;
  SessionOptions opts = base_options(kTrials, kBatch);

  Trace ref;
  {
    auto tuner = make();
    SimMeasurer sim;
    ref = run_session(*tuner, small_conv_task(), titan_xp(), sim, opts);
  }
  ASSERT_EQ(ref.trials.size(), kTrials) << name;

  std::string path = tmp_path("ckpt_noreprop_" + name + ".txt");
  remove_artifacts(path);
  {
    auto tuner = make();
    SimMeasurer sim;
    SessionOptions first = opts;
    first.max_trials = kStopAfter;
    first.checkpoint_path = path;
    run_session(*tuner, small_conv_task(), titan_xp(), sim, first);
  }
  auto tuner = make();
  SimMeasurer sim;
  SessionOptions second = opts;
  second.resume_from = path;
  Trace resumed = run_session(*tuner, small_conv_task(), titan_xp(), sim, second);

  std::unordered_set<Config, searchspace::ConfigHash> seen;
  for (const auto& t : resumed.trials)
    EXPECT_TRUE(seen.insert(t.config).second)
        << name << ": config re-proposed at step " << t.step;
  expect_traces_identical(ref, resumed);
  remove_artifacts(path);
}

TEST(CheckpointTest, RandomNeverReproposesAfterResume) {
  check_resume_no_reproposal("random", [] {
    return std::make_unique<RandomTuner>(small_conv_task(), titan_xp(), 41);
  });
}

TEST(CheckpointTest, AutoTvmNeverReproposesAfterResume) {
  check_resume_no_reproposal("autotvm", [] {
    return std::make_unique<baselines::AutoTvmTuner>(small_conv_task(), titan_xp(), 42);
  });
}

TEST(CheckpointTest, ChameleonNeverReproposesAfterResume) {
  // Regression: the Adaptive Exploration schedule (sa_steps_ decay and the
  // last-round best) was not checkpointed, so a resumed Chameleon restarted
  // annealing at full budget and silently diverged from the reference run.
  check_resume_no_reproposal("chameleon", [] {
    return std::make_unique<baselines::ChameleonTuner>(small_conv_task(), titan_xp(),
                                                       43);
  });
}

TEST(CheckpointTest, DgpNeverReproposesAfterResume) {
  static std::shared_ptr<const gp::DeepKernelGp> embedder = [] {
    Rng rng(44);
    return baselines::pretrain_dgp_embedder(
        glimpse::testing::tiny_dataset(), rng,
        {.embed_dim = 8, .hidden = 16, .pretrain_epochs = 15});
  }();
  check_resume_no_reproposal("dgp", [] {
    return std::make_unique<baselines::DgpTuner>(small_conv_task(), titan_xp(), 44,
                                                 embedder);
  });
}

TEST(CheckpointTest, GlimpseNeverReproposesAfterResume) {
  check_resume_no_reproposal("glimpse", [] {
    return std::make_unique<GlimpseTuner>(small_conv_task(), titan_xp(), 45,
                                          tiny_artifacts());
  });
}

TEST(CheckpointTest, CheckpointWordEncodesWhitespace) {
  EXPECT_EQ(checkpoint_word("RTX 2080 Ti"), "RTX_2080_Ti");
  EXPECT_EQ(checkpoint_word("Titan\tXp"), "Titan_Xp");
  EXPECT_EQ(checkpoint_word(""), "-");
  EXPECT_EQ(checkpoint_word("plain"), "plain");
}

}  // namespace
}  // namespace glimpse::tuning
