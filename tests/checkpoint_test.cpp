// Crash-safety tests for session checkpoint/resume (ctest -L robustness).
//
// The central property: killing a session after ANY batch and resuming by
// replaying its journal produces a trace bit-identical to the uninterrupted
// run — with and without fault injection, at any thread-pool width. A
// "kill" is simulated by capping max_trials so the session stops right
// after batch k with its journal on disk, exactly the state a crash would
// leave; a crash mid-append is simulated by cutting the journal short.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "baselines/autotvm.hpp"
#include "baselines/random_tuner.hpp"
#include "common/logging.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "gpusim/faulty_measurer.hpp"
#include "identity.hpp"
#include "proptest_util.hpp"
#include "test_util.hpp"
#include "tuning/checkpoint.hpp"
#include "tuning/session.hpp"

namespace glimpse::tuning {
namespace {

using baselines::RandomTuner;
using core::GlimpseTuner;
using glimpse::testing::garble;
using glimpse::testing::IdentityChecker;
using glimpse::testing::read_file;
using glimpse::testing::reference_trace;
using glimpse::testing::session_options;
using glimpse::testing::small_conv_task;
using glimpse::testing::task_run;
using glimpse::testing::tiny_artifacts;
using glimpse::testing::titan_xp;
using glimpse::testing::tmp_path;
using glimpse::testing::TuningRun;
using gpusim::FaultPlan;
using gpusim::SimMeasurer;

void remove_artifacts(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

FaultPlan flaky_plan() {
  FaultPlan plan;
  plan.p_transient = 0.15;
  plan.p_timeout = 0.05;
  plan.p_corrupt = 0.05;
  return plan;
}

TuningRun random_run(std::uint64_t seed, std::size_t max_trials, bool faults = false) {
  TuningRun run = task_run("random", small_conv_task(), titan_xp(), seed, max_trials);
  if (faults) run.faults = flaky_plan();
  return run;
}

TEST(CheckpointTest, ResumeAfterEveryBatchIsBitIdentical) {
  IdentityChecker({random_run(11, 48)}).expect({.kill_every_batch = true});
}

/// Faults the plan injected into `trace`: faulted trials plus retried ones.
std::size_t faults_seen(const Trace& trace) {
  std::size_t n = trace.num_faulted();
  for (const auto& t : trace.trials) n += (t.result.attempts > 1);
  return n;
}

TEST(CheckpointTest, ResumeUnderFaultInjectionIsBitIdentical) {
  IdentityChecker check({random_run(12, 48, /*faults=*/true)});
  EXPECT_GT(faults_seen(check.reference()), 0u) << "fault plan injected nothing";
  check.expect({.kill_every_batch = true});
}

TEST(CheckpointTest, ResumeIsThreadCountIndependent) {
  IdentityChecker({random_run(13, 32, /*faults=*/true)})
      .expect({.env = {.threads = 4}, .kill_after = {2}});
}

TEST(CheckpointTest, GlimpseTunerResumesBitIdentically) {
  // The full tuner: surrogate ensemble, Adam moments, SA rng and priors are
  // all rebuilt by replay, with and without faults.
  TuningRun faulty = task_run("glimpse", small_conv_task(), titan_xp(), 22, 24);
  faulty.faults = flaky_plan();
  IdentityChecker check({task_run("glimpse", small_conv_task(), titan_xp(), 21, 24), faulty});
  EXPECT_GT(faults_seen(check.reference(1)), 0u) << "fault plan injected nothing";
  check.expect({.kill_after = {2}});
}

TEST(CheckpointTest, SaveIsAtomicNoTmpLeftBehind) {
  // The journal is appended in place — no tmp file, no rename — with one
  // line for the header and one per batch.
  std::string path = tmp_path("ckpt_atomic.txt");
  remove_artifacts(path);
  RandomTuner tuner(small_conv_task(), titan_xp(), 15);
  SimMeasurer sim;
  SessionOptions opts = session_options(16);
  opts.checkpoint_path = path;
  run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(path + ".tmp"));
  const std::string bytes = read_file(path);
  EXPECT_EQ(std::count(bytes.begin(), bytes.end(), '\n'), 3);
  EXPECT_EQ(bytes.back(), '\n');
  remove_artifacts(path);
}

TEST(CheckpointTest, CorruptedSnapshotsAreRejectedNotTrusted) {
  // A garbled journal either fails the resume with std::runtime_error or
  // — when the damage only tore the tail — resumes bit-identically. It is
  // never replayed into a different trace.
  const SessionOptions opts = session_options(24);
  const Trace ref = reference_trace(random_run(16, 24));
  std::string path = tmp_path("ckpt_corrupt.txt");
  remove_artifacts(path);
  {
    RandomTuner tuner(small_conv_task(), titan_xp(), 16);
    SimMeasurer sim;
    SessionOptions first = session_options(16);
    first.checkpoint_path = path;
    run_session(tuner, small_conv_task(), titan_xp(), sim, first);
  }
  const std::string bytes = read_file(path);
  ASSERT_FALSE(bytes.empty());

  const std::string bad_path = tmp_path("ckpt_corrupt_bad.txt");
  CHECK_PROP(301, 100, [&](Rng& rng) {
    {
      std::ofstream os(bad_path, std::ios::trunc);
      os << garble(bytes, rng);
    }
    RandomTuner tuner(small_conv_task(), titan_xp(), 16);
    SimMeasurer sim;
    SessionOptions second = opts;
    second.resume_from = bad_path;
    try {
      return run_session(tuner, small_conv_task(), titan_xp(), sim, second).trials ==
             ref.trials;
    } catch (const std::runtime_error&) {
      return true;  // the contractual failure mode — never a crash or foreign exception
    }
  });
  remove_artifacts(path);
  std::remove(bad_path.c_str());
}

TEST(CheckpointTest, MismatchedTunerOrWorkloadIsRejected) {
  std::string path = tmp_path("ckpt_mismatch.txt");
  remove_artifacts(path);
  {
    RandomTuner tuner(small_conv_task(), titan_xp(), 17);
    SimMeasurer sim;
    SessionOptions opts = session_options(16);
    opts.checkpoint_path = path;
    run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
  }
  SessionOptions opts = session_options(32);
  opts.resume_from = path;
  // Wrong tuner type.
  {
    GlimpseTuner tuner(small_conv_task(), titan_xp(), 17, tiny_artifacts());
    SimMeasurer sim;
    EXPECT_THROW(run_session(tuner, small_conv_task(), titan_xp(), sim, opts),
                 std::runtime_error);
  }
  // Wrong task for the session that resumes.
  {
    RandomTuner tuner(glimpse::testing::small_dense_task(), titan_xp(), 17);
    SimMeasurer sim;
    EXPECT_THROW(run_session(tuner, glimpse::testing::small_dense_task(), titan_xp(),
                             sim, opts),
                 CheckError);
  }
  remove_artifacts(path);
}

TEST(CheckpointTest, MissingSnapshotThrows) {
  RandomTuner tuner(small_conv_task(), titan_xp(), 18);
  SimMeasurer sim;
  SessionOptions opts = session_options(16);
  opts.resume_from = tmp_path("ckpt_nonexistent.txt");
  EXPECT_THROW(run_session(tuner, small_conv_task(), titan_xp(), sim, opts),
               std::runtime_error);
}

TEST(CheckpointTest, NonCheckpointableTunerFailsLoudly) {
  // A tuner whose proposals are not a function of its seed and the results
  // fed back (here: every instance draws from one shared rng) cannot be
  // resumed. Replay catches that at admission instead of silently
  // continuing a different search.
  struct Opaque : Tuner {
    std::string name() const override { return "Opaque"; }
    std::vector<Config> propose(std::size_t n) override {
      static Rng shared(19);
      std::vector<Config> out;
      for (std::size_t i = 0; i < n; ++i)
        out.push_back(small_conv_task().space().random_config(shared));
      return out;
    }
    void update(const std::vector<Config>&,
                const std::vector<MeasureResult>&) override {}
  };
  const std::string path = tmp_path("ckpt_opaque.txt");
  remove_artifacts(path);
  {
    Opaque opaque;
    SimMeasurer sim;
    SessionOptions opts = session_options(16);
    opts.checkpoint_path = path;
    run_session(opaque, small_conv_task(), titan_xp(), sim, opts);
  }
  Opaque opaque;
  SimMeasurer sim;
  SessionOptions opts = session_options(24);
  opts.resume_from = path;
  EXPECT_THROW(run_session(opaque, small_conv_task(), titan_xp(), sim, opts),
               std::runtime_error);
  remove_artifacts(path);
}

// ---------- the journal's crash cases ----------

// Resume a RandomTuner session from `resume`, journaling to `checkpoint`,
// and stop after `max_trials`.
Trace resume_random(std::uint64_t seed, std::size_t max_trials, const std::string& resume,
                    const std::string& checkpoint) {
  RandomTuner tuner(small_conv_task(), titan_xp(), seed);
  SimMeasurer sim;
  SessionOptions opts = session_options(max_trials);
  opts.resume_from = resume;
  opts.checkpoint_path = checkpoint;
  return run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
}

std::vector<TrialRecord> first_trials(const Trace& t, std::size_t n) {
  return {t.trials.begin(), t.trials.begin() + static_cast<std::ptrdiff_t>(n)};
}

TEST(CheckpointTest, TornJournalAtEveryByteResumesBitIdentically) {
  // Cut the journal at every byte offset. A whole header resumes from the
  // last whole record; a torn header starts fresh. Either way the resumed
  // session — killed again after one more batch, whose append follows the
  // truncated tail, and resumed once more — reproduces the reference.
  const Trace ref = reference_trace(random_run(31, 32));
  const std::string full = tmp_path("ckpt_torn_full.txt");
  const std::string path = tmp_path("ckpt_torn.txt");
  remove_artifacts(full);
  resume_random(31, 16, "", full);  // header + two batches
  const std::string bytes = read_file(full);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    {
      std::ofstream os(path, std::ios::trunc | std::ios::binary);
      os << bytes.substr(0, cut);
    }
    const Trace killed = resume_random(31, 24, path, path);
    ASSERT_EQ(killed.trials, first_trials(ref, 24));
    ASSERT_EQ(resume_random(31, 32, path, path).trials, ref.trials);
  }
  remove_artifacts(full);
  remove_artifacts(path);
}

TEST(CheckpointTest, ResumeIntoAnotherPathThenAgainIsBitIdentical) {
  // Kill, resume into a different checkpoint_path (which then holds the
  // whole history), kill again, resume from the second journal.
  IdentityChecker({random_run(32, 32)}).expect({.kill_after = {1, 2}, .new_path = true});
}

TEST(CheckpointTest, ResumeReplaysTheJournaledWarmSeedsNotTodays) {
  // The advisor-drift case: the resumed session is handed different warm
  // seeds than the original (the fleet's tiers grew meanwhile). Replay
  // applies the journaled ones, so the trace is the original's.
  Rng pick(33);
  std::vector<Config> original, drifted;
  for (int i = 0; i < 3; ++i) original.push_back(small_conv_task().space().random_config(pick));
  for (int i = 0; i < 3; ++i) drifted.push_back(small_conv_task().space().random_config(pick));
  auto run = [&](const std::vector<Config>& seeds, std::size_t max_trials,
                 const std::string& resume, const std::string& checkpoint) {
    baselines::AutoTvmTuner tuner(small_conv_task(), titan_xp(), 33);
    SimMeasurer sim;
    SessionOptions opts = session_options(max_trials);
    opts.warm_configs = seeds;
    opts.warm_scores.assign(seeds.size(), 0.9);
    opts.resume_from = resume;
    opts.checkpoint_path = checkpoint;
    return run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
  };
  const Trace ref = run(original, 32, "", "");
  const std::string path = tmp_path("ckpt_drift.txt");
  remove_artifacts(path);
  run(original, 16, "", path);
  EXPECT_EQ(run(drifted, 32, path, "").trials, ref.trials);
  EXPECT_EQ(run({}, 32, path, "").trials, ref.trials);
  remove_artifacts(path);
}

// ---------- resume never re-proposes a measured config ----------

// Kill after two batches and resume with a fresh tuner: the resumed trace
// equals the uninterrupted one, which measures no config twice — the
// replayed visited set plus the tuner's own schedule state must prevent
// re-measuring anything.
void check_resume_no_reproposal(const char* tuner, std::uint64_t seed) {
  IdentityChecker check({task_run(tuner, small_conv_task(), titan_xp(), seed, 40)});
  std::unordered_set<Config, searchspace::ConfigHash> seen;
  for (const auto& t : check.reference().trials)
    EXPECT_TRUE(seen.insert(t.config).second) << tuner << " re-proposed at step " << t.step;
  check.expect({.kill_after = {2}});
}

TEST(CheckpointTest, RandomNeverReproposesAfterResume) {
  check_resume_no_reproposal("random", 41);
}

TEST(CheckpointTest, AutoTvmNeverReproposesAfterResume) {
  check_resume_no_reproposal("autotvm", 42);
}

TEST(CheckpointTest, ChameleonNeverReproposesAfterResume) {
  // Replay must rebuild the Adaptive Exploration schedule (sa_steps_ decay
  // and the last-round best): a resumed Chameleon that restarted annealing
  // at full budget would silently diverge from the reference run.
  check_resume_no_reproposal("chameleon", 43);
}

TEST(CheckpointTest, DgpNeverReproposesAfterResume) {
  check_resume_no_reproposal("dgp", 44);
}

TEST(CheckpointTest, GlimpseNeverReproposesAfterResume) {
  check_resume_no_reproposal("glimpse", 45);
}

TEST(CheckpointTest, CheckpointWordEncodesWhitespace) {
  EXPECT_EQ(checkpoint_word("RTX 2080 Ti"), "RTX_2080_Ti");
  EXPECT_EQ(checkpoint_word("Titan\tXp"), "Titan_Xp");
  EXPECT_EQ(checkpoint_word(""), "-");
  EXPECT_EQ(checkpoint_word("plain"), "plain");
}

}  // namespace
}  // namespace glimpse::tuning
