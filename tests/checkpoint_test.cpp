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

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
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

// Run to `stop_after` trials journaling every batch (the "kill"), then
// resume from the journal with a completely fresh tuner + measurer.
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
  // Fresh everything — only the journal carries state across the "crash".
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
  // The full tuner: surrogate ensemble, Adam moments, SA rng and priors are
  // all rebuilt by replay.
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
  // The journal is appended in place — no tmp file, no rename — with one
  // line for the header and one per batch.
  std::string path = tmp_path("ckpt_atomic.txt");
  remove_artifacts(path);
  RandomTuner tuner(small_conv_task(), titan_xp(), 15);
  SimMeasurer sim;
  SessionOptions opts = base_options(16, 8);
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
  const SessionOptions opts = base_options(24, 8);
  const Trace ref = reference_trace(16, opts, /*faults=*/false);
  std::string path = tmp_path("ckpt_corrupt.txt");
  remove_artifacts(path);
  {
    RandomTuner tuner(small_conv_task(), titan_xp(), 16);
    SimMeasurer sim;
    SessionOptions first = base_options(16, 8);
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
    SessionOptions opts = base_options(16, 8);
    opts.checkpoint_path = path;
    run_session(tuner, small_conv_task(), titan_xp(), sim, opts);
  }
  SessionOptions opts = base_options(32, 8);
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
  SessionOptions opts = base_options(16, 8);
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
    SessionOptions opts = base_options(16, 8);
    opts.checkpoint_path = path;
    run_session(opaque, small_conv_task(), titan_xp(), sim, opts);
  }
  Opaque opaque;
  SimMeasurer sim;
  SessionOptions opts = base_options(24, 8);
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
  SessionOptions opts = base_options(max_trials, 8);
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
  const Trace ref = reference_trace(31, base_options(32, 8), /*faults=*/false);
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
  const Trace ref = reference_trace(32, base_options(32, 8), /*faults=*/false);
  const std::string a = tmp_path("ckpt_hop_a.txt");
  const std::string b = tmp_path("ckpt_hop_b.txt");
  remove_artifacts(a);
  remove_artifacts(b);
  resume_random(32, 8, "", a);
  EXPECT_EQ(resume_random(32, 16, a, b).trials, first_trials(ref, 16));
  expect_traces_identical(ref, resume_random(32, 32, b, b));
  remove_artifacts(a);
  remove_artifacts(b);
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
    SessionOptions opts = base_options(max_trials, 8);
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
  expect_traces_identical(ref, run(drifted, 32, path, ""));
  expect_traces_identical(ref, run({}, 32, path, ""));
  remove_artifacts(path);
}

// ---------- resume never re-proposes a measured config ----------

// For each tuner: run a reference session, then kill after `stop_after`
// trials and resume with a completely fresh tuner. The resumed full trace
// must (a) contain no duplicate configs — the replayed visited set plus each
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
  // Replay must rebuild the Adaptive Exploration schedule (sa_steps_ decay
  // and the last-round best): a resumed Chameleon that restarted annealing
  // at full budget would silently diverge from the reference run.
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
