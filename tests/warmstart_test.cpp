// Warm-start tests (ctest -L warmstart): ConfigPredictor fit/save/load
// determinism, WarmStartAdvisor donor ranking and Blueprint weighting, the
// determinism matrix (warm on/off x thread count x kill/resume must all be
// bit-identical), and the cold-start fallback (empty advice == cold run).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "baselines/autotvm.hpp"
#include "baselines/chameleon.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "gpusim/measurer.hpp"
#include "hwspec/database.hpp"
#include "test_util.hpp"
#include "tuning/config_predictor.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/session.hpp"
#include "tuning/warmstart.hpp"

namespace glimpse::tuning {
namespace {

using baselines::AutoTvmTuner;
using baselines::ChameleonTuner;
using glimpse::testing::expect_traces_identical;
using glimpse::testing::small_conv_task;
using glimpse::testing::titan_xp;
using gpusim::SimMeasurer;

namespace fs = std::filesystem;

std::string tmp_dir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Donor corpus entry written exactly as a fleet shard would write it.
void write_tier_entry(const std::string& dir, const std::string& tier,
                      const searchspace::Task& task, const hwspec::GpuSpec& hw,
                      const searchspace::Config& config, double gflops) {
  ResultCacheOptions opts;
  opts.path = dir + "/" + tier;
  opts.shared_dir = dir;
  ResultCache cache(opts);
  CacheKey key;
  key.task_fp = task_fingerprint(task);
  key.hw_fp = hardware_fingerprint(hw);
  key.config = config;
  gpusim::MeasureResult r;
  r.valid = true;
  r.latency_s = 1e-3;
  r.gflops = gflops;
  r.cost_s = 1.0;
  cache.insert(key, r);
}

/// A short real donor run: `hw` tunes the task, measurements land in
/// dir/tier-<name>.jsonl like a --cache-shared shard's own tier.
void build_donor_tier(const std::string& dir, const std::string& name,
                      const searchspace::Task& task, const hwspec::GpuSpec& hw,
                      std::size_t trials) {
  ResultCacheOptions copts;
  copts.path = dir + "/tier-" + name + ".jsonl";
  copts.shared_dir = dir;
  ResultCache cache(copts);
  AutoTvmTuner tuner(task, hw, /*seed=*/7);
  SimMeasurer sim;
  SessionOptions opts;
  opts.max_trials = trials;
  opts.batch_size = 8;
  opts.result_cache = &cache;
  run_session(tuner, task, hw, sim, opts);
}

std::vector<PredictorSample> toy_samples(const searchspace::Task& task,
                                         const hwspec::GpuSpec& hw) {
  std::vector<PredictorSample> samples;
  Rng rng(0xabcdef);
  for (int i = 0; i < 48; ++i) {
    PredictorSample s;
    s.task = &task;
    s.hw = &hw;
    s.config = task.space().random_config(rng);
    s.score = (i % 12 + 1) / 12.0;
    samples.push_back(std::move(s));
  }
  return samples;
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), {});
}

TEST(ConfigPredictorTest, FitIsDeterministicAndFileRoundTrips) {
  const searchspace::Task& task = small_conv_task();
  const hwspec::GpuSpec& hw = titan_xp();
  auto samples = toy_samples(task, hw);

  PredictorTrainOptions topts;
  topts.epochs = 8;
  ConfigPredictor a, b;
  a.fit(samples, topts);
  b.fit(samples, topts);
  ASSERT_TRUE(a.fitted());
  EXPECT_EQ(a.train_samples(), samples.size());
  EXPECT_GT(a.blueprint_dim(), 0u);

  // Same samples, same options -> bit-identical predictions and files.
  const std::string dir = tmp_dir("predictor_roundtrip");
  a.save_file(dir + "/a.txt");
  b.save_file(dir + "/b.txt");
  EXPECT_EQ(slurp(dir + "/a.txt"), slurp(dir + "/b.txt"));

  ConfigPredictor loaded = ConfigPredictor::load_file(dir + "/a.txt");
  ASSERT_TRUE(loaded.fitted());
  Rng rng(99);
  for (int i = 0; i < 16; ++i) {
    searchspace::Config probe = task.space().random_config(rng);
    EXPECT_EQ(a.predict(task, hw, probe), b.predict(task, hw, probe));
    EXPECT_EQ(a.predict(task, hw, probe), loaded.predict(task, hw, probe));
  }
  fs::remove_all(dir);
}

TEST(ConfigPredictorTest, RankIsSortedDeterministicAndTruncated) {
  const searchspace::Task& task = small_conv_task();
  const hwspec::GpuSpec& hw = titan_xp();
  ConfigPredictor p;
  PredictorTrainOptions topts;
  topts.epochs = 4;
  p.fit(toy_samples(task, hw), topts);

  std::vector<searchspace::Config> candidates;
  Rng rng(7);
  for (int i = 0; i < 32; ++i)
    candidates.push_back(task.space().random_config(rng));
  auto ranked = p.rank(task, hw, candidates, 8);
  ASSERT_EQ(ranked.size(), 8u);
  for (std::size_t i = 1; i < ranked.size(); ++i)
    EXPECT_GE(ranked[i - 1].second, ranked[i].second);
  EXPECT_EQ(ranked, p.rank(task, hw, candidates, 8));
}

TEST(ConfigPredictorTest, FitRejectsEmptySampleSet) {
  ConfigPredictor p;
  EXPECT_THROW(p.fit({}), std::exception);
}

TEST(WarmStartAdvisorTest, SameHardwareDonorOutranksDistantBlueprint) {
  // One tier entry from the target device itself (transfer weight 1) and
  // one, with the same relative score, from a Maxwell card far away in
  // Blueprint space: the self-entry must rank first.
  const searchspace::Task& task = small_conv_task();
  const hwspec::GpuSpec* target = hwspec::find_gpu("RTX 2080 Ti");
  const hwspec::GpuSpec* distant = hwspec::find_gpu("GTX 950");
  ASSERT_NE(target, nullptr);
  ASSERT_NE(distant, nullptr);
  const searchspace::Config self_cfg = task.space().from_flat_index(1);
  const searchspace::Config far_cfg = task.space().from_flat_index(2);

  const std::string dir = tmp_dir("advisor_weighting");
  write_tier_entry(dir, "tier-self.jsonl", task, *target, self_cfg, 500.0);
  write_tier_entry(dir, "tier-far.jsonl", task, *distant, far_cfg, 500.0);

  WarmStartOptions wopts;
  wopts.shared_dir = dir;
  const WarmStartAdvisor advisor(wopts);
  const WarmStart ws = advisor.advise(task, *target);
  ASSERT_EQ(ws.configs.size(), 2u);
  EXPECT_EQ(ws.donor_devices, 2u);
  EXPECT_EQ(ws.configs[0], self_cfg);
  EXPECT_EQ(ws.configs[1], far_cfg);
  EXPECT_GT(ws.scores[0], ws.scores[1]);
  EXPECT_FALSE(ws.from_predictor_only);
  fs::remove_all(dir);
}

TEST(WarmStartAdvisorTest, StaleAndForeignLinesAreNeverDonors) {
  const searchspace::Task& task = small_conv_task();
  const hwspec::GpuSpec* target = hwspec::find_gpu("RTX 2080 Ti");
  const std::string dir = tmp_dir("advisor_stale");
  write_tier_entry(dir, "tier-ok.jsonl", task, *target,
                   task.space().from_flat_index(1), 400.0);
  {
    // An old-scheme line (no "fpv") and one from an unknown device: both
    // must be skipped, not adopted under a wrong identity.
    std::string line = slurp(dir + "/tier-ok.jsonl");
    const std::string fpv =
        "\"fpv\":" + std::to_string(tuning::kCacheLineFpVersion) + ",";
    line.erase(line.find(fpv), fpv.size());
    std::ofstream os(dir + "/tier-old.jsonl", std::ios::trunc);
    os << line;
    hwspec::GpuSpec mystery = *target;
    mystery.name = "not in any database";
    mystery.quirk_seed = 0x1234;
    os.close();
    write_tier_entry(dir, "tier-mystery.jsonl", task, mystery,
                     task.space().from_flat_index(3), 900.0);
  }
  WarmStartOptions wopts;
  wopts.shared_dir = dir;
  const WarmStartAdvisor advisor(wopts);
  const WarmStart ws = advisor.advise(task, *target);
  ASSERT_EQ(ws.configs.size(), 1u);
  EXPECT_EQ(ws.configs[0], task.space().from_flat_index(1));
  EXPECT_EQ(ws.donor_devices, 1u);
  fs::remove_all(dir);
}

TEST(WarmStartAdvisorTest, ColdStartFallbackIsEmptyAndHarmless) {
  const searchspace::Task& task = small_conv_task();
  const hwspec::GpuSpec& hw = titan_xp();

  // Missing directory, no predictor: empty advice, never a throw.
  WarmStartOptions wopts;
  wopts.shared_dir = ::testing::TempDir() + "/does_not_exist_anywhere";
  const WarmStartAdvisor advisor(wopts);
  const WarmStart ws = advisor.advise(task, hw);
  EXPECT_TRUE(ws.configs.empty());
  EXPECT_TRUE(ws.scores.empty());
  EXPECT_EQ(ws.tier_entries, 0u);
  EXPECT_FALSE(ws.from_predictor_only);

  // Feeding the empty advice through SessionOptions must reproduce the
  // cold run bit-for-bit: cold start means *exactly* today's behaviour.
  SessionOptions opts;
  opts.max_trials = 32;
  opts.batch_size = 8;
  SessionOptions warm_opts = opts;
  warm_opts.warm_configs = ws.configs;
  warm_opts.warm_scores = ws.scores;
  AutoTvmTuner cold_tuner(task, hw, 5);
  AutoTvmTuner warm_tuner(task, hw, 5);
  SimMeasurer cold_sim, warm_sim;
  Trace cold = run_session(cold_tuner, task, hw, cold_sim, opts);
  Trace warm = run_session(warm_tuner, task, hw, warm_sim, warm_opts);
  expect_traces_identical(cold, warm);
}

TEST(WarmStartAdvisorTest, AdviceIsThreadCountInvariant) {
  const searchspace::Task& task = small_conv_task();
  const hwspec::GpuSpec* target = hwspec::find_gpu("RTX 2080 Ti");
  const std::string dir = tmp_dir("advisor_threads");
  build_donor_tier(dir, "donor0", task, titan_xp(), 32);
  build_donor_tier(dir, "donor1", task, *hwspec::find_gpu("RTX 2070"), 32);

  WarmStartOptions wopts;
  wopts.shared_dir = dir;
  const WarmStartAdvisor advisor(wopts);
  set_num_threads(1);
  const WarmStart one = advisor.advise(task, *target);
  set_num_threads(4);
  const WarmStart four = advisor.advise(task, *target);
  set_num_threads(0);
  EXPECT_FALSE(one.configs.empty());
  EXPECT_EQ(one.configs, four.configs);
  EXPECT_EQ(one.scores, four.scores);
  fs::remove_all(dir);
}

// The satellite determinism matrix: for each warm-start-honoring tuner,
// warm on/off x 1-vs-4 measurement threads x kill/resume all produce
// bit-identical traces.
class WarmStartDeterminismTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Tuner> make_tuner(const searchspace::Task& task,
                                    const hwspec::GpuSpec& hw) const {
    const std::string name = GetParam();
    if (name == "autotvm")
      return std::make_unique<AutoTvmTuner>(task, hw, /*seed=*/21);
    return std::make_unique<ChameleonTuner>(task, hw, /*seed=*/21);
  }
};

TEST_P(WarmStartDeterminismTest, MatrixOnOffThreadsResume) {
  const searchspace::Task& task = small_conv_task();
  const hwspec::GpuSpec* target = hwspec::find_gpu("RTX 2080 Ti");
  const std::string dir = tmp_dir(std::string("warm_matrix_") + GetParam());
  build_donor_tier(dir, "donor0", task, titan_xp(), 48);
  WarmStartOptions wopts;
  wopts.shared_dir = dir;
  const WarmStart ws = WarmStartAdvisor(wopts).advise(task, *target);
  ASSERT_FALSE(ws.configs.empty());

  constexpr std::size_t kTrials = 48;
  constexpr std::size_t kBatch = 8;
  auto run = [&](bool warm, std::size_t stop_after,
                 const std::string& checkpoint,
                 const std::string& resume) {
    auto tuner = make_tuner(task, *target);
    SimMeasurer sim;
    SessionOptions opts;
    opts.max_trials = stop_after;
    opts.batch_size = kBatch;
    opts.checkpoint_path = checkpoint;
    opts.resume_from = resume;
    if (warm) {
      opts.warm_configs = ws.configs;
      opts.warm_scores = ws.scores;
    }
    return run_session(*tuner, task, *target, sim, opts);
  };

  for (bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    set_num_threads(1);
    Trace ref = run(warm, kTrials, "", "");
    set_num_threads(4);
    Trace threaded = run(warm, kTrials, "", "");
    expect_traces_identical(ref, threaded);

    // Kill after the first batch (always exactly kBatch trials — adaptive
    // tuners produce ragged later batches, and a kill point must sit on a
    // batch boundary of the uninterrupted trajectory), then resume with a
    // fresh tuner. Replay applies the journaled warm seeds before the
    // journaled batches, so the resumed run continues the recorded
    // trajectory bit-identically.
    const std::string snap = dir + (warm ? "/warm.ckpt" : "/cold.ckpt");
    run(warm, kBatch, snap, "");
    Trace resumed = run(warm, kTrials, snap, snap);
    set_num_threads(0);
    expect_traces_identical(ref, resumed);
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Tuners, WarmStartDeterminismTest,
                         ::testing::Values("autotvm", "chameleon"));

TEST(WarmStartSessionTest, WarmSeedsAreMeasuredFirst) {
  // Contract: the tuner proposes the advisor's seeds before anything else,
  // so the first batch of a warm session is exactly the top seeds.
  const searchspace::Task& task = small_conv_task();
  const hwspec::GpuSpec* target = hwspec::find_gpu("RTX 2080 Ti");
  const std::string dir = tmp_dir("warm_seeds_first");
  build_donor_tier(dir, "donor0", task, titan_xp(), 48);
  WarmStartOptions wopts;
  wopts.shared_dir = dir;
  wopts.top_k = 4;
  const WarmStart ws = WarmStartAdvisor(wopts).advise(task, *target);
  ASSERT_GE(ws.configs.size(), 2u);

  AutoTvmTuner tuner(task, *target, 3);
  SimMeasurer sim;
  SessionOptions opts;
  opts.max_trials = 16;
  opts.batch_size = 8;
  opts.warm_configs = ws.configs;
  opts.warm_scores = ws.scores;
  Trace tr = run_session(tuner, task, *target, sim, opts);
  ASSERT_GE(tr.trials.size(), ws.configs.size());
  for (std::size_t i = 0; i < ws.configs.size(); ++i)
    EXPECT_EQ(tr.trials[i].config, ws.configs[i]) << "seed " << i;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace glimpse::tuning
