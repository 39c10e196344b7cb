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
#include "common/rng.hpp"
#include "gpusim/measurer.hpp"
#include "hwspec/database.hpp"
#include "identity.hpp"
#include "test_util.hpp"
#include "tuning/config_predictor.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/session.hpp"
#include "tuning/warmstart.hpp"

namespace glimpse::tuning {
namespace {

using baselines::AutoTvmTuner;
using glimpse::testing::IdentityChecker;
using glimpse::testing::read_file;
using glimpse::testing::reference_trace;
using glimpse::testing::small_conv_task;
using glimpse::testing::task_run;
using glimpse::testing::titan_xp;
using glimpse::testing::TuningRun;
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
  SessionOptions opts = glimpse::testing::session_options(trials);
  opts.result_cache = &cache;
  run_session(tuner, task, hw, sim, opts);
}

std::vector<DatasetSample> toy_samples(const searchspace::Task& task,
                                       const hwspec::GpuSpec& hw) {
  std::vector<DatasetSample> samples;
  Rng rng(0xabcdef);
  for (int i = 0; i < 48; ++i) {
    DatasetSample s;
    s.task = &task;
    s.hw = &hw;
    s.config = task.space().random_config(rng);
    s.score = (i % 12 + 1) / 12.0;
    samples.push_back(std::move(s));
  }
  return samples;
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
  EXPECT_EQ(read_file(dir + "/a.txt"), read_file(dir + "/b.txt"));

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
    std::string line = read_file(dir + "/tier-ok.jsonl");
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
  TuningRun cold = task_run("autotvm", task, hw, 5, 32);
  TuningRun warm = cold;
  warm.warm_configs = ws.configs;
  warm.warm_scores = ws.scores;
  EXPECT_EQ(reference_trace(warm).trials, reference_trace(cold).trials);
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
  auto advise = [&] {
    const WarmStart ws = advisor.advise(task, *target);
    return std::pair(ws.configs, ws.scores);
  };
  EXPECT_FALSE(advise().first.empty());
  glimpse::testing::expect_env_invariant(advise, {{.threads = 4}});
  fs::remove_all(dir);
}

// The determinism matrix: for each warm-start-honoring tuner, warm on/off x
// 1-vs-4 threads x kill/resume all produce bit-identical traces. The kill
// sits after the first batch, which is always whole: adaptive tuners
// produce ragged later batches, and a kill point must sit on a batch
// boundary of the uninterrupted trajectory. Replay applies the journaled warm
// seeds before the journaled batches.
class WarmStartDeterminismTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WarmStartDeterminismTest, MatrixOnOffThreadsResume) {
  const searchspace::Task& task = small_conv_task();
  const hwspec::GpuSpec* target = hwspec::find_gpu("RTX 2080 Ti");
  const std::string dir = tmp_dir(std::string("warm_matrix_") + GetParam());
  build_donor_tier(dir, "donor0", task, titan_xp(), 48);
  WarmStartOptions wopts;
  wopts.shared_dir = dir;
  const WarmStart ws = WarmStartAdvisor(wopts).advise(task, *target);
  ASSERT_FALSE(ws.configs.empty());

  TuningRun cold = task_run(GetParam(), task, *target, /*seed=*/21, 48);
  TuningRun warm = cold;
  warm.warm_configs = ws.configs;
  warm.warm_scores = ws.scores;
  IdentityChecker check({cold, warm});
  check.expect({.env = {.threads = 4}});
  check.expect({.kill_after = {1}});
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

  TuningRun run = task_run("autotvm", task, *target, 3, 16);
  run.warm_configs = ws.configs;
  run.warm_scores = ws.scores;
  const Trace tr = reference_trace(run);
  ASSERT_GE(tr.trials.size(), ws.configs.size());
  for (std::size_t i = 0; i < ws.configs.size(); ++i)
    EXPECT_EQ(tr.trials[i].config, ws.configs[i]) << "seed " << i;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace glimpse::tuning
