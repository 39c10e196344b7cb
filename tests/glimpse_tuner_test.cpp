#include "common/logging.hpp"
#include <gtest/gtest.h>

#include <unordered_set>

#include "baselines/random_tuner.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "test_util.hpp"
#include "tuning/session.hpp"

namespace glimpse::core {
namespace {

using glimpse::testing::session_options;
using glimpse::testing::small_conv_task;
using glimpse::testing::small_dense_task;
using glimpse::testing::tiny_artifacts;
using glimpse::testing::titan_xp;
using searchspace::Config;

TEST(GlimpseTunerTest, RequiresArtifacts) {
  GlimpseArtifacts empty;
  EXPECT_THROW(GlimpseTuner(small_conv_task(), titan_xp(), 1, empty), CheckError);
}

TEST(GlimpseTunerTest, InitialConfigsComeFromPriorAndAreDistinct) {
  GlimpseTuner tuner(small_conv_task(), titan_xp(), 2, tiny_artifacts());
  auto init = tuner.propose(32);
  EXPECT_EQ(init.size(), 32u);
  std::unordered_set<Config, searchspace::ConfigHash> uniq(init.begin(), init.end());
  EXPECT_EQ(uniq.size(), init.size());
  for (const auto& c : init) EXPECT_TRUE(small_conv_task().space().contains(c));
}

TEST(GlimpseTunerTest, InitialConfigsBeatRandomOnTrainingGpu) {
  const auto* gpu = hwspec::find_gpu("GTX 1080");
  ASSERT_NE(gpu, nullptr);
  GlimpseTuner tuner(small_conv_task(), *gpu, 3, tiny_artifacts());
  auto init = tuner.propose(40);
  Rng rng(3);
  double best_glimpse = 0.0, best_random = 0.0;
  for (const auto& c : init) {
    auto e = gpusim::estimate(small_conv_task(), c, *gpu);
    if (e.valid) best_glimpse = std::max(best_glimpse, e.gflops);
  }
  for (int i = 0; i < 40; ++i) {
    auto e = gpusim::estimate(small_conv_task(),
                              small_conv_task().space().random_config(rng), *gpu);
    if (e.valid) best_random = std::max(best_random, e.gflops);
  }
  EXPECT_GT(best_glimpse, best_random);
}

TEST(GlimpseTunerTest, SamplerRejectsInvalidCandidates) {
  GlimpseTuner tuner(small_conv_task(), titan_xp(), 4, tiny_artifacts());
  gpusim::SimMeasurer m;
  auto trace = tuning::run_session(tuner, small_conv_task(), titan_xp(), m,
                                   session_options(120));
  // Telemetry proves Hardware-Aware Sampling was exercised.
  EXPECT_GT(tuner.num_rejected_by_sampler(), 0u);
  // Glimpse's measured-invalid fraction should be small even including the
  // cold-start phase (paper Fig. 7: ~5x fewer than AutoTVM's ~10 %).
  EXPECT_LT(trace.invalid_fraction(), 0.25);
}

TEST(GlimpseTunerTest, FullLoopBeatsRandomSubstantially) {
  gpusim::SimMeasurer m1, m2;
  baselines::RandomTuner random(small_conv_task(), titan_xp(), 5);
  GlimpseTuner tuner(small_conv_task(), titan_xp(), 5, tiny_artifacts());
  auto t_rand = tuning::run_session(random, small_conv_task(), titan_xp(), m1,
                                    session_options(160));
  auto t_glimpse = tuning::run_session(tuner, small_conv_task(), titan_xp(), m2,
                                       session_options(160));
  EXPECT_GT(t_glimpse.best_gflops(), t_rand.best_gflops() * 1.3);
}

TEST(GlimpseTunerTest, ProposalsNeverRepeatAcrossPhases) {
  GlimpseTuner tuner(small_dense_task(), titan_xp(), 6, tiny_artifacts());
  gpusim::SimMeasurer m;
  std::unordered_set<Config, searchspace::ConfigHash> seen;
  for (int round = 0; round < 12; ++round) {
    auto batch = tuner.propose(8);
    std::vector<tuning::MeasureResult> results;
    for (const auto& c : batch) {
      EXPECT_TRUE(seen.insert(c).second) << "round " << round;
      results.push_back(m.measure(small_dense_task(), titan_xp(), c));
    }
    tuner.update(batch, results);
  }
}

TEST(GlimpseTunerTest, AblationSwitchesChangeBehaviour) {
  // With the prior disabled, initial configs are random-like; the full
  // tuner's initial set must score higher on the true simulator.
  GlimpseOptions no_prior;
  no_prior.use_prior = false;
  const auto* gpu = hwspec::find_gpu("GTX 1080 Ti");
  ASSERT_NE(gpu, nullptr);
  GlimpseTuner full(small_conv_task(), *gpu, 7, tiny_artifacts());
  GlimpseTuner ablated(small_conv_task(), *gpu, 7, tiny_artifacts(), no_prior);
  auto init_full = full.propose(40);
  auto init_abl = ablated.propose(40);
  auto best_of = [&](const std::vector<Config>& cs) {
    double best = 0.0;
    for (const auto& c : cs) {
      auto e = gpusim::estimate(small_conv_task(), c, *gpu);
      if (e.valid) best = std::max(best, e.gflops);
    }
    return best;
  };
  EXPECT_GT(best_of(init_full), best_of(init_abl) * 0.9);
}

TEST(GlimpseTunerTest, ValidityAblationAdmitsMoreInvalid) {
  GlimpseOptions no_validity;
  no_validity.use_validity = false;
  GlimpseTuner filtered(small_conv_task(), titan_xp(), 8, tiny_artifacts());
  GlimpseTuner unfiltered(small_conv_task(), titan_xp(), 8, tiny_artifacts(),
                          no_validity);
  gpusim::SimMeasurer m1, m2;
  auto t_f = tuning::run_session(filtered, small_conv_task(), titan_xp(), m1,
                                 session_options(96));
  auto t_u = tuning::run_session(unfiltered, small_conv_task(), titan_xp(), m2,
                                 session_options(96));
  EXPECT_LE(t_f.num_invalid(), t_u.num_invalid());
  EXPECT_EQ(unfiltered.num_rejected_by_sampler(), 0u);
}

TEST(GlimpseTunerTest, FactoryProducesWorkingTuner) {
  auto factory = glimpse_factory(tiny_artifacts());
  auto tuner = factory(small_dense_task(), titan_xp(), 9);
  EXPECT_EQ(tuner->name(), "Glimpse");
  EXPECT_EQ(tuner->propose(4).size(), 4u);
}

TEST(PretrainTest, ArtifactsAreComplete) {
  const auto& a = tiny_artifacts();
  EXPECT_NE(a.encoder, nullptr);
  EXPECT_NE(a.prior, nullptr);
  EXPECT_TRUE(a.prior->trained());
  EXPECT_NE(a.meta, nullptr);
  EXPECT_TRUE(a.meta->trained());
  EXPECT_NE(a.validity, nullptr);
}

}  // namespace
}  // namespace glimpse::core
