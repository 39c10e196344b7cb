// Cross-module integration tests: full tuning comparisons on one task, and
// the end-to-end model-level pipeline the benches build on.
#include <gtest/gtest.h>

#include "baselines/autotvm.hpp"
#include "baselines/chameleon.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "searchspace/models.hpp"
#include "test_util.hpp"
#include "tuning/metrics.hpp"
#include "tuning/session.hpp"

namespace glimpse {
namespace {

using glimpse::testing::session_options;
using glimpse::testing::small_conv_task;
using glimpse::testing::tiny_artifacts;
using glimpse::testing::titan_xp;

tuning::Trace run(tuning::Tuner& tuner, const searchspace::Task& task,
                  const hwspec::GpuSpec& hw, std::size_t trials,
                  gpusim::SimMeasurer* out_measurer = nullptr) {
  gpusim::SimMeasurer m;
  auto trace =
      tuning::run_session(tuner, task, hw, m, session_options(trials));
  if (out_measurer) *out_measurer = m;
  return trace;
}

TEST(IntegrationTest, GlimpseConvergesAtLeastAsFastAsAutoTvm) {
  // Paper Fig. 6: Glimpse reaches the same quality in ~5x fewer steps than
  // AutoTVM. Assert a conservative version (>= 1.5x) on one task to keep
  // test runtime modest; the full sweep lives in bench/fig6_search_steps.
  const auto& task = small_conv_task();
  baselines::AutoTvmTuner autotvm(task, titan_xp(), 11);
  auto t_auto = run(autotvm, task, titan_xp(), 280);
  double target = t_auto.best_gflops() * 0.9;

  core::GlimpseTuner glimpse_tuner(task, titan_xp(), 11, tiny_artifacts());
  auto t_glimpse = run(glimpse_tuner, task, titan_xp(), 280);
  ASSERT_GE(t_glimpse.best_gflops(), target)
      << "Glimpse failed to reach AutoTVM's quality";

  auto steps_auto = tuning::steps_to_reach(t_auto, target);
  auto steps_glimpse = tuning::steps_to_reach(t_glimpse, target);
  ASSERT_TRUE(steps_auto.has_value());
  ASSERT_TRUE(steps_glimpse.has_value());
  EXPECT_LE(*steps_glimpse * 3 / 2, *steps_auto)
      << "glimpse=" << *steps_glimpse << " autotvm=" << *steps_auto;
}

TEST(IntegrationTest, GlimpseHasFewestInvalidMeasurements) {
  const auto& task = small_conv_task();
  baselines::AutoTvmTuner autotvm(task, titan_xp(), 12);
  baselines::ChameleonTuner cham(task, titan_xp(), 12);
  core::GlimpseTuner glimpse_tuner(task, titan_xp(), 12, tiny_artifacts());
  auto t_a = run(autotvm, task, titan_xp(), 200);
  auto t_c = run(cham, task, titan_xp(), 200);
  auto t_g = run(glimpse_tuner, task, titan_xp(), 200);
  EXPECT_LT(t_g.num_invalid(), t_a.num_invalid());
  EXPECT_LE(t_g.num_invalid(), t_c.num_invalid());
}

TEST(IntegrationTest, EndToEndModelPipelineProducesFiniteLatency) {
  // Tune every task of AlexNet briefly with Glimpse on a training GPU and
  // assemble the end-to-end latency.
  searchspace::TaskSet ts(searchspace::alexnet());
  const auto* gpu = hwspec::find_gpu("GTX 1080");
  ASSERT_NE(gpu, nullptr);
  std::vector<double> best_latency(ts.num_tasks());
  double total_gpu_seconds = 0.0;
  for (std::size_t i = 0; i < ts.num_tasks(); ++i) {
    core::GlimpseTuner tuner(ts.task(i), *gpu, 13 + i, tiny_artifacts());
    gpusim::SimMeasurer m;
    auto trace = tuning::run_session(tuner, ts.task(i), *gpu, m, session_options(64));
    best_latency[i] = trace.best_latency();
    total_gpu_seconds += m.elapsed_seconds();
  }
  double e2e = ts.end_to_end_latency(best_latency);
  EXPECT_TRUE(std::isfinite(e2e));
  EXPECT_GT(e2e, 0.0);
  EXPECT_LT(e2e, 1.0);  // AlexNet inference is milliseconds, not seconds
  EXPECT_GT(total_gpu_seconds, 0.0);
}

}  // namespace
}  // namespace glimpse
