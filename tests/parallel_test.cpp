#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "common/logging.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "glimpse/surrogate.hpp"
#include "gp/gp_regression.hpp"
#include "gp/kernel.hpp"
#include "identity.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "nn/losses.hpp"
#include "nn/mlp.hpp"
#include "searchspace/features.hpp"
#include "test_util.hpp"
#include "tuning/sa.hpp"

namespace glimpse {
namespace {

using glimpse::testing::IdentityChecker;
using glimpse::testing::TuningRun;
using glimpse::testing::rtx3090;
using glimpse::testing::small_conv_task;
using glimpse::testing::small_dense_task;
using glimpse::testing::task_run;
using glimpse::testing::tiny_artifacts;
using glimpse::testing::titan_xp;

linalg::Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  linalg::Matrix m(r, c);
  for (double& v : m.data()) v = rng.normal();
  return m;
}

TEST(ParallelTest, NumThreadsIsAtLeastOne) {
  EXPECT_GE(num_threads(), 1u);
  testing::EnvScope scope({.threads = 3});
  EXPECT_EQ(num_threads(), 3u);
}

TEST(ParallelTest, ForCoversEveryIndexExactlyOnce) {
  testing::EnvScope pool({.threads = 4});
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, EmptyRangeRunsNothing) {
  testing::EnvScope pool({.threads = 4});
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelTest, ExceptionPropagatesLowestChunk) {
  testing::EnvScope pool({.threads = 8});
  try {
    parallel_for(1000, [&](std::size_t i) {
      if (i >= 100) throw std::runtime_error("index " + std::to_string(i));
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    // The lowest-index thrower must win, as in a serial ascending run.
    EXPECT_STREQ(e.what(), "index 100");
  }
}

TEST(ParallelTest, ExceptionInSerialFallbackPropagates) {
  testing::EnvScope pool({.threads = 1});
  EXPECT_THROW(
      parallel_for(10, [&](std::size_t) { throw std::logic_error("boom"); }),
      std::logic_error);
}

TEST(ParallelTest, NestedCallsRunSeriallyWithoutDeadlock) {
  testing::EnvScope pool({.threads = 4});
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::atomic<int>> off_thread(8);
  parallel_for(8, [&](std::size_t outer) {
    // A nested loop, whichever thread runs the outer index, must complete
    // serially in place on that thread.
    const auto here = std::this_thread::get_id();
    parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
      if (std::this_thread::get_id() != here) off_thread[outer].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (const auto& o : off_thread) EXPECT_EQ(o.load(), 0);
}

TEST(ParallelTest, SingleChunkRunsInlineOnCallerThread) {
  testing::EnvScope pool({.threads = 8});
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  // One index: must not touch the queue at all, just run here.
  parallel_for(1, [&](std::size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ParallelTest, WidthOnePoolRunsInlineOnCallerThread) {
  testing::EnvScope pool({.threads = 1});
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(9);
  // Many indices but a 1-wide pool: the inline fast path keeps every index
  // on the caller with zero queue/notify traffic.
  parallel_for(seen.size(), [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

// ---------- Rng substreams ----------

TEST(RngForkStreamTest, ReproducibleAcrossCalls) {
  Rng a = Rng::fork(123, 5);
  Rng b = Rng::fork(123, 5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.engine()(), b.engine()());
}

TEST(RngForkStreamTest, StreamsAreIndependent) {
  Rng a = Rng::fork(123, 0);
  Rng b = Rng::fork(123, 1);
  int diff = 0;
  for (int i = 0; i < 16; ++i)
    if (a.engine()() != b.engine()()) ++diff;
  EXPECT_EQ(diff, 16);
}

TEST(RngForkStreamTest, DoesNotTouchParentState) {
  Rng parent(99);
  Rng reference(99);
  (void)Rng::fork(42, 7);  // static: cannot consume any parent state
  EXPECT_EQ(parent.engine()(), reference.engine()());
}

// ---------- end-to-end determinism (tests/identity.hpp) ----------

TEST(ParallelDeterminismTest, GbtTunerTracesIdenticalAcrossThreadsAndPinned) {
  // The digests were recorded before the GBT fit and scoring were rewritten
  // (presorted split search, flat-forest batch scoring): any change to a
  // split, a leaf or a score that moves a decision moves a digest.
  auto pinned = [](const char* tuner, const searchspace::Task& task, std::uint64_t seed,
                   std::uint64_t digest) {
    TuningRun run = task_run(tuner, task, titan_xp(), seed, 64);
    run.digest = digest;
    return run;
  };
  IdentityChecker check({pinned("autotvm", small_conv_task(), 31, 0x904d3782a8b9bfafULL),
                         pinned("chameleon", small_conv_task(), 32, 0xf76f10a3619b1028ULL),
                         pinned("autotvm", small_dense_task(), 33, 0x272f0c656af23bdaULL),
                         pinned("chameleon", small_dense_task(), 34, 0xd3147e0b818efd8dULL)});
  check.expect({.env = {.threads = 4}});
  check.expect({.env = {.simd = true}});
}

TEST(ParallelDeterminismTest, TunerDecisionsIdenticalAcrossThreadsAndSimd) {
  IdentityChecker check({task_run("glimpse", small_conv_task(), titan_xp(), 555, 48)});
  check.expect({.env = {.threads = 4}});
  check.expect({.env = {.simd = true}});
  check.expect({.env = {.threads = 4, .simd = true}});
}

TEST(ParallelDeterminismTest, SaIdenticalAtOneAndEightThreads) {
  const auto& task = small_conv_task();
  tuning::BatchScoreFn score = testing::score_each([](const searchspace::Config& c) {
    return static_cast<double>((c[0] * 31 + c[1] * 7) % 53);
  });
  testing::expect_env_invariant(
      [&] {
        Rng rng(404);
        auto r = tuning::simulated_annealing(task.space(), score, 16, rng,
                                             {.num_chains = 12, .num_steps = 40});
        return std::make_tuple(r.configs, r.scores, r.evaluations);
      },
      {{.threads = 8}});
}

TEST(ParallelDeterminismTest, TunerTrajectoryIdenticalAtOneAndEightThreads) {
  IdentityChecker({task_run("glimpse", small_conv_task(), titan_xp(), 1234, 64)})
      .expect({.env = {.threads = 8}});
}

TEST(ParallelDeterminismTest, DgpDecisionsIdenticalAcrossThreadsAndSimd) {
  IdentityChecker check({task_run("dgp", small_conv_task(), titan_xp(), 44, 24)});
  check.expect({.env = {.threads = 4}});
  check.expect({.env = {.simd = true}});
}

// ---------- SIMD x thread-count determinism matrix ----------

TEST(ParallelDeterminismTest, LinalgBitIdenticalAcrossThreadsAndSimd) {
  Rng rng(77);
  // Odd shapes: exercise the 4-wide kernels' tails.
  linalg::Matrix a = random_matrix(37, 19, rng);
  linalg::Matrix b = random_matrix(19, 23, rng);
  linalg::Matrix bt = random_matrix(23, 19, rng);
  linalg::Matrix m = random_matrix(96, 33, rng);
  linalg::Vector x(33), xt(96);
  for (double& v : x) v = rng.normal();
  for (double& v : xt) v = rng.normal();
  auto flat = [](const linalg::Matrix& mat) {
    return std::vector<double>(mat.data().begin(), mat.data().end());
  };
  // Vector == is exact bitwise equality here (no NaNs): the scalar fallback
  // shares the SIMD accumulator tree.
  testing::expect_env_invariant(
      [&] {
        return std::tuple(flat(linalg::matmul(a, b)), flat(linalg::matmul_nt(a, bt)),
                          linalg::matvec(m, x), linalg::matvec_t(m, xt), linalg::dot(x, x),
                          linalg::sqdist(m.row(0), m.row(1)));
      },
      {{.simd = true}, {.threads = 4}, {.threads = 4, .simd = true}});

  // Large shapes against test-local loops: matmul and matvec_t accumulate in
  // ascending order, and a matvec row is the canonical dot of that row.
  const linalg::Matrix big_a = random_matrix(224, 192, rng);
  const linalg::Matrix big_b = random_matrix(192, 208, rng);
  const linalg::Matrix big_m = random_matrix(768, 512, rng);
  linalg::Vector big_x(512), big_xt(768);
  for (double& v : big_x) v = rng.normal();
  for (double& v : big_xt) v = rng.normal();
  linalg::Matrix big_c_ref(224, 208);
  for (std::size_t i = 0; i < 224; ++i)
    for (std::size_t k = 0; k < 192; ++k)
      for (std::size_t j = 0; j < 208; ++j) big_c_ref(i, j) += big_a(i, k) * big_b(k, j);
  linalg::Vector big_mvt_ref(512, 0.0);
  for (std::size_t i = 0; i < 768; ++i)
    for (std::size_t j = 0; j < 512; ++j) big_mvt_ref[j] += big_m(i, j) * big_xt[i];
  for (bool simd : {false, true}) {
    testing::EnvScope scope({.simd = simd});
    SCOPED_TRACE(::testing::Message() << "large, simd=" << simd);
    const linalg::Matrix big_c = linalg::matmul(big_a, big_b);
    EXPECT_EQ(std::memcmp(big_c.data().data(), big_c_ref.data().data(),
                          big_c.data().size() * sizeof(double)),
              0);
    const linalg::Vector big_mvt = linalg::matvec_t(big_m, big_xt);
    EXPECT_EQ(std::memcmp(big_mvt.data(), big_mvt_ref.data(), big_mvt.size() * sizeof(double)),
              0);
    const linalg::Vector big_mv = linalg::matvec(big_m, big_x);
    for (std::size_t i = 0; i < big_m.rows(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(big_mv[i]),
                std::bit_cast<std::uint64_t>(linalg::dot(big_m.row(i), big_x)))
          << "row " << i;
  }
}

// ---------- batched predict == per-sample predict ----------

TEST(ParallelDeterminismTest, SurrogatePredictBatchMatchesPredict) {
  const auto& task = small_conv_task();
  Rng rng(91);
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  for (int i = 0; i < 48; ++i) {
    rows.push_back(searchspace::config_features(
        task, task.space().random_config(rng)));
    y.push_back(rng.uniform());
  }
  linalg::Matrix x = linalg::Matrix::from_rows(rows);
  Rng fit_rng(17);
  core::NeuralSurrogate s(x.cols(), fit_rng, {.ensemble = 3});
  s.fit(x, y, fit_rng);
  for (bool simd : {false, true}) {
    testing::EnvScope scope({.simd = simd});
    auto batch = s.predict_batch(x);
    ASSERT_EQ(batch.size(), x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      auto one = s.predict(x.row(i));
      EXPECT_EQ(batch[i].mean, one.mean) << "row " << i << " simd " << simd;
      EXPECT_EQ(batch[i].std, one.std) << "row " << i << " simd " << simd;
    }
  }
}

TEST(ParallelDeterminismTest, GpPredictBatchMatchesPredict) {
  Rng rng(23);
  linalg::Matrix x = random_matrix(64, 9, rng);
  linalg::Vector y(64);
  for (double& v : y) v = rng.normal();
  gp::GpRegressor gpr(std::make_unique<gp::Matern52Kernel>(1.5, 1.0), 1e-4);
  gpr.fit(x, y);
  linalg::Matrix q = random_matrix(33, 9, rng);
  auto batch = gpr.predict_batch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    auto one = gpr.predict(q.row(i));
    EXPECT_EQ(batch[i].mean, one.mean) << "row " << i;
    EXPECT_EQ(batch[i].variance, one.variance) << "row " << i;
  }
}

// ---------- packed scoring and accumulating backprop == the old paths ----------

/// Bitwise equality, so -0.0 and +0.0 count as different.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The batched acquisition and surrogate run Mlp::forward_batch (matmul_nt)
// where the per-sample path ran Mlp::forward (matvec): pin the two against
// each other directly, with SIMD off and on.
TEST(ParallelDeterminismTest, MlpForwardBatchMatchesForward) {
  for (bool simd : {false, true}) {
    testing::EnvScope scope({.simd = simd});
    for (nn::Activation activation : {nn::Activation::kRelu, nn::Activation::kTanh}) {
      Rng rng(simd ? 61 : 62);
      nn::Mlp net({11, 24, 16, 3}, activation, rng);
      linalg::Matrix x = random_matrix(29, 11, rng);
      for (std::size_t i = 0; i < x.rows(); i += 4) x(i, i % 11) = -0.0;
      nn::Mlp::BatchCache cache;
      linalg::Matrix batch = net.forward_batch(x, &cache);
      ASSERT_EQ(batch.rows(), x.rows());
      ASSERT_EQ(batch.cols(), net.output_dim());
      ASSERT_EQ(cache.post.size(), net.params().w.size());
      for (std::size_t i = 0; i < x.rows(); ++i) {
        nn::Mlp::Cache one_cache;
        linalg::Vector one = net.forward(x.row(i), one_cache);
        for (std::size_t j = 0; j < one.size(); ++j)
          EXPECT_TRUE(same_bits(batch(i, j), one[j]))
              << "row " << i << " out " << j << " simd " << simd;
        for (std::size_t l = 0; l < cache.post.size(); ++l) {
          auto row = cache.post[l].row(i);
          ASSERT_EQ(row.size(), one_cache.post[l].size());
          for (std::size_t j = 0; j < row.size(); ++j)
            EXPECT_TRUE(same_bits(row[j], one_cache.post[l][j]))
                << "row " << i << " layer " << l << " unit " << j << " simd " << simd;
        }
      }
    }
  }
}

TEST(ParallelDeterminismTest, MetaScoreBatchMatchesScore) {
  const core::MetaOptimizer& meta = *tiny_artifacts().meta;
  const std::size_t bp_dim = core::default_blueprint_dim();
  for (bool simd : {false, true}) {
    testing::EnvScope scope({.simd = simd});
    Rng rng(131);
    constexpr std::size_t kRows = 37;
    std::vector<core::MetaFeatures> feats(kRows);
    linalg::Matrix bps = random_matrix(kRows, bp_dim, rng);
    linalg::Matrix derived = random_matrix(kRows, searchspace::kDerivedFeatureDim, rng);
    linalg::Matrix rows(kRows, meta.input_dim());
    for (std::size_t i = 0; i < kRows; ++i) {
      feats[i] = {.surrogate_mean = rng.normal(), .surrogate_std = rng.uniform(),
                  .prior_z = rng.normal(), .progress = rng.uniform()};
      meta.write_row(feats[i], bps.row(i), derived.row(i), rows.row(i));
    }
    linalg::Vector batch = meta.score_batch(rows);
    ASSERT_EQ(batch.size(), kRows);
    for (std::size_t i = 0; i < kRows; ++i)
      EXPECT_TRUE(same_bits(batch[i], meta.score(feats[i], bps.row(i), derived.row(i))))
          << "row " << i << " simd " << simd;
  }
}

TEST(ParallelDeterminismTest, FeaturizeIntoMatchesSeparateFeaturizers) {
  const searchspace::Task attention("oracle.attention",
                                    searchspace::AttentionShape{1, 12, 128, 64});
  const searchspace::Task depthwise(
      "oracle.depthwise", searchspace::DepthwiseShape{1, 128, 56, 56, 3, 3, 1, 1});
  const searchspace::Task reduction("oracle.reduce", searchspace::ReductionShape{256, 196});
  const std::vector<const searchspace::Task*> tasks = {
      &small_conv_task(), &testing::small_winograd_task(), &small_dense_task(),
      &attention,         &depthwise,                      &reduction};
  for (bool simd : {false, true}) {
    testing::EnvScope scope({.simd = simd});
    Rng rng(17);
    for (const searchspace::Task* task : tasks) {
      const std::size_t dim = searchspace::config_feature_dim(*task);
      for (int k = 0; k < 25; ++k) {
        auto c = task->space().random_config(rng);
        linalg::Vector want = searchspace::config_features(*task, c);
        linalg::Vector want_derived = searchspace::derived_config_features(*task, c);
        linalg::Vector got(dim), got_derived(searchspace::kDerivedFeatureDim);
        searchspace::featurize_into(*task, c, got, got_derived);
        ASSERT_EQ(want.size(), dim);
        ASSERT_EQ(want_derived.size(), got_derived.size());
        for (std::size_t i = 0; i < dim; ++i)
          EXPECT_TRUE(same_bits(got[i], want[i])) << task->name() << " feature " << i;
        for (std::size_t i = 0; i < got_derived.size(); ++i)
          EXPECT_TRUE(same_bits(got_derived[i], want_derived[i]))
              << task->name() << " derived " << i;
      }
    }
  }
  // The one-derive() path keeps derive()'s membership check.
  searchspace::Config bad(small_conv_task().space().num_knobs(), 1 << 30);
  linalg::Vector f(searchspace::config_feature_dim(small_conv_task()));
  linalg::Vector d(searchspace::kDerivedFeatureDim);
  EXPECT_THROW(searchspace::featurize_into(small_conv_task(), bad, f, d), CheckError);
}

/// Reference backprop: a fresh zeroed gradient per sample, which the caller
/// then scales into its accumulator with MlpParams::axpy.
nn::MlpParams reference_backward(const nn::Mlp& net, nn::Activation activation,
                                 std::span<const double> x, const nn::Mlp::Cache& cache,
                                 std::span<const double> dout, linalg::Vector* dx) {
  const auto& p = net.params();
  nn::MlpParams g = net.zero_like();
  linalg::Vector delta(dout.begin(), dout.end());
  for (std::size_t li = p.w.size(); li-- > 0;) {
    if (li + 1 != p.w.size()) {
      for (std::size_t i = 0; i < delta.size(); ++i) {
        const double pre = cache.pre[li][i];
        double grad = 0.0;
        if (activation == nn::Activation::kRelu) {
          grad = pre > 0 ? 1.0 : 0.0;
        } else {
          const double t = std::tanh(pre);
          grad = 1.0 - t * t;
        }
        delta[i] *= grad;
      }
    }
    std::span<const double> input =
        (li == 0) ? x : std::span<const double>(cache.post[li - 1]);
    for (std::size_t r = 0; r < g.w[li].rows(); ++r) {
      const double d = delta[r];
      if (d == 0.0) continue;
      auto row = g.w[li].row(r);
      for (std::size_t c = 0; c < row.size(); ++c) row[c] += d * input[c];
    }
    for (std::size_t i = 0; i < delta.size(); ++i) g.b[li][i] += delta[i];
    if (li > 0 || dx != nullptr) {
      linalg::Vector dprev = linalg::matvec_t(p.w[li], delta);
      if (li == 0) {
        if (dx) {
          if (dx->empty()) dx->assign(dprev.begin(), dprev.end());
          else
            for (std::size_t i = 0; i < dprev.size(); ++i) (*dx)[i] += dprev[i];
        }
      } else {
        delta = std::move(dprev);
      }
    }
  }
  return g;
}

TEST(ParallelDeterminismTest, AccumulatingBackwardMatchesBackwardThenAxpy) {
  for (bool simd : {false, true}) {
    testing::EnvScope scope({.simd = simd});
    for (nn::Activation activation : {nn::Activation::kRelu, nn::Activation::kTanh}) {
      Rng rng(activation == nn::Activation::kRelu ? 7 : 8);
      nn::Mlp net({6, 9, 5, 2}, activation, rng);
      // Seed the accumulators with signed zeros and values, so `acc += s * 0.0`
      // on dead-ReLU rows has a -0.0 entry to flip.
      nn::MlpParams want = net.zero_like();
      for (auto& w : want.w)
        for (double& v : w.data()) v = rng.chance(0.3) ? -0.0 : rng.normal();
      for (auto& b : want.b)
        for (double& v : b) v = rng.chance(0.3) ? -0.0 : rng.normal();
      want.w[0](0, 0) = -0.0;
      nn::MlpParams got = want;
      std::size_t dead = 0;
      nn::Mlp::Cache cache;
      for (int sample = 0; sample < 24; ++sample) {
        linalg::Vector x(6);
        for (double& v : x) v = rng.normal();
        if (sample % 5 == 0) x[sample % 6] = 0.0;
        linalg::Vector out = net.forward(x, cache);
        for (const auto& pre : cache.pre)
          for (double v : pre) dead += v <= 0.0 ? 1 : 0;
        linalg::Vector target = {rng.normal(), rng.normal()};
        linalg::Vector dout;
        nn::mse_grad(out, target, dout);
        if (sample % 7 == 3) dout[1] = 0.0;  // a zero output gradient too
        const double scale = (sample % 2 == 0 ? 1.0 : -1.0) / 16.0;
        linalg::Vector want_dx, got_dx;
        want.axpy(scale, reference_backward(net, activation, x, cache, dout, &want_dx));
        net.backward(x, cache, dout, scale, got, &got_dx);
        ASSERT_EQ(want_dx.size(), got_dx.size());
        for (std::size_t i = 0; i < want_dx.size(); ++i)
          EXPECT_TRUE(same_bits(want_dx[i], got_dx[i])) << "dx " << i;
        // Compare after every sample: later nonzero updates would hide a
        // signed-zero slip at this one.
        for (std::size_t l = 0; l < want.w.size(); ++l) {
          auto a = want.w[l].data();
          auto b = got.w[l].data();
          for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_TRUE(same_bits(a[i], b[i]))
                << "sample " << sample << " layer " << l << " w " << i;
          for (std::size_t i = 0; i < want.b[l].size(); ++i)
            ASSERT_TRUE(same_bits(want.b[l][i], got.b[l][i]))
                << "sample " << sample << " layer " << l << " b " << i;
        }
      }
      if (activation == nn::Activation::kRelu) {
        EXPECT_GT(dead, 0u);
      }
    }
  }
}

// ---------- the plan phase: every job proposes at once ----------

// Every kind of job side by side on shared pretrained state, as a daemon's
// or a bench's jobs run: each trace equals the job's own session.
TEST(ParallelPlanTest, MixedScheduleMatchesEachJobsOwnSessionAtAnyThreadCount) {
  const hwspec::GpuSpec* gpus[] = {&titan_xp(), &rtx3090()};
  std::vector<TuningRun> runs;
  for (const char* tuner : {"glimpse", "glimpse", "autotvm_tl", "chameleon", "dgp", "random"})
    runs.push_back(
        task_run(tuner, small_conv_task(), *gpus[runs.size() % 2], 70 + runs.size(), 40));
  IdentityChecker check(std::move(runs));
  check.expect({.slots = 4});
  check.expect({.env = {.threads = 4}, .slots = 4});
}

}  // namespace
}  // namespace glimpse
