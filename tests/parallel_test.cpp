#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/autotvm.hpp"
#include "baselines/chameleon.hpp"
#include "baselines/dgp.hpp"
#include "baselines/random_tuner.hpp"
#include "common/logging.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "glimpse/surrogate.hpp"
#include "gp/gp_regression.hpp"
#include "gp/kernel.hpp"
#include "gpusim/measurer.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "nn/losses.hpp"
#include "nn/mlp.hpp"
#include "searchspace/features.hpp"
#include "test_util.hpp"
#include "tuning/records.hpp"
#include "tuning/sa.hpp"
#include "tuning/scheduler.hpp"
#include "tuning/session.hpp"

namespace glimpse {
namespace {

using glimpse::testing::rtx3090;
using glimpse::testing::small_conv_task;
using glimpse::testing::small_dense_task;
using glimpse::testing::tiny_artifacts;
using glimpse::testing::tiny_dataset;
using glimpse::testing::titan_xp;

/// Restore the default pool width when a test returns.
struct PoolGuard {
  ~PoolGuard() { set_num_threads(0); }
};

/// Restore the runtime SIMD toggle when a test returns.
struct SimdGuard {
  bool initial = linalg::simd_enabled();
  ~SimdGuard() { linalg::set_simd_enabled(initial); }
};

linalg::Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  linalg::Matrix m(r, c);
  for (double& v : m.data()) v = rng.normal();
  return m;
}

TEST(ParallelTest, NumThreadsIsAtLeastOne) {
  PoolGuard guard;
  EXPECT_GE(num_threads(), 1u);
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3u);
}

TEST(ParallelTest, ForCoversEveryIndexExactlyOnce) {
  PoolGuard guard;
  set_num_threads(4);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, EmptyRangeRunsNothing) {
  PoolGuard guard;
  set_num_threads(4);
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelTest, ExceptionPropagatesLowestChunk) {
  PoolGuard guard;
  set_num_threads(8);
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
  PoolGuard guard;
  set_num_threads(1);
  EXPECT_THROW(
      parallel_for(10, [&](std::size_t) { throw std::logic_error("boom"); }),
      std::logic_error);
}

TEST(ParallelTest, NestedCallsRunSeriallyWithoutDeadlock) {
  PoolGuard guard;
  set_num_threads(4);
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
  PoolGuard guard;
  set_num_threads(8);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  // One index: must not touch the queue at all, just run here.
  parallel_for(1, [&](std::size_t) { seen = std::this_thread::get_id(); });
  EXPECT_EQ(seen, caller);
}

TEST(ParallelTest, WidthOnePoolRunsInlineOnCallerThread) {
  PoolGuard guard;
  set_num_threads(1);
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

// ---------- end-to-end determinism ----------

TEST(ParallelDeterminismTest, SaIdenticalAtOneAndEightThreads) {
  PoolGuard guard;
  const auto& task = small_conv_task();
  tuning::BatchScoreFn score = testing::score_each([](const searchspace::Config& c) {
    return static_cast<double>((c[0] * 31 + c[1] * 7) % 53);
  });
  auto run = [&] {
    Rng rng(404);
    return tuning::simulated_annealing(task.space(), score, 16, rng,
                                       {.num_chains = 12, .num_steps = 40});
  };
  set_num_threads(1);
  auto serial = run();
  set_num_threads(8);
  auto parallel = run();
  EXPECT_EQ(serial.configs, parallel.configs);
  EXPECT_EQ(serial.scores, parallel.scores);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
}

TEST(ParallelDeterminismTest, TunerTrajectoryIdenticalAtOneAndEightThreads) {
  PoolGuard guard;
  auto run_trace = [&] {
    core::GlimpseTuner tuner(small_conv_task(), titan_xp(), 1234, tiny_artifacts());
    gpusim::SimMeasurer measurer;
    return tuning::run_session(tuner, small_conv_task(), titan_xp(), measurer,
                               {.max_trials = 64, .batch_size = 8});
  };
  set_num_threads(1);
  auto serial = run_trace();
  set_num_threads(8);
  auto parallel = run_trace();
  ASSERT_EQ(serial.trials.size(), parallel.trials.size());
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    EXPECT_EQ(serial.trials[i].config, parallel.trials[i].config) << "trial " << i;
    EXPECT_EQ(serial.trials[i].result.valid, parallel.trials[i].result.valid);
    EXPECT_DOUBLE_EQ(serial.trials[i].result.gflops, parallel.trials[i].result.gflops);
  }
}

/// Digest of every decision a trace records: configs, steps, validity,
/// GFLOPS and the simulated clock.
std::uint64_t trace_digest(const tuning::Trace& trace) {
  std::uint64_t h = 0;
  for (const auto& t : trace.trials) {
    for (auto v : t.config) h = hash_combine(h, v);
    h = hash_combine(h, t.step);
    h = hash_combine(h, t.result.valid ? 1 : 0);
    h = hash_combine(h, std::bit_cast<std::uint64_t>(t.result.gflops));
    h = hash_combine(h, std::bit_cast<std::uint64_t>(t.elapsed_s));
  }
  return h;
}

TEST(ParallelDeterminismTest, GbtTunerTracesIdenticalAcrossThreadsAndPinned) {
  PoolGuard guard;
  // The digests were recorded before the GBT fit and scoring were rewritten
  // (presorted split search, flat-forest batch scoring): any change to a
  // split, a leaf or a score that moves a decision moves a digest.
  struct Case {
    bool chameleon;
    const searchspace::Task& task;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {false, small_conv_task(), 31, 0x904d3782a8b9bfafULL},
      {true, small_conv_task(), 32, 0xf76f10a3619b1028ULL},
      {false, small_dense_task(), 33, 0x272f0c656af23bdaULL},
      {true, small_dense_task(), 34, 0xd3147e0b818efd8dULL},
  };
  for (const Case& c : cases) {
    auto run = [&] {
      std::unique_ptr<tuning::Tuner> tuner;
      if (c.chameleon)
        tuner = std::make_unique<baselines::ChameleonTuner>(c.task, titan_xp(), c.seed);
      else
        tuner = std::make_unique<baselines::AutoTvmTuner>(c.task, titan_xp(), c.seed);
      gpusim::SimMeasurer measurer;
      tuning::SessionOptions options;
      options.max_trials = 64;
      options.batch_size = 8;
      return tuning::run_session(*tuner, c.task, titan_xp(), measurer, options);
    };
    SCOPED_TRACE(::testing::Message() << (c.chameleon ? "Chameleon" : "AutoTVM")
                                      << " on " << c.task.name());
    set_num_threads(1);
    const tuning::Trace serial = run();
    set_num_threads(4);
    const tuning::Trace parallel = run();
    ASSERT_EQ(serial.trials.size(), 64u);
    EXPECT_TRUE(serial.trials == parallel.trials);
    EXPECT_EQ(trace_digest(serial), c.digest)
        << std::hex << "0x" << trace_digest(serial);
  }
}

// ---------- SIMD x thread-count determinism matrix ----------

TEST(ParallelDeterminismTest, LinalgBitIdenticalAcrossThreadsAndSimd) {
  PoolGuard guard;
  SimdGuard simd_guard;
  Rng rng(77);
  // Odd shapes: exercise the 4-wide kernels' tails and multi-chunk splits.
  linalg::Matrix a = random_matrix(37, 19, rng);
  linalg::Matrix b = random_matrix(19, 23, rng);
  linalg::Matrix bt = random_matrix(23, 19, rng);
  linalg::Matrix m = random_matrix(96, 33, rng);
  linalg::Vector x(33), xt(96);
  for (double& v : x) v = rng.normal();
  for (double& v : xt) v = rng.normal();

  set_num_threads(1);
  linalg::set_simd_enabled(false);
  const linalg::Matrix c_ref = linalg::matmul(a, b);
  const linalg::Matrix nt_ref = linalg::matmul_nt(a, bt);
  const linalg::Vector mv_ref = linalg::matvec(m, x);
  const linalg::Vector mvt_ref = linalg::matvec_t(m, xt);
  const double dot_ref = linalg::dot(x, x);
  const double sq_ref = linalg::sqdist(m.row(0), m.row(1));

  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (bool simd : {false, true}) {
      set_num_threads(threads);
      linalg::set_simd_enabled(simd);
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " simd=" << simd);
      // operator== on the backing vectors is exact bitwise equality here
      // (no NaNs): the scalar fallback shares the SIMD accumulator tree.
      linalg::Matrix c = linalg::matmul(a, b);
      EXPECT_TRUE(std::equal(c.data().begin(), c.data().end(),
                             c_ref.data().begin()));
      linalg::Matrix nt = linalg::matmul_nt(a, bt);
      EXPECT_TRUE(std::equal(nt.data().begin(), nt.data().end(),
                             nt_ref.data().begin()));
      EXPECT_EQ(linalg::matvec(m, x), mv_ref);
      EXPECT_EQ(linalg::matvec_t(m, xt), mvt_ref);
      EXPECT_EQ(linalg::dot(x, x), dot_ref);
      EXPECT_EQ(linalg::sqdist(m.row(0), m.row(1)), sq_ref);
    }
  }

  // Large shapes, at 1 and 4 threads, against test-local loops: matmul and
  // matvec_t accumulate in ascending order, and a matvec row is the
  // canonical dot of that row.
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
  for (std::size_t threads : {1u, 4u}) {
    for (bool simd : {false, true}) {
      set_num_threads(threads);
      linalg::set_simd_enabled(simd);
      SCOPED_TRACE(::testing::Message() << "large, threads=" << threads
                                        << " simd=" << simd);
      const linalg::Matrix big_c = linalg::matmul(big_a, big_b);
      EXPECT_EQ(std::memcmp(big_c.data().data(), big_c_ref.data().data(),
                            big_c.data().size() * sizeof(double)),
                0);
      const linalg::Vector big_mvt = linalg::matvec_t(big_m, big_xt);
      EXPECT_EQ(std::memcmp(big_mvt.data(), big_mvt_ref.data(),
                            big_mvt.size() * sizeof(double)),
                0);
      const linalg::Vector big_mv = linalg::matvec(big_m, big_x);
      for (std::size_t i = 0; i < big_m.rows(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(big_mv[i]),
                  std::bit_cast<std::uint64_t>(linalg::dot(big_m.row(i), big_x)))
            << "row " << i;
    }
  }
}

TEST(ParallelDeterminismTest, TunerDecisionsIdenticalAcrossThreadsAndSimd) {
  PoolGuard guard;
  SimdGuard simd_guard;
  auto run_configs = [&] {
    core::GlimpseTuner tuner(small_conv_task(), titan_xp(), 555, tiny_artifacts());
    gpusim::SimMeasurer measurer;
    auto trace = tuning::run_session(tuner, small_conv_task(), titan_xp(),
                                     measurer, {.max_trials = 48, .batch_size = 8});
    std::vector<std::pair<searchspace::Config, double>> out;
    for (const auto& t : trace.trials)
      out.emplace_back(t.config, t.result.gflops);
    return out;
  };
  set_num_threads(1);
  linalg::set_simd_enabled(false);
  const auto baseline = run_configs();
  ASSERT_FALSE(baseline.empty());
  for (std::size_t threads : {2u, 4u, 8u}) {
    for (bool simd : {false, true}) {
      set_num_threads(threads);
      linalg::set_simd_enabled(simd);
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " simd=" << simd);
      EXPECT_EQ(run_configs(), baseline);
    }
  }
  // The remaining cell of the matrix: serial with SIMD on.
  set_num_threads(1);
  linalg::set_simd_enabled(true);
  EXPECT_EQ(run_configs(), baseline);
}

// ---------- batched predict == per-sample predict ----------

TEST(ParallelDeterminismTest, SurrogatePredictBatchMatchesPredict) {
  PoolGuard guard;
  SimdGuard simd_guard;
  set_num_threads(4);
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
    linalg::set_simd_enabled(simd);
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
  PoolGuard guard;
  set_num_threads(4);
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
  SimdGuard simd_guard;
  for (bool simd : {false, true}) {
    linalg::set_simd_enabled(simd);
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
  PoolGuard guard;
  SimdGuard simd_guard;
  set_num_threads(4);
  const core::MetaOptimizer& meta = *tiny_artifacts().meta;
  const std::size_t bp_dim = core::default_blueprint_dim();
  for (bool simd : {false, true}) {
    linalg::set_simd_enabled(simd);
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
  SimdGuard simd_guard;
  const searchspace::Task attention("oracle.attention",
                                    searchspace::AttentionShape{1, 12, 128, 64});
  const searchspace::Task depthwise(
      "oracle.depthwise", searchspace::DepthwiseShape{1, 128, 56, 56, 3, 3, 1, 1});
  const searchspace::Task reduction("oracle.reduce", searchspace::ReductionShape{256, 196});
  const std::vector<const searchspace::Task*> tasks = {
      &small_conv_task(), &testing::small_winograd_task(), &small_dense_task(),
      &attention,         &depthwise,                      &reduction};
  for (bool simd : {false, true}) {
    linalg::set_simd_enabled(simd);
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
  SimdGuard simd_guard;
  for (bool simd : {false, true}) {
    linalg::set_simd_enabled(simd);
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

/// One factory per kind of job the plan phase runs side by side, sharing
/// pretrained state as a daemon's or a bench's jobs do: two Glimpse jobs on
/// tiny_artifacts(), AutoTVM+TL on one transfer model, Chameleon, DGP on
/// one embedder, and Random.
std::vector<tuning::TunerFactory> mixed_factories() {
  static const auto transfer = [] {
    std::vector<tuning::TuningRecord> records;
    std::vector<const searchspace::Task*> tasks;
    for (const auto& s : tiny_dataset().samples()) {
      records.push_back({s.task->name(), s.hw->name, s.config, s.valid, s.gflops, 0.0});
      tasks.push_back(s.task);
    }
    std::vector<const tuning::TuningRecord*> ptrs;
    for (const auto& r : records) ptrs.push_back(&r);
    Rng rng(95);
    return baselines::fit_transfer_model(ptrs, tasks, rng);
  }();
  static const auto embedder = [] {
    Rng rng(96);
    return baselines::pretrain_dgp_embedder(
        tiny_dataset(), rng, {.embed_dim = 8, .hidden = 16, .pretrain_epochs = 15});
  }();
  return {core::glimpse_factory(tiny_artifacts()), core::glimpse_factory(tiny_artifacts()),
          baselines::autotvm_factory(transfer),    baselines::chameleon_factory(),
          baselines::dgp_factory(embedder),        baselines::random_factory()};
}

TEST(ParallelPlanTest, MixedScheduleMatchesEachJobsOwnSessionAtAnyThreadCount) {
  PoolGuard guard;
  const std::vector<tuning::TunerFactory> factories = mixed_factories();
  const hwspec::GpuSpec* gpus[] = {&titan_xp(), &rtx3090()};
  const auto& task = small_conv_task();
  tuning::SessionOptions options;
  options.max_trials = 40;
  options.batch_size = 8;
  auto tuner_for = [&](std::size_t j) { return factories[j](task, *gpus[j % 2], 70 + j); };

  set_num_threads(1);
  std::vector<tuning::Trace> alone;
  for (std::size_t j = 0; j < factories.size(); ++j) {
    auto tuner = tuner_for(j);
    gpusim::SimMeasurer measurer;
    alone.push_back(tuning::run_session(*tuner, task, *gpus[j % 2], measurer, options));
  }
  for (std::size_t threads : {1, 4}) {
    set_num_threads(threads);
    std::vector<std::unique_ptr<tuning::Tuner>> tuners;
    std::vector<std::unique_ptr<gpusim::SimMeasurer>> sims;
    std::vector<tuning::ScheduledJob> jobs;
    for (std::size_t j = 0; j < factories.size(); ++j) {
      tuners.push_back(tuner_for(j));
      sims.push_back(std::make_unique<gpusim::SimMeasurer>());
      jobs.push_back({tuners.back().get(), &task, gpus[j % 2], sims.back().get(), options});
    }
    const std::vector<tuning::Trace> traces = tuning::run_scheduled(jobs);
    ASSERT_EQ(traces.size(), alone.size());
    for (std::size_t j = 0; j < traces.size(); ++j) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " job " << j << " ("
                                        << tuners[j]->name() << ")");
      ASSERT_EQ(traces[j].trials.size(), options.max_trials);
      EXPECT_TRUE(traces[j].trials == alone[j].trials);
    }
  }
}

}  // namespace
}  // namespace glimpse
