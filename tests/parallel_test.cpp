#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "baselines/autotvm.hpp"
#include "baselines/chameleon.hpp"
#include "baselines/dgp.hpp"
#include "baselines/random_tuner.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "glimpse/surrogate.hpp"
#include "gp/gp_regression.hpp"
#include "gp/kernel.hpp"
#include "gpusim/measurer.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
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
  parallel_for(0, hits.size(), 16,
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, EmptyRangeRunsNothing) {
  PoolGuard guard;
  set_num_threads(4);
  int calls = 0;
  parallel_for(5, 5, 1, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, 1, [&](std::size_t) { ++calls; });  // inverted == empty
  EXPECT_EQ(calls, 0);
}

TEST(ParallelTest, GrainLargerThanRangeRunsSerially) {
  PoolGuard guard;
  set_num_threads(8);
  std::vector<std::size_t> chunk_ids;
  parallel_for_chunks(0, 10, 1000,
                      [&](std::size_t b, std::size_t e, std::size_t c) {
                        EXPECT_EQ(b, 0u);
                        EXPECT_EQ(e, 10u);
                        chunk_ids.push_back(c);  // single chunk: no race
                      });
  ASSERT_EQ(chunk_ids.size(), 1u);
  EXPECT_EQ(chunk_ids[0], 0u);
}

TEST(ParallelTest, ZeroGrainTreatedAsOne) {
  PoolGuard guard;
  set_num_threads(2);
  std::vector<std::atomic<int>> hits(10);
  parallel_for(0, hits.size(), 0, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, ChunkStructureIndependentOfThreadCount) {
  PoolGuard guard;
  auto chunks_at = [&](std::size_t n_threads) {
    set_num_threads(n_threads);
    std::mutex mu;
    std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> chunks;
    parallel_for_chunks(3, 103, 7,
                        [&](std::size_t b, std::size_t e, std::size_t c) {
                          std::lock_guard<std::mutex> lock(mu);
                          chunks.emplace_back(b, e, c);
                        });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  EXPECT_EQ(chunks_at(1), chunks_at(8));
}

TEST(ParallelTest, ExceptionPropagatesLowestChunk) {
  PoolGuard guard;
  set_num_threads(8);
  try {
    parallel_for(0, 1000, 1, [&](std::size_t i) {
      if (i >= 100) throw std::runtime_error("chunk " + std::to_string(i));
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    // The lowest-index thrower must win, as in a serial left-to-right run.
    EXPECT_STREQ(e.what(), "chunk 100");
  }
}

TEST(ParallelTest, ExceptionInSerialFallbackPropagates) {
  PoolGuard guard;
  set_num_threads(1);
  EXPECT_THROW(
      parallel_for(0, 10, 1, [&](std::size_t) { throw std::logic_error("boom"); }),
      std::logic_error);
}

TEST(ParallelTest, NestedCallsRunSeriallyWithoutDeadlock) {
  PoolGuard guard;
  set_num_threads(4);
  std::vector<std::atomic<int>> hits(64);
  parallel_for(0, 8, 1, [&](std::size_t outer) {
    // A nested loop from a pool thread must complete serially in-place.
    EXPECT_TRUE(in_parallel_region());
    parallel_for(0, 8, 1,
                 [&](std::size_t inner) { hits[outer * 8 + inner].fetch_add(1); });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, SingleChunkRunsInlineOnCallerThread) {
  PoolGuard guard;
  set_num_threads(8);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  // One chunk: must not touch the queue at all, just run here.
  parallel_for_chunks(0, 10, 1000,
                      [&](std::size_t, std::size_t, std::size_t) {
                        seen = std::this_thread::get_id();
                      });
  EXPECT_EQ(seen, caller);
}

TEST(ParallelTest, WidthOnePoolRunsInlineOnCallerThread) {
  PoolGuard guard;
  set_num_threads(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(9);
  // Many chunks but a 1-wide pool: the inline fast path keeps every chunk on
  // the caller with zero queue/notify traffic.
  parallel_for_chunks(0, 27, 3,
                      [&](std::size_t, std::size_t, std::size_t chunk) {
                        seen[chunk] = std::this_thread::get_id();
                      });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelTest, MapPreservesOrder) {
  PoolGuard guard;
  set_num_threads(4);
  auto out = parallel_map(100, 3, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
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
  tuning::ScoreFn score = [](const searchspace::Config& c) {
    return static_cast<double>((c[0] * 31 + c[1] * 7) % 53);
  };
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

// ---------- grain model ----------

TEST(RowGrainTest, FatRowsFanOutAndTinyRangesCollapse) {
  PoolGuard guard;
  auto chunks_of = [](std::size_t grain, std::size_t rows) {
    return (rows + grain - 1) / grain;
  };
  // 32 fat rows (8K flops each): pure cost-based sizing would collapse this
  // to a couple of chunks and idle most of a pool; the fan-out cap must
  // yield at least min(rows, 16) chunks.
  std::size_t g = linalg::detail::row_grain(1 << 13, 32);
  EXPECT_GE(chunks_of(g, 32), std::min<std::size_t>(32, 16));
  // A range too small to fill two cost-sized chunks stays one chunk (the
  // inline fast path): no fan-out for trivial work.
  EXPECT_GE(linalg::detail::row_grain(4, 100), 100u);
  // The grain is pure in its arguments: thread count must not leak in,
  // or chunk-ordered reductions would change with GLIMPSE_NUM_THREADS.
  set_num_threads(1);
  std::size_t g1 = linalg::detail::row_grain(1 << 13, 32);
  set_num_threads(8);
  std::size_t g8 = linalg::detail::row_grain(1 << 13, 32);
  EXPECT_EQ(g1, g);
  EXPECT_EQ(g8, g);
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
  auto batch = s.predict_batch(x);
  ASSERT_EQ(batch.size(), x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    auto one = s.predict(x.row(i));
    EXPECT_EQ(batch[i].mean, one.mean) << "row " << i;
    EXPECT_EQ(batch[i].std, one.std) << "row " << i;
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
