#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <set>

#include "baselines/random_tuner.hpp"
#include "common/rng.hpp"
#include "identity.hpp"
#include "test_util.hpp"
#include "tuning/dataset.hpp"
#include "tuning/key_index.hpp"
#include "tuning/metrics.hpp"
#include "tuning/sa.hpp"
#include "tuning/session.hpp"

namespace glimpse::tuning {
namespace {

using glimpse::testing::score_each;
using glimpse::testing::session_options;
using glimpse::testing::small_conv_task;
using glimpse::testing::small_dense_task;
using glimpse::testing::small_winograd_task;
using glimpse::testing::titan_xp;

// ---------- session ----------

TEST(SessionTest, RespectsTrialBudget) {
  baselines::RandomTuner tuner(small_dense_task(), titan_xp(), 1);
  gpusim::SimMeasurer measurer;
  Trace trace = run_session(tuner, small_dense_task(), titan_xp(), measurer,
                            session_options(40));
  EXPECT_LE(trace.trials.size(), 40u);
  EXPECT_GE(trace.trials.size(), 32u);  // full batches until the cap
}

TEST(SessionTest, RespectsTimeBudget) {
  baselines::RandomTuner tuner(small_dense_task(), titan_xp(), 2);
  gpusim::SimMeasurer measurer;
  SessionOptions opts = session_options(100000);
  opts.time_budget_s = 30.0;
  Trace trace = run_session(tuner, small_dense_task(), titan_xp(), measurer, opts);
  // ~2s per measurement: a 30s budget allows only a few batches.
  EXPECT_LT(trace.trials.size(), 40u);
  EXPECT_GT(trace.trials.size(), 0u);
}

TEST(SessionTest, StepsAndElapsedAreMonotone) {
  baselines::RandomTuner tuner(small_dense_task(), titan_xp(), 4);
  gpusim::SimMeasurer measurer;
  Trace trace = run_session(tuner, small_dense_task(), titan_xp(), measurer,
                            session_options(30, 5));
  for (std::size_t i = 1; i < trace.trials.size(); ++i) {
    EXPECT_EQ(trace.trials[i].step, trace.trials[i - 1].step + 1);
    EXPECT_GE(trace.trials[i].elapsed_s, trace.trials[i - 1].elapsed_s);
  }
}

TEST(SessionTest, PlateauStopEndsStagnantSearch) {
  // Random search on a small dense space stagnates quickly; with a plateau
  // window it must stop well before the trial cap.
  baselines::RandomTuner tuner(small_dense_task(), titan_xp(), 99);
  gpusim::SimMeasurer measurer;
  SessionOptions opts = session_options(4000);
  opts.plateau_trials = 48;
  Trace trace = run_session(tuner, small_dense_task(), titan_xp(), measurer, opts);
  EXPECT_LT(trace.trials.size(), 4000u);
  EXPECT_GE(trace.trials.size(), 48u);
}

TEST(TraceTest, BestGflopsPrefixConsistency) {
  baselines::RandomTuner tuner(small_conv_task(), titan_xp(), 6);
  gpusim::SimMeasurer measurer;
  Trace trace = run_session(tuner, small_conv_task(), titan_xp(), measurer,
                            session_options(50, 10));
  EXPECT_LE(trace.best_gflops(10), trace.best_gflops(50));
  EXPECT_DOUBLE_EQ(trace.best_gflops(0), 0.0);
}

TEST(TraceTest, BestLatencyConsistentWithBestGflops) {
  baselines::RandomTuner tuner(small_conv_task(), titan_xp(), 7);
  gpusim::SimMeasurer measurer;
  Trace trace = run_session(tuner, small_conv_task(), titan_xp(), measurer,
                            session_options(50, 10));
  if (trace.best_gflops() > 0.0) {
    double lat = trace.best_latency();
    EXPECT_NEAR(small_conv_task().flops() / lat / 1e9, trace.best_gflops(), 1e-6);
  }
}

// ---------- metrics ----------

TEST(MetricsTest, StepsToReachFindsFirstCrossing) {
  Trace trace;
  for (int i = 0; i < 5; ++i) {
    TrialRecord r;
    r.result.valid = true;
    r.result.gflops = 100.0 * (i + 1);
    r.elapsed_s = i + 1.0;
    trace.trials.push_back(r);
  }
  EXPECT_EQ(steps_to_reach(trace, 250.0).value(), 3u);
  EXPECT_EQ(steps_to_reach(trace, 100.0).value(), 1u);
  EXPECT_FALSE(steps_to_reach(trace, 1000.0).has_value());
}

TEST(MetricsTest, HyperVolumeMatchesPaperFormula) {
  // Eq. (2): HV = SearchRedu x InferRedu x 100 (both as fractions).
  double hv = hyper_volume(100.0, 10.0, 20.0, 9.0);
  // search reduction 0.8, inference reduction 0.1 -> HV = 8.0
  EXPECT_NEAR(hv, 8.0, 1e-12);
  EXPECT_NEAR(search_reduction_pct(100.0, 20.0), 80.0, 1e-12);
  EXPECT_NEAR(inference_reduction_pct(10.0, 9.0), 10.0, 1e-12);
}

// ---------- simulated annealing ----------

TEST(SaTest, FindsHighScoreRegions) {
  const auto& task = small_conv_task();
  Rng rng(9);
  // Score strongly favors a band of knob-0 options (~1/10 of them), wide
  // enough that the chains reliably propose into it at this budget.
  BatchScoreFn score = score_each([&](const searchspace::Config& c) {
    return c[0] % 10 == 7 ? 10.0 : static_cast<double>(c[0] % 3);
  });
  SaResult r = simulated_annealing(task.space(), score, 16, rng,
                                   {.num_chains = 16, .num_steps = 60});
  ASSERT_FALSE(r.configs.empty());
  EXPECT_EQ(r.configs[0][0] % 10, 7u);
  EXPECT_DOUBLE_EQ(r.scores[0], 10.0);
}

TEST(SaTest, ScoresSortedDescendingAndDistinct) {
  const auto& task = small_dense_task();
  Rng rng(10);
  BatchScoreFn score = score_each([&](const searchspace::Config& c) {
    return static_cast<double>(c[0]) + 0.1 * c[1];
  });
  SaResult r = simulated_annealing(task.space(), score, 20, rng);
  for (std::size_t i = 1; i < r.scores.size(); ++i)
    EXPECT_GE(r.scores[i - 1], r.scores[i]);
  std::set<searchspace::Config> uniq(r.configs.begin(), r.configs.end());
  EXPECT_EQ(uniq.size(), r.configs.size());
}

TEST(SaTest, EvaluationCountAccounted) {
  const auto& task = small_dense_task();
  Rng rng(11);
  BatchScoreFn score = score_each([](const searchspace::Config&) { return 0.0; });
  SaOptions opts{.num_chains = 8, .num_steps = 10};
  SaResult r = simulated_annealing(task.space(), score, 4, rng, opts);
  EXPECT_EQ(r.evaluations, 8 + 8 * 10);  // initial + per-step
}

TEST(SaTest, SeedsChainsFromInit) {
  const auto& task = small_dense_task();
  Rng rng(12);
  searchspace::Config special = task.space().random_config(rng);
  BatchScoreFn score = score_each([&](const searchspace::Config& c) {
    return c == special ? 100.0 : -1.0;
  });
  // With zero steps, only init/initial points are offered.
  SaResult r = simulated_annealing(task.space(), score, 4, rng,
                                   {.num_chains = 4, .num_steps = 1}, {special});
  EXPECT_EQ(r.configs[0], special);
}

// ---------- records ----------

TEST(SaTest, LargerTopKIsSupersetInScore) {
  // Property: the best score found must not decrease when asking for more
  // candidates (same seed => same trajectory, larger pool retained).
  const auto& task = small_dense_task();
  BatchScoreFn score = score_each([&](const searchspace::Config& c) {
    return static_cast<double>((c[0] * 31 + c[2] * 7) % 97);
  });
  SaOptions opts{.num_chains = 8, .num_steps = 30};
  Rng rng_a(42), rng_b(42);
  SaResult small = simulated_annealing(task.space(), score, 4, rng_a, opts);
  SaResult large = simulated_annealing(task.space(), score, 32, rng_b, opts);
  EXPECT_DOUBLE_EQ(small.scores[0], large.scores[0]);
  EXPECT_GE(large.configs.size(), small.configs.size());
}

TEST(KeyIndexTest, DenseIdsInInsertionOrderAcrossRehash) {
  KeyIndex index;  // starts at 16 slots, so this rehashes several times
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 5000; ++i) keys.push_back(i * 0x10001ULL + (i % 7));
  keys.push_back(0);  // a legitimate flat index
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto [id, inserted] = index.insert(keys[i]);
    if (keys[i] == 0 && i > 0) {  // 0 was the first key too
      EXPECT_FALSE(inserted);
      EXPECT_EQ(id, 0u);
      continue;
    }
    EXPECT_TRUE(inserted);
    EXPECT_EQ(id, i);
  }
  EXPECT_EQ(index.size(), 5000u);
  for (std::size_t i = 0; i < 5000; ++i) EXPECT_EQ(index.find(keys[i]), i);
  EXPECT_EQ(index.find(3), KeyIndex::npos);
  EXPECT_EQ(index.insert(keys[4321]), std::make_pair(std::size_t{4321}, false));
}

// Reference annealer: simulated annealing keyed on Config vectors, with its
// own copy of the single-knob neighbor draw and a BestPool built on
// std::multimap (equal scores keep insertion order). The flat-key annealer
// must reproduce it exactly: configs, scores, order and evaluation count.
namespace oracle {

struct BestPool {
  std::size_t top_k;
  std::set<searchspace::Config> seen;
  std::multimap<double, searchspace::Config> best;  // ascending by score

  void offer(double s, const searchspace::Config& c) {
    if (!seen.insert(c).second) return;
    if (best.size() < top_k) {
      best.emplace(s, c);
    } else if (!best.empty() && s > best.begin()->first) {
      best.erase(best.begin());
      best.emplace(s, c);
    }
  }
};

searchspace::Config neighbor(const searchspace::ConfigSpace& space,
                             const searchspace::Config& c, Rng& rng) {
  searchspace::Config out = c;
  for (int attempt = 0; attempt < 16; ++attempt) {
    std::size_t k = rng.index(space.num_knobs());
    std::size_t n = space.knob(k).num_options();
    if (n <= 1) continue;
    std::uint32_t nv = static_cast<std::uint32_t>(rng.index(n - 1));
    if (nv >= c[k]) ++nv;
    out[k] = nv;
    return out;
  }
  return out;
}

SaResult simulated_annealing(const searchspace::ConfigSpace& space,
                             const std::function<double(const searchspace::Config&)>& score,
                             std::size_t top_k, Rng& rng, SaOptions options,
                             std::vector<searchspace::Config> init) {
  const std::size_t num_chains = static_cast<std::size_t>(options.num_chains);
  std::vector<searchspace::Config> points;
  for (auto& c : init)
    if (points.size() < num_chains) points.push_back(std::move(c));
  while (points.size() < num_chains) points.push_back(space.random_config(rng));
  const std::uint64_t base_seed = rng.engine()();
  std::vector<Rng> chain_rngs;
  std::vector<BestPool> pools(num_chains, BestPool{top_k, {}, {}});
  for (std::size_t chain = 0; chain < num_chains; ++chain)
    chain_rngs.push_back(Rng::fork(base_seed, chain));

  long long evaluations = 0;
  std::vector<double> point_scores;
  for (const auto& p : points) point_scores.push_back(score(p));
  evaluations += static_cast<long long>(num_chains);
  for (std::size_t chain = 0; chain < num_chains; ++chain)
    pools[chain].offer(point_scores[chain], points[chain]);
  for (int step = 0; step < options.num_steps; ++step) {
    double frac = static_cast<double>(step) / std::max(1, options.num_steps - 1);
    double temp = 1.0 + (0.02 - 1.0) * frac;
    std::vector<searchspace::Config> cands(num_chains);
    for (std::size_t chain = 0; chain < num_chains; ++chain)
      cands[chain] = neighbor(space, points[chain], chain_rngs[chain]);
    evaluations += static_cast<long long>(num_chains);
    for (std::size_t chain = 0; chain < num_chains; ++chain) {
      double s = score(cands[chain]);
      pools[chain].offer(s, cands[chain]);
      double delta = s - point_scores[chain];
      if (delta >= 0.0 ||
          chain_rngs[chain].chance(std::exp(delta / std::max(1e-9, temp)))) {
        points[chain] = cands[chain];
        point_scores[chain] = s;
      }
    }
  }
  BestPool merged{top_k, {}, {}};
  for (const auto& pool : pools)
    for (auto it = pool.best.rbegin(); it != pool.best.rend(); ++it)
      merged.offer(it->first, it->second);
  SaResult result;
  result.evaluations = evaluations;
  for (auto it = merged.best.rbegin(); it != merged.best.rend(); ++it) {
    result.configs.push_back(it->second);
    result.scores.push_back(it->first);
  }
  return result;
}

}  // namespace oracle

TEST(SaTest, FlatKeyAnnealingMatchesVectorOracle) {
  using searchspace::Task;
  using searchspace::TemplateKind;
  // One task per template kind. Dense at batch 1 and the 1x1 conv carry
  // single-option split knobs; the last space has nothing but single-option
  // knobs, so every move gives up after 16 draws.
  const Task attention("oracle.attention", searchspace::AttentionShape{1, 4, 64, 32});
  const Task depthwise("oracle.depthwise",
                       searchspace::DepthwiseShape{1, 32, 28, 28, 3, 3, 1, 1});
  const Task reduction("oracle.reduction", searchspace::ReductionShape{128, 1024});
  const Task conv1x1("oracle.conv1x1", TemplateKind::kConv2d,
                     searchspace::ConvShape{1, 64, 14, 14, 128, 1, 1, 1, 0});
  const searchspace::ConfigSpace degenerate(
      {searchspace::Knob::split("a", 1, 4), searchspace::Knob::categorical("b", {7})});
  std::vector<const searchspace::ConfigSpace*> spaces = {
      &small_conv_task().space(), &small_winograd_task().space(),
      &small_dense_task().space(), &attention.space(), &depthwise.space(),
      &reduction.space(),          &conv1x1.space(),  &degenerate};

  auto hash = [](const searchspace::Config& c) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (auto v : c) h = hash_combine(h, v);
    return h;
  };
  // Many exact ties (8 buckets), and a mostly-distinct smooth score.
  std::vector<std::function<double(const searchspace::Config&)>> scorers = {
      [&](const searchspace::Config& c) { return static_cast<double>(hash(c) % 8); },
      [&](const searchspace::Config& c) {
        double s = 0.0;
        for (std::size_t i = 0; i < c.size(); ++i) s += std::sin(1.0 + i + c[i]);
        return s;
      }};

  int runs = 0;
  for (const auto* space : spaces) {
    for (std::uint64_t seed : {3u, 17u, 401u}) {
      for (std::size_t top_k : {1u, 16u, 96u}) {
        for (const auto& per_config : scorers) {
          SaOptions opts{.num_chains = 12, .num_steps = 40};
          if (seed == 401u) opts = {};  // the tuners' default budget
          Rng init_rng(seed + 1);
          std::vector<searchspace::Config> init = {space->random_config(init_rng),
                                                   space->random_config(init_rng)};
          init.push_back(init[0]);  // a duplicate seed chain
          Rng rng_a(seed), rng_b(seed);
          SaResult want = oracle::simulated_annealing(*space, per_config, top_k, rng_a,
                                                      opts, init);
          // The batch scorer also checks every key it is handed.
          BatchScoreFn batch = [&](const std::vector<searchspace::Config>& cs,
                                   std::span<const std::uint64_t> keys) {
            std::vector<double> out;
            for (std::size_t i = 0; i < cs.size(); ++i) {
              EXPECT_EQ(keys[i], space->to_flat_index(cs[i]));
              out.push_back(per_config(cs[i]));
            }
            return out;
          };
          SaResult got = simulated_annealing(*space, batch, top_k, rng_b, opts, init);
          ASSERT_EQ(got.configs, want.configs)
              << "space " << runs / 18 << " seed " << seed << " top_k " << top_k;
          ASSERT_EQ(got.scores, want.scores);
          ASSERT_EQ(got.evaluations, want.evaluations);
          // Both consumed the caller's stream identically.
          ASSERT_EQ(rng_a.engine()(), rng_b.engine()());
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(runs, static_cast<int>(spaces.size()) * 18);
}

TEST(SessionTest, IsDeterministicForFixedSeeds) {
  testing::IdentityChecker({testing::task_run("random", small_conv_task(), titan_xp(), 77, 40)})
      .expect({});
}

// ---------- offline dataset ----------

TEST(DatasetTest, GeneratesRequestedCounts) {
  Rng rng(14);
  std::vector<const searchspace::Task*> tasks = {&small_dense_task()};
  std::vector<const hwspec::GpuSpec*> gpus = {&titan_xp()};
  auto ds = OfflineDataset::generate(tasks, gpus, 50, rng);
  EXPECT_EQ(ds.size(), 50u);
  ASSERT_EQ(ds.groups().size(), 1u);
  EXPECT_EQ(ds.groups()[0].sample_indices.size(), 50u);
}

TEST(DatasetTest, ScoresNormalizedToGroupBest) {
  const auto& ds = glimpse::testing::tiny_dataset();
  for (const auto& g : ds.groups()) {
    double max_score = 0.0;
    for (std::size_t idx : g.sample_indices) {
      const auto& s = ds.samples()[idx];
      EXPECT_GE(s.score, 0.0);
      EXPECT_LE(s.score, 1.0 + 1e-12);
      if (!s.valid) {
        EXPECT_DOUBLE_EQ(s.score, 0.0);
      }
      max_score = std::max(max_score, s.score);
    }
    if (g.best_gflops > 0.0) {
      EXPECT_NEAR(max_score, 1.0, 1e-12);
    }
  }
}

TEST(DatasetTest, InvalidFractionNonTrivial) {
  const auto& ds = glimpse::testing::tiny_dataset();
  EXPECT_GT(ds.invalid_fraction(), 0.1);
  EXPECT_LT(ds.invalid_fraction(), 0.95);
}

}  // namespace
}  // namespace glimpse::tuning
