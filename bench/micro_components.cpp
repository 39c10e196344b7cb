// Component micro-benchmarks (google-benchmark).
//
// Substantiates the paper's §3.3 complexity claim: Glimpse's threshold-based
// validity predictors are O(1) per configuration versus Chameleon's
// O(n*k*iters) clustering-based sampling — plus throughput numbers for the
// simulator, featurizers, cost models and annealing that set the bench
// suite's wall-clock budget, and for the cache tier's write path (number
// text and one tier line per insert).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <streambuf>
#include <utility>

#include "baselines/autotvm.hpp"
#include "common/json_writer.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "gpusim/perf_model.hpp"
#include "hwspec/database.hpp"
#include "ml/kmeans.hpp"
#include "searchspace/models.hpp"
#include "tuning/dataset.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/sa.hpp"

namespace {

using namespace glimpse;

// ---- shared fixtures (built once; small training sizes for fast startup) ----

const searchspace::Task& conv_task() {
  static const searchspace::Task task = [] {
    searchspace::ConvShape s;
    s.c = 512; s.h = 7; s.w = 7; s.k = 512; s.kh = 3; s.kw = 3; s.stride = 1; s.pad = 1;
    return searchspace::Task("bench.conv", searchspace::TemplateKind::kConv2d, s);
  }();
  return task;
}

const hwspec::GpuSpec& gpu() { return *hwspec::find_gpu("RTX 2080 Ti"); }

struct MicroSetup {
  std::vector<const searchspace::Task*> tasks{&conv_task()};
  std::vector<const hwspec::GpuSpec*> train_gpus =
      hwspec::training_gpus({"RTX 2080 Ti"});
  tuning::OfflineDataset dataset;
  core::GlimpseArtifacts artifacts;

  MicroSetup() {
    Rng rng(1);
    dataset = tuning::OfflineDataset::generate(tasks, train_gpus, 100, rng);
    core::PriorTrainOptions po;
    po.epochs = 6;
    core::MetaTrainOptions mo;
    mo.max_groups = 8;
    mo.epochs = 6;
    artifacts = core::pretrain_glimpse(dataset, train_gpus,
                                       core::default_blueprint_dim(), rng, po, mo);
  }
};

MicroSetup& setup() {
  static MicroSetup s;
  return s;
}

std::vector<searchspace::Config> random_configs(std::size_t n,
                                                const searchspace::Task& task = conv_task()) {
  Rng rng(2);
  std::vector<searchspace::Config> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(task.space().random_config(rng));
  return out;
}

// ---- simulator ----

void BM_SimulatorEstimate(benchmark::State& state) {
  auto configs = random_configs(256);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gpusim::estimate(conv_task(), configs[i++ % 256], gpu()));
  }
}
BENCHMARK(BM_SimulatorEstimate);

void BM_ConfigFeaturize(benchmark::State& state) {
  auto configs = random_configs(256);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(searchspace::config_features(conv_task(), configs[i++ % 256]));
  }
}
BENCHMARK(BM_ConfigFeaturize);

void BM_BlueprintEncode(benchmark::State& state) {
  const auto& encoder = *setup().artifacts.encoder;  // setup cost untimed
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(gpu()));
  }
}
BENCHMARK(BM_BlueprintEncode);

// ---- §3.3 headline: O(1) threshold voting vs O(n*k*I) clustering ----

void BM_GlimpseValiditySampling(benchmark::State& state) {
  // Per-candidate cost of Hardware-Aware Sampling at batch size n: n O(1)
  // accept tests against precomputed thresholds.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto configs = random_configs(n);
  auto thresholds =
      setup().artifacts.validity->thresholds_for(setup().artifacts.encoder->encode(gpu()));
  for (auto _ : state) {
    int accepted = 0;
    for (const auto& c : configs)
      accepted += setup().artifacts.validity->accept(conv_task(), c, thresholds);
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_GlimpseValiditySampling)->Arg(32)->Arg(96)->Arg(288);

void BM_ChameleonClusteringSampling(benchmark::State& state) {
  // Chameleon's adaptive sampling: k-means over the candidate pool's
  // feature rows (k = 8 measurement slots).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto configs = random_configs(n);
  std::vector<linalg::Vector> rows;
  rows.reserve(n);
  for (const auto& c : configs)
    rows.push_back(searchspace::config_features(conv_task(), c));
  linalg::Matrix x = linalg::Matrix::from_rows(rows);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(x, 8, rng));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_ChameleonClusteringSampling)->Arg(32)->Arg(96)->Arg(288);

// ---- cost models ----

const searchspace::Task& dense_task() {
  static const searchspace::Task task("bench.dense", searchspace::DenseShape{1, 512, 1000});
  return task;
}

/// `n` random configs of `task` (conv2d by default) as GBT training data:
/// their config features (31 wide for conv2d, 23 for dense) against
/// simulated GFLOPS.
std::pair<linalg::Matrix, linalg::Vector> gbt_training_data(
    std::size_t n, const searchspace::Task& task = conv_task()) {
  std::vector<linalg::Vector> rows;
  linalg::Vector y;
  for (const auto& c : random_configs(n, task)) {
    rows.push_back(searchspace::config_features(task, c));
    auto e = gpusim::estimate(task, c, gpu());
    y.push_back(e.valid ? e.gflops : 0.0);
  }
  return {linalg::Matrix::from_rows(rows), y};
}

void BM_GbtCostModelPredict(benchmark::State& state) {
  Rng rng(4);
  auto [x, y] = gbt_training_data(256);
  ml::GbtRegressor gbt;
  gbt.fit(x, y, rng);
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(gbt.predict(x.row(i++ % 256)));
}
BENCHMARK(BM_GbtCostModelPredict);

void BM_GbtFit(benchmark::State& state) {
  // One AutoTVM/Chameleon refit on `rows` measured configs, as the tuners
  // fit them (12-80 rows, 52 on average): conv2d configs featurize to 31
  // columns, dense ones to 23.
  const auto rows = static_cast<std::size_t>(state.range(0));
  const bool dense = state.range(1) == 23;
  auto [x, y] = gbt_training_data(rows, dense ? dense_task() : conv_task());
  if (x.cols() != static_cast<std::size_t>(state.range(1))) {
    state.SkipWithError("feature width differs from the benchmark's argument");
    return;
  }
  Rng rng(4);
  for (auto _ : state) {
    ml::GbtRegressor gbt;
    gbt.fit(x, y, rng);
    benchmark::DoNotOptimize(gbt.num_trees());
  }
}
BENCHMARK(BM_GbtFit)->Args({16, 31})->Args({52, 31})->Args({80, 31})->Args({52, 23});

void BM_GbtPredictBatch(benchmark::State& state) {
  // One SA lockstep step: 48 chains' candidates scored in one call.
  // Batches cycle through 256 configs so the branch predictor cannot learn
  // one batch's paths.
  auto [x, y] = gbt_training_data(256);
  Rng rng(4);
  ml::GbtRegressor gbt;
  gbt.fit(x, y, rng);
  std::vector<linalg::Matrix> batches;
  for (std::size_t b = 0; b < 16; ++b) {
    linalg::Matrix batch(48, x.cols());
    for (std::size_t r = 0; r < 48; ++r) {
      auto src = x.row((b * 48 + r) % 256);
      std::copy(src.begin(), src.end(), batch.row(r).begin());
    }
    batches.push_back(std::move(batch));
  }
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(gbt.predict(batches[i++ % 16]));
  state.SetItemsProcessed(state.iterations() * 48);
}
BENCHMARK(BM_GbtPredictBatch);

/// 128 featurized conv configs and their simulated throughput (TFLOP/s,
/// 0 when invalid): the training and query set of the surrogate benches.
struct SurrogateData {
  linalg::Matrix x;
  linalg::Vector y;
};

const SurrogateData& surrogate_data() {
  static const SurrogateData data = [] {
    std::vector<linalg::Vector> rows;
    SurrogateData d;
    for (const auto& c : random_configs(128)) {
      rows.push_back(searchspace::config_features(conv_task(), c));
      auto e = gpusim::estimate(conv_task(), c, gpu());
      d.y.push_back(e.valid ? e.gflops / 1000.0 : 0.0);
    }
    d.x = linalg::Matrix::from_rows(rows);
    return d;
  }();
  return data;
}

void BM_NeuralSurrogatePredict(benchmark::State& state) {
  Rng rng(5);
  const SurrogateData& d = surrogate_data();
  core::NeuralSurrogate surrogate(d.x.cols(), rng);
  surrogate.fit(d.x, d.y, rng);
  std::size_t i = 0;
  for (auto _ : state) benchmark::DoNotOptimize(surrogate.predict(d.x.row(i++ % 128)));
}
BENCHMARK(BM_NeuralSurrogatePredict);

// The path the Glimpse tuner scores candidates through: one packed forward
// pass per ensemble member over all 128 rows.
void BM_NeuralSurrogatePredictBatch(benchmark::State& state) {
  Rng rng(5);
  const SurrogateData& d = surrogate_data();
  core::NeuralSurrogate surrogate(d.x.cols(), rng);
  surrogate.fit(d.x, d.y, rng);
  for (auto _ : state) benchmark::DoNotOptimize(surrogate.predict_batch(d.x));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d.x.rows()));
}
BENCHMARK(BM_NeuralSurrogatePredictBatch);

void BM_NeuralSurrogateFit(benchmark::State& state) {
  Rng rng(5);
  const SurrogateData& d = surrogate_data();
  core::NeuralSurrogate surrogate(d.x.cols(), rng, {.ensemble = 3});
  // Each fit warm-starts from the last one and costs the same: every member
  // runs its epochs over all 128 rows.
  for (auto _ : state) {
    surrogate.fit(d.x, d.y, rng);
    benchmark::DoNotOptimize(surrogate.fitted());
  }
}
BENCHMARK(BM_NeuralSurrogateFit);

// ---- search machinery ----

void BM_SimulatedAnnealingRound(benchmark::State& state) {
  // One AutoTVM-style planning round: SA over a trivial score.
  Rng rng(6);
  tuning::BatchScoreFn score = [](const std::vector<searchspace::Config>& cs,
                                  std::span<const std::uint64_t>) {
    std::vector<double> out;
    out.reserve(cs.size());
    for (const auto& c : cs) out.push_back(static_cast<double>(c[0] % 7));
    return out;
  };
  tuning::SaOptions opts;
  opts.num_chains = 48;
  opts.num_steps = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tuning::simulated_annealing(conv_task().space(), score, 48, rng, opts));
  }
}
BENCHMARK(BM_SimulatedAnnealingRound);

void BM_PriorGenerate(benchmark::State& state) {
  // One-off prior generation per layer (paper: "negligible").
  auto bp = setup().artifacts.encoder->encode(gpu());
  const auto& prior = *setup().artifacts.prior;
  for (auto _ : state) {
    benchmark::DoNotOptimize(prior.generate(conv_task(), bp));
  }
}
BENCHMARK(BM_PriorGenerate);

void BM_PriorTopConfigs(benchmark::State& state) {
  auto bp = setup().artifacts.encoder->encode(gpu());
  auto prior = setup().artifacts.prior->generate(conv_task(), bp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prior.top_configs(32));
  }
}
BENCHMARK(BM_PriorTopConfigs);

void BM_MetaOptimizerScore(benchmark::State& state) {
  auto bp = setup().artifacts.encoder->encode(gpu());
  auto configs = random_configs(64);
  std::vector<linalg::Vector> derived;
  for (const auto& c : configs)
    derived.push_back(searchspace::derived_config_features(conv_task(), c));
  core::MetaFeatures f{.surrogate_mean = 0.5, .surrogate_std = 0.1, .prior_z = 0.0,
                       .progress = 0.5};
  const auto& meta = *setup().artifacts.meta;
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(meta.score(f, bp, derived[i++ % 64]));
}
BENCHMARK(BM_MetaOptimizerScore);

void BM_MetaOptimizerScoreBatch(benchmark::State& state) {
  auto bp = setup().artifacts.encoder->encode(gpu());
  auto configs = random_configs(64);
  core::MetaFeatures f{.surrogate_mean = 0.5, .surrogate_std = 0.1, .prior_z = 0.0,
                       .progress = 0.5};
  const auto& meta = *setup().artifacts.meta;
  linalg::Matrix rows(configs.size(), meta.input_dim());
  for (std::size_t i = 0; i < configs.size(); ++i)
    meta.write_row(f, bp, searchspace::derived_config_features(conv_task(), configs[i]),
                   rows.row(i));
  for (auto _ : state) benchmark::DoNotOptimize(meta.score_batch(rows));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(rows.rows()));
}
BENCHMARK(BM_MetaOptimizerScoreBatch);

// ---- cache tier write path ----

/// Full-precision doubles shaped like a tier line's latency_s, gflops and
/// cost_s: 16-17 significant digits, so the writer cannot stop early.
std::vector<double> full_precision_values(std::size_t n) {
  Rng rng(3);
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.uniform(1e-4, 1e4));
  return out;
}

/// Overwrites one small buffer, so the writer's formatting is all that is
/// timed and the output never grows.
struct ScratchBuf : std::streambuf {
  char bytes[64] = {};
  int overflow(int c) override {
    bytes[0] = static_cast<char>(c);
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::memcpy(bytes, s, std::min(static_cast<std::size_t>(n), sizeof(bytes)));
    return n;
  }
};

void BM_JsonWriterDouble(benchmark::State& state) {
  const auto values = full_precision_values(1024);
  ScratchBuf buf;
  std::ostream os(&buf);
  JsonWriter w(os, /*indent=*/0);
  w.begin_array();
  std::size_t i = 0;
  for (auto _ : state) {
    w.value(values[i++ % values.size()]);
    benchmark::DoNotOptimize(buf.bytes);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsonWriterDouble);

void BM_ResultCacheInsert(benchmark::State& state) {
  const auto values = full_precision_values(3 * 1024);
  const auto path = std::filesystem::temp_directory_path() / "micro_components_tier.jsonl";
  std::filesystem::remove(path);
  {
    tuning::ResultCacheOptions opts;
    opts.path = path.string();
    tuning::ResultCache cache(opts);
    tuning::CacheKey key;
    key.task_fp = 0x1111;
    key.hw_fp = 0x2222;
    key.config = {0, 1, 2, 3, 0, 1, 2, 3};
    gpusim::MeasureResult r;
    r.valid = true;
    std::uint32_t next = 0;
    for (auto _ : state) {
      const std::size_t j = 3 * (next % 1024);
      key.config[0] = next++;  // every insert a fresh key, so every one appends a line
      r.latency_s = values[j];
      r.gflops = values[j + 1];
      r.cost_s = values[j + 2];
      cache.insert(key, r);
    }
    state.SetItemsProcessed(state.iterations());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_ResultCacheInsert);

}  // namespace

BENCHMARK_MAIN();
