// Serial-vs-parallel throughput for every path wired through the thread
// pool (common/parallel.hpp): the scheduler's plan phase and the
// figure-harness grid fan-out (a scaled-down Fig. 6 sweep), plus the pool's
// own cost per dispatched index. Each path runs with the pool forced to one
// thread and again at the configured width (GLIMPSE_NUM_THREADS or
// hardware_concurrency); results go to stdout and BENCH_parallel.json.
// linalg runs serially, so it has no timing row.
//
// Gates: scheduler_plan >= 1.5x and fig6_grid >= 1.5x, applied only when
// the pool has >= 4 threads and the host at least as many cores.
// Determinism spot-checks ride along as never-skipped gates: SIMD vs scalar
// matmul bitwise, and the 1-thread vs N-thread SA walks, schedules and
// fig6-style traces.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "linalg/simd.hpp"
#include "tuning/dataset.hpp"
#include "tuning/scheduler.hpp"

namespace {

using namespace glimpse;

using bench::now_ms;

/// Min-of-5 wall time of fn, after two untimed warm-up runs. Warm-ups fault
/// in code, page tables and the pool's worker threads before anything is
/// timed; the minimum over repeats is the stablest estimator of intrinsic
/// cost under scheduler noise (noise only ever adds time), which is what a
/// regression gate needs to threshold against.
double time_ms(const std::function<void()>& fn) {
  for (int w = 0; w < 2; ++w) fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 5; ++r) {
    double t0 = now_ms();
    fn();
    best = std::min(best, now_ms() - t0);
  }
  return best;
}

// ---- fixtures (small offline pretrain, shared across paths) ----

struct Fixture {
  std::vector<searchspace::Task> tasks;
  std::vector<const hwspec::GpuSpec*> train_gpus;
  core::GlimpseArtifacts artifacts;

  Fixture() {
    tasks.push_back(bench::micro_conv_task("micro.conv"));
    searchspace::DenseShape dense;
    dense.batch = 1; dense.in_dim = 4096; dense.out_dim = 1000;
    tasks.emplace_back("micro.dense", dense);

    train_gpus = hwspec::training_gpus({"RTX 2080 Ti"});
    if (train_gpus.size() > 6) train_gpus.resize(6);

    Rng rng(7);
    std::vector<const searchspace::Task*> task_ptrs;
    for (const auto& t : tasks) task_ptrs.push_back(&t);
    auto dataset = tuning::OfflineDataset::generate(task_ptrs, train_gpus, 80, rng);
    core::PriorTrainOptions po;
    po.epochs = 6;
    core::MetaTrainOptions mo;
    mo.max_groups = 8;
    mo.epochs = 6;
    artifacts = core::pretrain_glimpse(dataset, train_gpus,
                                       core::default_blueprint_dim(), rng, po, mo);
  }
};

linalg::Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  return m;
}

}  // namespace

int main() {
  std::printf("=== micro_parallel: serial vs parallel throughput ===\n\n");
  bench::Report report("parallel");

  set_num_threads(0);
  const std::size_t n_par = num_threads();
  std::printf("pool width: %zu thread(s) (GLIMPSE_NUM_THREADS to override)\n\n",
              n_par);

  Fixture fx;
  report.param("threads_serial", std::uint64_t{1});
  // Speedup floors assume >= 4 pool threads on at least as many cores.
  const bench::GateNeeds wide{.pool_threads = 4, .hardware_concurrency = n_par};
  auto measure = [&](const std::string& name, const std::function<void()>& fn,
                     double floor = 0.0) {
    set_num_threads(1);
    const double serial_ms = time_ms(fn);
    set_num_threads(n_par);
    const double parallel_ms = time_ms(fn);
    const double speedup = serial_ms / std::max(1e-9, parallel_ms);
    report.row({{"name", name},
                {"serial_ms", serial_ms},
                {"parallel_ms", parallel_ms},
                {"speedup", speedup}});
    if (floor > 0.0)
      report.gate(name + ".speedup", speedup, bench::Report::Op::kGe, floor, wide);
    return parallel_ms;
  };

  // 0. Pool dispatch overhead: many near-empty indices. The parallel time
  //    divided by the index count is the cost of handing one index to the
  //    pool (atomic claim plus a share of the submit/notify). Ungated.
  {
    constexpr std::size_t kIndices = 4096;
    constexpr int kReps = 8;
    std::vector<std::uint64_t> sink(kIndices);
    const double parallel_ms = measure("pool_dispatch", [&] {
      for (int rep = 0; rep < kReps; ++rep)
        parallel_for(kIndices, [&](std::size_t i) { sink[i] = i ^ rep; });
    });
    std::printf("  -> dispatch cost ~%.2f us/index at width %zu\n",
                parallel_ms * 1e3 / (kIndices * kReps), n_par);
  }

  // 1. SIMD-path consistency check: the explicit kernels must match the
  //    scalar fallback bit for bit (same accumulator tree), or the runtime
  //    toggle would change results. Not timed: linalg runs serially.
  {
    Rng rng(11);
    linalg::Matrix a = random_matrix(224, 192, rng);
    linalg::Matrix b = random_matrix(192, 208, rng);
    const bool simd_default = linalg::simd_enabled();
    linalg::set_simd_enabled(true);
    linalg::Matrix c_simd = linalg::matmul(a, b);
    linalg::set_simd_enabled(false);
    linalg::Matrix c_scalar = linalg::matmul(a, b);
    linalg::set_simd_enabled(simd_default);
    report.check("linalg_matmul.simd_bit_identical",
                 std::memcmp(c_simd.data().data(), c_scalar.data().data(),
                             c_simd.data().size() * sizeof(double)) == 0);
  }

  // 2. Multi-chain simulated annealing (surrogate-priced energy), with a
  //    determinism check: the 1-thread and N-thread walks must be identical.
  //    Not timed: annealing runs on the calling thread, like the tuners'.
  {
    Rng rng(29);
    const auto& task = fx.tasks[0];
    std::vector<linalg::Vector> rows;
    linalg::Vector y;
    for (int i = 0; i < 64; ++i) {
      auto c = task.space().random_config(rng);
      rows.push_back(searchspace::config_features(task, c));
      y.push_back(rng.uniform());
    }
    Rng fit_rng(31);
    core::NeuralSurrogate s(rows[0].size(), fit_rng);
    s.fit(linalg::Matrix::from_rows(rows), y, fit_rng);
    // One packed predict per lockstep round — the batched call-site shape
    // the tuners use in production.
    tuning::BatchScoreFn score = [&](const std::vector<searchspace::Config>& cs,
                                     std::span<const std::uint64_t>) {
      std::vector<linalg::Vector> rows;
      for (const auto& c : cs) rows.push_back(searchspace::config_features(task, c));
      auto preds = s.predict_batch(linalg::Matrix::from_rows(rows));
      std::vector<double> out(preds.size());
      for (std::size_t i = 0; i < preds.size(); ++i) out[i] = preds[i].mean;
      return out;
    };
    tuning::SaOptions opts;
    opts.num_chains = 32;
    opts.num_steps = 64;
    auto run_sa = [&] {
      Rng sa_rng(37);
      return tuning::simulated_annealing(task.space(), score, 32, sa_rng, opts);
    };
    set_num_threads(1);
    auto serial = run_sa();
    set_num_threads(n_par);
    auto parallel = run_sa();
    report.check("sa_multi_chain.thread_identical",
                 serial.configs == parallel.configs && serial.scores == parallel.scores);
  }

  // 3. Scheduler plan phase: six Glimpse jobs (2 tasks x 3 GPUs) in one
  //    run_scheduled, proposing at once, with a cross-thread-count
  //    determinism check on the traces.
  {
    const std::vector<const hwspec::GpuSpec*> gpus = {
        hwspec::find_gpu("Titan Xp"), hwspec::find_gpu("RTX 2080 Ti"),
        hwspec::find_gpu("RTX 3090")};
    tuning::SessionOptions opts;
    opts.max_trials = 48;
    opts.batch_size = 8;
    auto run_plan = [&] {
      std::vector<std::unique_ptr<core::GlimpseTuner>> tuners;
      std::vector<std::unique_ptr<gpusim::SimMeasurer>> sims;
      std::vector<tuning::ScheduledJob> jobs;
      for (const auto* gpu : gpus)
        for (const auto& task : fx.tasks) {
          tuners.push_back(std::make_unique<core::GlimpseTuner>(
              task, *gpu, 100 + tuners.size(), fx.artifacts));
          sims.push_back(std::make_unique<gpusim::SimMeasurer>());
          jobs.push_back({tuners.back().get(), &task, gpu, sims.back().get(), opts});
        }
      return tuning::run_scheduled(jobs);
    };
    set_num_threads(1);
    const std::vector<tuning::Trace> serial = run_plan();
    set_num_threads(n_par);
    const std::vector<tuning::Trace> parallel = run_plan();
    bool identical = serial.size() == parallel.size();
    for (std::size_t j = 0; identical && j < serial.size(); ++j)
      identical = serial[j].trials == parallel[j].trials;
    report.check("scheduler_plan.thread_identical", identical);
    measure("scheduler_plan", [&] { run_plan(); }, 1.5);
  }

  // 4. Figure-harness grid fan-out: a scaled-down Fig. 6 search-steps sweep
  //    (3 methods x 2 tasks x 2 GPUs), with a cross-thread-count
  //    determinism check on the traces.
  {
    std::vector<bench::Method> methods = {
        {"AutoTVM", baselines::autotvm_factory()},
        {"Chameleon", baselines::chameleon_factory()},
        {"Glimpse", core::glimpse_factory(fx.artifacts)}};
    std::vector<const hwspec::GpuSpec*> gpus = {hwspec::find_gpu("Titan Xp"),
                                                hwspec::find_gpu("RTX 2080 Ti")};
    tuning::SessionOptions opts;
    opts.max_trials = 96;
    opts.batch_size = 8;
    std::vector<bench::Cell> cells;
    for (const auto* gpu : gpus)
      for (const auto& task : fx.tasks)
        for (const auto& m : methods) cells.push_back({&m, &task, gpu});
    auto best_vector = [&](const std::vector<tuning::Trace>& traces) {
      std::vector<double> best;
      for (const auto& t : traces) best.push_back(t.best_gflops());
      return best;
    };
    set_num_threads(1);
    auto serial_best = best_vector(bench::run_cells(cells, opts));
    set_num_threads(n_par);
    auto parallel_best = best_vector(bench::run_cells(cells, opts));
    report.check("fig6_grid.thread_identical", serial_best == parallel_best);
    measure("fig6_grid", [&] { bench::run_cells(cells, opts); }, 1.5);
  }

  set_num_threads(0);

  const int status = report.write();
  bench::finish();
  return status;
}
