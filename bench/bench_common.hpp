// Shared experiment harness for the figure/table reproduction benches.
//
// Every bench binary: builds the evaluation setup (3 models, 4 GPUs),
// pretrains the leave-eval-GPUs-out artifacts once, then runs the tuning
// sessions its figure needs and prints a paper-style table.
//
// Scaling note (documented in EXPERIMENTS.md): the paper's experiments run
// hundreds of trials per task on physical GPUs over days; these benches run
// the same protocol on the simulator with plateau early-stopping and, for
// per-task figures, a representative task subset, sized so the whole bench
// suite completes in minutes on one CPU core. Relative orderings — the
// paper's claims — are preserved; absolute GPU-hours are simulated.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "baselines/autotvm.hpp"
#include "baselines/chameleon.hpp"
#include "baselines/dgp.hpp"
#include "baselines/random_tuner.hpp"
#include "common/table.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "searchspace/models.hpp"
#include "service/server.hpp"
#include "service/session_manager.hpp"
#include "tuning/metrics.hpp"
#include "tuning/session.hpp"

namespace glimpse::bench {

inline constexpr std::uint64_t kBenchSeed = 20220712;  // DAC'22 week

/// The paper's evaluation setting: AlexNet / ResNet-18 / VGG-16 on the four
/// GPUs of Table 1, with the rest of the database as training population.
struct Setup {
  std::vector<searchspace::TaskSet> models;
  std::vector<const hwspec::GpuSpec*> eval_gpus;
  std::vector<const hwspec::GpuSpec*> train_gpus;

  std::vector<const searchspace::Task*> all_tasks() const;
  /// A representative task subset per model (first direct conv, a mid
  /// direct conv, a winograd, a dense) for per-task sweep figures.
  std::vector<const searchspace::Task*> representative_tasks(
      const searchspace::TaskSet& model) const;
};
Setup make_setup();

/// Everything trained offline (once per bench process).
struct Pretrained {
  std::unique_ptr<tuning::OfflineDataset> dataset;  ///< over train_gpus only
  core::GlimpseArtifacts artifacts;
  std::shared_ptr<const gp::DeepKernelGp> dgp_embedder;
  std::shared_ptr<const ml::GbtRegressor> transfer_model;  ///< for AutoTVM+TL
};
/// Train all shared artifacts; prints progress to stderr.
Pretrained pretrain(const Setup& setup, std::size_t samples_per_pair = 150);

/// Named tuner factories in presentation order.
struct Method {
  std::string name;
  tuning::TunerFactory factory;
};
Method random_method();
Method autotvm_method(const Pretrained& p, bool transfer_learning = false);
Method chameleon_method(const Pretrained& p);
Method dgp_method(const Pretrained& p);
Method glimpse_method(const Pretrained& p, core::GlimpseOptions options = {});

/// Run one session with a per-(method, task, gpu) deterministic seed.
tuning::Trace run_one(const Method& method, const searchspace::Task& task,
                      const hwspec::GpuSpec& hw, const tuning::SessionOptions& options,
                      double* gpu_seconds = nullptr);

/// One (method, task, gpu) cell of a figure's sweep grid.
struct Cell {
  const Method* method;
  const searchspace::Task* task;
  const hwspec::GpuSpec* gpu;
};

/// Run every cell fanned across the thread pool, returning traces in cell
/// order. Each cell is an independent, deterministically seeded session
/// (see run_one), so the grid's results do not depend on the thread count.
/// When `gpu_seconds` is non-null it is filled with per-cell simulated GPU
/// time, aligned with the traces.
std::vector<tuning::Trace> run_cells(const std::vector<Cell>& cells,
                                     const tuning::SessionOptions& options,
                                     std::vector<double>* gpu_seconds = nullptr);

/// Session options used by the end-to-end experiments (plateau stopping).
tuning::SessionOptions e2e_session_options();

/// One model tuned task by task with e2e_session_options (fig9, table2).
struct ModelRun {
  double search_s = 0.0;   ///< simulated GPU seconds over all tasks
  double latency_s = 0.0;  ///< end-to-end model inference latency
};
/// Every model tuned by every method on every GPU, all sessions fanned out
/// as one run_cells grid. Returns runs[model][method][gpu].
std::vector<std::vector<std::vector<ModelRun>>> tune_models(
    const std::vector<searchspace::TaskSet>& models, const std::vector<Method>& methods,
    const std::vector<const hwspec::GpuSpec*>& gpus);

/// Standard bench epilogue: prints the telemetry metrics summary block
/// (when GLIMPSE_METRICS enabled collection), appends a JSONL trace segment
/// to the GLIMPSE_TRACE path and writes the JSONL metrics file to the
/// GLIMPSE_METRICS path.
/// Returns 0 so harness mains can end with `return bench::finish();`.
int finish();

/// Minimum host fields for a Report gate to apply (0 = no minimum);
/// otherwise it is skipped. A host hardware_concurrency of 0 means unknown
/// and does not skip.
struct GateNeeds {
  std::uint64_t pool_threads = 0;
  std::uint64_t hardware_concurrency = 0;
};

/// The one machine-readable bench report, written as BENCH_<name>.json:
///   {"bench", "schema", "host": {"hardware_concurrency", "pool_threads",
///    "simd_compiled", "simd_enabled"}, "wall_s", "params": {...},
///    "rows": [{...}, ...], "gates": [{"name", "value", "op", "threshold",
///    "needs", "status"}, ...], "pass"}
/// Params and rows hold flat scalars: nested results become one row each,
/// with the parent keys repeated. Each bench declares every gate it enforces
/// once, here; tools/check_bench_json.py recomputes each status from the file
/// alone (DESIGN.md §12).
class Report {
 public:
  using Scalar = std::variant<bool, std::uint64_t, double, std::string>;
  using Fields = std::vector<std::pair<std::string, Scalar>>;
  enum class Op { kGe, kLe, kEq };

  explicit Report(std::string name);

  void param(std::string key, Scalar value);
  /// Adds a row and prints it as one `key=value` line.
  void row(Fields fields);
  /// Gate `value op threshold`.
  void gate(std::string name, double value, Op op, double threshold,
            GateNeeds needs = {});
  /// Gate that `holds` is true; never skipped.
  void check(std::string name, bool holds);

  /// Writes BENCH_<name>.json, prints the gate table, and returns the
  /// process exit status: 0 iff no gate failed.
  int write() const;

 private:
  struct Gate {
    std::string name;
    Scalar value;
    Op op;
    Scalar threshold;
    GateNeeds needs;
  };
  std::string name_;
  double start_s_;
  Fields params_;
  std::vector<Fields> rows_;
  std::vector<Gate> gates_;
};

/// Monotonic wall clock in milliseconds, for bench timings.
double now_ms();

/// An in-process daemon for the service benches: a SessionManager plus a
/// Server listening on a fresh Unix socket, stopped on destruction.
class LocalDaemon {
 public:
  /// `tag` makes the socket path unique within this process.
  LocalDaemon(service::SessionManagerOptions options, const std::string& tag);
  LocalDaemon(const LocalDaemon&) = delete;
  LocalDaemon& operator=(const LocalDaemon&) = delete;

  const std::string& sock() const { return sock_; }

 private:
  std::string sock_;
  service::SessionManager manager_;
  service::Server server_;  ///< holds manager_; its destructor stops it first
};

/// The 3x3 conv2d task (256 -> 256 channels, 14x14, stride 1, pad 1) that
/// the micro benches tune; `name` also seeds the task.
searchspace::Task micro_conv_task(std::string name);

/// That task on the Titan Xp.
struct MicroWorkload {
  searchspace::Task task;
  const hwspec::GpuSpec* gpu;
};
MicroWorkload micro_workload(std::string task_name);

/// Format helpers.
std::string fmt(double v, int digits = 2);
std::string fmt_pct(double fraction, int digits = 1);
std::string fmt_ratio(double v, int digits = 2);

}  // namespace glimpse::bench
