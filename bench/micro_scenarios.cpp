// Scenario-diversity bench: the new template kinds swept across Blueprints.
//
// One representative task per new kind — transformer self-attention
// (BERT-base geometry), a MobileNet depthwise 3x3, and the global-pool row
// reduction — is tuned with AutoTVM on five Blueprints spanning the edge
// part (Jetson Nano), two consumer generations (Titan Xp, RTX 2080 Ti) and
// the datacenter parts (A100 PCIe, H100 PCIe). This is the paper's fig5/
// fig9 story on the new kinds: the best configuration must move as the
// Blueprint changes, or hardware embedding would have nothing to learn.
//
// The attention template carries the Bolt-style use_tensor_core option,
// which the resource model gates on the Blueprint's tensor-core fields. The
// sweep records whether each device's tuned optimum selects it. Gates (never
// skipped; the measurer is simulated):
//   - per kind, the winning config differs on >= 3 of the 5 Blueprints;
//   - the tensor-core option wins on >= 1 tensor-core Blueprint and is
//     never selected on silicon without tensor cores;
//   - tuning decisions are bit-identical at 1 and 4 measurement threads.
//
// Results go to stdout and BENCH_scenarios.json.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "baselines/autotvm.hpp"
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "gpusim/measurer.hpp"
#include "hwspec/database.hpp"
#include "searchspace/models.hpp"
#include "tuning/session.hpp"

namespace {

using namespace glimpse;

constexpr std::size_t kMaxTrials = 224;
constexpr std::size_t kBatch = 8;
constexpr std::uint64_t kSeed = 4117;

using bench::now_ms;

const char* const kGpuNames[] = {"Jetson Nano", "Titan Xp", "RTX 2080 Ti",
                                 "A100 PCIe", "H100 PCIe"};

struct Cell {
  const hwspec::GpuSpec* gpu = nullptr;
  double best_gflops = 0.0;
  std::string best_config;
  bool has_best = false;
  bool tc_selected = false;
  double valid_frac = 0.0;
  bool decisions_identical = false;
  double wall_ms = 0.0;
};

tuning::Trace tune(const searchspace::Task& task, const hwspec::GpuSpec& hw) {
  baselines::AutoTvmTuner tuner(task, hw, kSeed);
  gpusim::SimMeasurer sim;
  tuning::SessionOptions opts;
  opts.max_trials = kMaxTrials;
  opts.batch_size = kBatch;
  return tuning::run_session(tuner, task, hw, sim, opts);
}

Cell run_cell(const searchspace::Task& task, const hwspec::GpuSpec& hw) {
  Cell c;
  c.gpu = &hw;
  const double t0 = now_ms();

  // The sweep runs single-threaded, then repeats at 4 measurement threads:
  // the tuner's decision stream (configs proposed, order, results) must not
  // depend on measurement parallelism.
  set_num_threads(1);
  tuning::Trace tr = tune(task, hw);
  set_num_threads(4);
  tuning::Trace tr4 = tune(task, hw);
  set_num_threads(0);  // restore the environment default
  c.decisions_identical = tuning::trace_decisions_identical(tr, tr4);

  std::size_t valid = 0;
  const tuning::TrialRecord* best = nullptr;
  for (const auto& t : tr.trials) {
    if (!t.result.valid) continue;
    ++valid;
    if (best == nullptr || t.result.gflops > best->result.gflops) best = &t;
  }
  c.valid_frac = tr.trials.empty()
                     ? 0.0
                     : static_cast<double>(valid) / static_cast<double>(tr.trials.size());
  if (best != nullptr) {
    c.has_best = true;
    c.best_gflops = best->result.gflops;
    c.best_config = task.space().to_string(best->config);
    if (task.knob_slots().tensor_core != searchspace::KnobSlots::kNoKnob)
      c.tc_selected =
          task.space().option_of(best->config, task.knob_slots().tensor_core)[0] == 1;
  }
  c.wall_ms = now_ms() - t0;
  return c;
}

/// Tunes `task` on every Blueprint and reports one row per cell with the
/// kind's gates (never skipped; the measurer is simulated). Returns how many
/// cells picked tensor cores on TC silicon.
std::size_t run_sweep(bench::Report& report, const searchspace::Task& task) {
  using Op = bench::Report::Op;
  std::vector<Cell> cells;
  std::set<std::string> distinct;
  for (const char* name : kGpuNames) {
    cells.push_back(run_cell(task, hwspec::find_gpu_or_throw(name)));
    if (cells.back().has_best) distinct.insert(cells.back().best_config);
  }
  const std::string kind = to_string(task.kind());
  std::size_t identical = 0, tc_wins = 0, tc_on_plain = 0;
  for (const Cell& c : cells) {
    report.row({{"kind", kind},
                {"task", task.name()},
                {"distinct_best_configs", distinct.size()},
                {"gpu", c.gpu->name},
                {"tensor_cores", static_cast<std::uint64_t>(c.gpu->tensor_cores)},
                {"best_gflops", c.best_gflops},
                {"best_config", c.best_config},
                {"tc_selected", c.tc_selected},
                {"valid_frac", c.valid_frac},
                {"decisions_identical", c.decisions_identical},
                {"wall_ms", c.wall_ms}});
    identical += c.decisions_identical;
    if (c.tc_selected && c.gpu->tensor_cores > 0) ++tc_wins;
    if (c.tc_selected && c.gpu->tensor_cores == 0) ++tc_on_plain;
  }
  report.gate(kind + ".distinct_best_configs", distinct.size(), Op::kGe, 3);
  report.gate(kind + ".distinct_within_cells", distinct.size(), Op::kLe, cells.size());
  report.gate(kind + ".decisions_identical_cells", identical, Op::kEq, cells.size());
  report.gate(kind + ".tc_selected_on_plain_cells", tc_on_plain, Op::kEq, 0);
  return tc_wins;
}

}  // namespace

int main() {
  std::printf("=== micro_scenarios: new template kinds across Blueprints ===\n\n");
  bench::Report report("scenarios");
  report.param("max_trials", kMaxTrials);
  report.param("batch_size", kBatch);
  std::size_t tc_wins = 0;
  tc_wins += run_sweep(report, searchspace::Task(
      "scenario.attention", searchspace::AttentionShape{1, 12, 128, 64}));
  tc_wins += run_sweep(report, searchspace::Task(
      "scenario.depthwise", searchspace::DepthwiseShape{1, 128, 56, 56, 3, 3, 1, 1}));
  tc_wins += run_sweep(report, searchspace::Task(
      "scenario.reduce", searchspace::ReductionShape{256, 196}));
  report.gate("tc_selected_on_tc_cells", tc_wins, bench::Report::Op::kGe, 1);
  return report.write();
}
