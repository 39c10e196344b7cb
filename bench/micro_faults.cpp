// Robustness bench: session behaviour and overhead under injected faults.
//
// Sweeps the transient-fault rate over a fixed tuning workload and reports,
// per rate: faulted/recovered trial counts, achieved GFLOPS, simulated GPU
// seconds (retries + backoff are charged to the simulated clock), and wall
// time. Two extra rows quantify the crash-safety machinery itself: one runs
// with the per-batch journal on to price its appends, and one kills the
// session halfway, resumes by replaying the journal, and verifies the
// resumed trace is bit-identical to the uninterrupted run.
//
// Gates (never skipped): per row, faulted <= trials, recovered <= trials and
// injected_failures >= faulted; both checkpoint rows wrote their journal;
// the resumed trace is bit-identical. Results go to stdout and
// BENCH_faults.json.
#include <cstdio>
#include <filesystem>
#include <string>

#include "baselines/random_tuner.hpp"
#include "bench_common.hpp"
#include "gpusim/faulty_measurer.hpp"
#include "hwspec/database.hpp"
#include "searchspace/models.hpp"
#include "tuning/session.hpp"

namespace {

using namespace glimpse;

using bench::now_ms;

struct Row {
  std::string name;
  double p_transient = 0.0;
  std::size_t trials = 0;
  std::size_t faulted = 0;
  std::size_t recovered = 0;  ///< trials that needed >1 attempt and succeeded
  std::uint64_t injected = 0;
  double best_gflops = 0.0;
  double gpu_seconds = 0.0;
  double wall_ms = 0.0;
  bool checkpointed = false;  ///< a journal file exists after the run
  bool resume_bit_identical = true;  ///< only meaningful for the resume row
};

tuning::SessionOptions session_options() {
  tuning::SessionOptions o;
  o.max_trials = 96;
  o.batch_size = 8;
  return o;
}

Row run_row(const bench::MicroWorkload& w, const std::string& name,
            const gpusim::FaultPlan& plan, tuning::SessionOptions opts) {
  baselines::RandomTuner tuner(w.task, *w.gpu, 71);
  gpusim::SimMeasurer sim;
  gpusim::FaultInjector injector(sim, plan);
  double t0 = now_ms();
  tuning::Trace trace = tuning::run_session(tuner, w.task, *w.gpu, injector, opts);
  Row r;
  r.name = name;
  r.p_transient = plan.p_transient;
  r.wall_ms = now_ms() - t0;
  r.trials = trace.trials.size();
  r.faulted = trace.num_faulted();
  for (const auto& t : trace.trials)
    r.recovered += t.result.attempts > 1 &&
                   t.result.error == gpusim::MeasureError::kNone;
  r.injected = injector.num_failures();
  r.best_gflops = trace.best_gflops();
  r.gpu_seconds = sim.elapsed_seconds();
  r.checkpointed = !opts.checkpoint_path.empty() &&
                   std::filesystem::exists(opts.checkpoint_path);
  return r;
}

/// Reports one row with its trial-accounting gates (never skipped).
void report_row(bench::Report& report, const Row& r) {
  using Op = bench::Report::Op;
  report.row({{"name", r.name},
              {"p_transient", r.p_transient},
              {"trials", r.trials},
              {"faulted", r.faulted},
              {"recovered", r.recovered},
              {"injected_failures", r.injected},
              {"best_gflops", r.best_gflops},
              {"gpu_seconds", r.gpu_seconds},
              {"wall_ms", r.wall_ms},
              {"checkpointed", r.checkpointed},
              {"resume_bit_identical", r.resume_bit_identical}});
  report.gate(r.name + ".faulted", r.faulted, Op::kLe, r.trials);
  report.gate(r.name + ".recovered", r.recovered, Op::kLe, r.trials);
  report.gate(r.name + ".injected_failures", r.injected, Op::kGe, r.faulted);
}

}  // namespace

int main() {
  std::printf("=== micro_faults: tuning sessions under fault injection ===\n\n");
  bench::Report report("faults");
  report.param("max_trials", static_cast<std::uint64_t>(session_options().max_trials));
  report.param("batch_size", static_cast<std::uint64_t>(session_options().batch_size));
  const auto w = bench::micro_workload("faults.conv");

  // Fault-rate sweep, no checkpointing.
  for (double p : {0.0, 0.05, 0.2, 0.5}) {
    gpusim::FaultPlan plan;
    plan.p_transient = p;
    char name[32];
    std::snprintf(name, sizeof(name), "transient_p%.2f", p);
    report_row(report, run_row(w, name, plan, session_options()));
  }

  // Checkpoint overhead: the 20 % row again, journaling every batch.
  std::string ckpt = "BENCH_faults_checkpoint.txt";
  {
    gpusim::FaultPlan plan;
    plan.p_transient = 0.2;
    tuning::SessionOptions opts = session_options();
    opts.checkpoint_path = ckpt;
    const Row r = run_row(w, "transient_p0.20_ckpt", plan, opts);
    report_row(report, r);
    report.check(r.name + ".checkpointed", r.checkpointed);
  }

  // Kill at half budget, resume by replaying the journal, verify bit-identity
  // against the uninterrupted 20 % run.
  {
    gpusim::FaultPlan plan;
    plan.p_transient = 0.2;
    tuning::SessionOptions full = session_options();
    tuning::Trace ref;
    {
      baselines::RandomTuner tuner(w.task, *w.gpu, 71);
      gpusim::SimMeasurer sim;
      gpusim::FaultInjector injector(sim, plan);
      ref = tuning::run_session(tuner, w.task, *w.gpu, injector, full);
    }
    {
      baselines::RandomTuner tuner(w.task, *w.gpu, 71);
      gpusim::SimMeasurer sim;
      gpusim::FaultInjector injector(sim, plan);
      tuning::SessionOptions half = full;
      half.max_trials = full.max_trials / 2;
      half.checkpoint_path = ckpt;
      tuning::run_session(tuner, w.task, *w.gpu, injector, half);
    }
    baselines::RandomTuner tuner(w.task, *w.gpu, 71);
    gpusim::SimMeasurer sim;
    gpusim::FaultInjector injector(sim, plan);
    tuning::SessionOptions resume = full;
    resume.resume_from = ckpt;
    const bool journal_written = std::filesystem::exists(ckpt);
    double t0 = now_ms();
    tuning::Trace resumed = tuning::run_session(tuner, w.task, *w.gpu, injector, resume);
    Row r;
    r.name = "transient_p0.20_resume";
    r.p_transient = 0.2;
    r.wall_ms = now_ms() - t0;
    r.trials = resumed.trials.size();
    r.faulted = resumed.num_faulted();
    r.injected = injector.num_failures();
    r.best_gflops = resumed.best_gflops();
    r.gpu_seconds = sim.elapsed_seconds();
    r.checkpointed = journal_written;
    r.resume_bit_identical = resumed.trials.size() == ref.trials.size();
    for (std::size_t i = 0; r.resume_bit_identical && i < ref.trials.size(); ++i)
      r.resume_bit_identical = resumed.trials[i] == ref.trials[i];
    report_row(report, r);
    report.check(r.name + ".checkpointed", r.checkpointed);
    report.check(r.name + ".resume_bit_identical", r.resume_bit_identical);
    std::remove(ckpt.c_str());
  }
  return report.write();
}
