// Model deployment scenario: compile ResNet-18 end-to-end for one GPU.
//
// This is the workflow from the paper's §2: a deployment engineer receives
// a trained network and must meet an inference-latency QoS target on a
// given device. Every task of the model is tuned; layers with both a direct
// and a Winograd implementation pick the faster one; the end-to-end
// latency and the total tuning cost ("GPU hours") are reported.
#include <cstdio>

#include "glimpse/glimpse_tuner.hpp"
#include "hwspec/database.hpp"
#include "searchspace/models.hpp"
#include "tuning/dataset.hpp"
#include "tuning/session.hpp"

using namespace glimpse;

int main(int argc, char** argv) {
  const char* gpu_name = argc > 1 ? argv[1] : "RTX 2070 Super";
  const hwspec::GpuSpec* target = hwspec::find_gpu(gpu_name);
  if (!target) {
    std::fprintf(stderr, "unknown GPU '%s'; available:\n", gpu_name);
    for (const auto& g : hwspec::gpu_database())
      std::fprintf(stderr, "  %s\n", g.name.c_str());
    return 1;
  }

  searchspace::TaskSet model(searchspace::resnet18());
  std::printf("Deploying %s on %s: %zu tuning tasks\n", model.model().name.c_str(),
              target->name.c_str(), model.num_tasks());

  // Offline artifacts from other hardware (one-off, shared across layers).
  Rng rng(11);
  auto train_gpus = hwspec::training_gpus({target->name});
  std::vector<const searchspace::Task*> tasks;
  for (const auto& t : model.tasks()) tasks.push_back(&t);
  {
    std::vector<const hwspec::GpuSpec*> spread;
    for (std::size_t i = 0; i < 8; ++i)
      spread.push_back(train_gpus[i * train_gpus.size() / 8]);
    train_gpus = spread;
  }
  auto dataset = tuning::OfflineDataset::generate(tasks, train_gpus, 120, rng);
  core::GlimpseArtifacts artifacts = core::pretrain_glimpse(
      dataset, train_gpus, core::default_blueprint_dim(), rng);

  tuning::SessionOptions options;
  options.max_trials = 160;
  options.batch_size = 8;
  options.plateau_trials = 48;

  std::vector<double> best_latency(model.num_tasks());
  double total_gpu_s = 0.0;
  for (std::size_t i = 0; i < model.num_tasks(); ++i) {
    const auto& task = model.task(i);
    core::GlimpseTuner tuner(task, *target, 100 + i, artifacts);
    gpusim::SimMeasurer measurer;
    auto trace = tuning::run_session(tuner, task, *target, measurer, options);
    best_latency[i] = trace.best_latency();
    total_gpu_s += measurer.elapsed_seconds();
    std::printf("  %-28s %4zu trials  best %7.0f GFLOPS  %.3f ms\n",
                task.name().c_str(), trace.trials.size(), trace.best_gflops(),
                trace.best_latency() * 1e3);
  }

  double e2e = model.end_to_end_latency(best_latency);
  std::printf("\nEnd-to-end %s inference: %.3f ms\n", model.model().name.c_str(),
              e2e * 1e3);
  std::printf("Total tuning cost: %.1f simulated GPU-minutes\n", total_gpu_s / 60.0);
  return 0;
}
