// glimpse_warmstart: offline trainer + inspector for the warm-start stack
// (src/tuning/warmstart.hpp, src/tuning/config_predictor.hpp).
//
//   glimpse_warmstart train --tiers DIR --out predictor.txt
//   glimpse_warmstart seeds --tiers DIR --model resnet18 --task 1 --gpu "RTX 2080 Ti" [--predictor predictor.txt] [--top-k 8]
//
// `train` mines every tier-*.jsonl in --tiers for valid measurements whose
// task/hardware fingerprints resolve against the built-in model zoo (the
// three evaluation models and the two scenario models) and GPU database,
// normalizes each record's gflops by its (task, device) group's best, and
// fits the ConfigPredictor MLP on the result. Training is seeded and
// bit-deterministic: the same tiers always produce a byte-identical
// predictor file.
//
// `seeds` runs the WarmStartAdvisor exactly as a --warmstart daemon would
// for one (model, task, gpu) job and prints the ranked seed configs — the
// operator's view of "what would this job start from?".
//
// Exit status: 0 on success, 1 on runtime failure, 2 on usage errors.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strutil.hpp"
#include "hwspec/database.hpp"
#include "searchspace/models.hpp"
#include "tuning/config_predictor.hpp"
#include "tuning/result_cache.hpp"
#include "tuning/warmstart.hpp"

using namespace glimpse;

namespace {

namespace fs = std::filesystem;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "glimpse_warmstart: " << error << "\n";
  std::cerr <<
      "usage:\n"
      "  glimpse_warmstart train --tiers DIR --out FILE\n"
      "      [--epochs N] [--batch N] [--lr X] [--seed S]\n"
      "  glimpse_warmstart seeds --tiers DIR --model M --task I --gpu NAME\n"
      "      [--predictor FILE] [--top-k K] [--tau X]\n";
  std::exit(error.empty() ? 0 : 2);
}

int cmd_train(const std::string& tiers_dir, const std::string& out_path,
              const tuning::PredictorTrainOptions& topts) {
  // Fingerprint inversion: every task the daemon can serve, every GPU the
  // database knows. Tier entries resolving to neither are skipped — without
  // a Task there are no transfer features, without a datasheet no Blueprint.
  std::vector<std::unique_ptr<searchspace::TaskSet>> sets;
  std::map<std::uint64_t, const searchspace::Task*> tasks;
  std::vector<searchspace::Model> models = searchspace::evaluation_models();
  for (searchspace::Model& m : searchspace::scenario_models()) models.push_back(std::move(m));
  for (searchspace::Model& m : models) {
    sets.push_back(std::make_unique<searchspace::TaskSet>(std::move(m)));
    const searchspace::TaskSet& ts = *sets.back();
    for (std::size_t i = 0; i < ts.num_tasks(); ++i)
      tasks.emplace(tuning::task_fingerprint(ts.task(i)), &ts.task(i));
  }
  std::map<std::uint64_t, const hwspec::GpuSpec*> gpus;
  for (const hwspec::GpuSpec& g : hwspec::gpu_database())
    gpus.emplace(tuning::hardware_fingerprint(g), &g);

  // Best gflops per (task, device, config), then per-(task, device) group
  // best for score normalization. Ordered maps: deterministic sample order.
  struct GroupKey {
    std::uint64_t task_fp, hw_fp;
    auto operator<=>(const GroupKey&) const = default;
  };
  std::map<GroupKey, std::map<searchspace::Config, double>> grouped;
  std::uint64_t lines = 0, skipped = 0;
  std::string line;
  for (const fs::path& tier : tuning::tier_files(tiers_dir)) {
    std::ifstream is(tier);
    if (!is.good()) continue;
    while (std::getline(is, line)) {
      if (line.empty()) continue;
      ++lines;
      tuning::CacheKey key;
      gpusim::MeasureResult r;
      bool stale = false;
      if (!tuning::parse_cache_line(line, key, r, stale) || stale ||
          !r.valid || r.gflops <= 0.0 || !tasks.contains(key.task_fp) ||
          !gpus.contains(key.hw_fp)) {
        ++skipped;
        continue;
      }
      auto& cfgs = grouped[{key.task_fp, key.hw_fp}];
      auto [it, inserted] = cfgs.try_emplace(key.config, r.gflops);
      if (!inserted) it->second = std::max(it->second, r.gflops);
    }
  }

  std::vector<tuning::DatasetSample> samples;
  for (const auto& [gk, cfgs] : grouped) {
    double best = 0.0;
    for (const auto& [cfg, gflops] : cfgs) best = std::max(best, gflops);
    for (const auto& [cfg, gflops] : cfgs)
      samples.push_back({tasks.at(gk.task_fp), gpus.at(gk.hw_fp), cfg, true, gflops,
                         gflops / best});
  }
  std::cerr << "glimpse_warmstart: " << lines << " tier lines, " << skipped
            << " unusable, " << samples.size() << " training samples over "
            << grouped.size() << " (task, device) groups\n";
  if (samples.empty()) {
    std::cerr << "glimpse_warmstart: nothing to train on\n";
    return 1;
  }

  tuning::ConfigPredictor predictor;
  predictor.fit(samples, topts);
  predictor.save_file(out_path);
  std::cout << "trained " << out_path << " samples=" << predictor.train_samples()
            << " train_mse=" << predictor.train_mse()
            << " blueprint_dim=" << predictor.blueprint_dim() << std::endl;
  return 0;
}

int cmd_seeds(const std::string& tiers_dir, const std::string& model,
              std::size_t task_index, const std::string& gpu,
              const std::string& predictor_path, std::size_t top_k,
              double tau) {
  searchspace::Model m;
  try {
    m = searchspace::model_by_name(model);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  const searchspace::TaskSet ts(std::move(m));
  if (task_index >= ts.num_tasks())
    usage("task index out of range (model has " +
          std::to_string(ts.num_tasks()) + " tasks)");
  const hwspec::GpuSpec* hw = hwspec::find_gpu(gpu);
  if (hw == nullptr) usage("unknown gpu '" + gpu + "'");

  tuning::ConfigPredictor predictor;
  tuning::WarmStartOptions wopts;
  wopts.shared_dir = tiers_dir;
  wopts.top_k = top_k;
  wopts.blueprint_tau = tau;
  if (!predictor_path.empty()) {
    predictor = tuning::ConfigPredictor::load_file(predictor_path);
    if (!predictor.fitted()) usage("predictor file holds an unfitted model");
    wopts.predictor = &predictor;
  }
  const tuning::WarmStartAdvisor advisor(wopts);
  const tuning::WarmStart ws = advisor.advise(ts.task(task_index), *hw);

  std::cout << "tier_entries=" << ws.tier_entries
            << " donor_entries=" << ws.donor_entries
            << " donor_devices=" << ws.donor_devices
            << " predictor_only=" << (ws.from_predictor_only ? 1 : 0)
            << " blueprint_dim=" << advisor.blueprint_dim() << std::endl;
  for (std::size_t i = 0; i < ws.configs.size(); ++i) {
    std::cout << "seed " << i << " score=" << ws.scores[i] << " config=[";
    for (std::size_t j = 0; j < ws.configs[i].size(); ++j)
      std::cout << (j ? "," : "") << ws.configs[i][j];
    std::cout << "]" << std::endl;
  }
  if (ws.configs.empty())
    std::cerr << "glimpse_warmstart: cold start (no donors"
              << (predictor_path.empty() ? ", no predictor" : "") << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  const std::string command = argv[1];
  std::string tiers, out, model = "resnet18", gpu = "Titan Xp", predictor;
  std::size_t task_index = 0, top_k = 8;
  double tau = 2.0;
  tuning::PredictorTrainOptions topts;

  int i = 2;
  auto next = [&](const std::string& flag) -> std::string {
    if (i + 1 >= argc) usage(flag + " needs a value");
    return argv[++i];
  };
  // The flag's value as a whole-token number; anything else is a usage error.
  auto next_number = [&](const std::string& flag, auto& out) {
    const std::string v = next(flag);
    if (!parse_number(v, out)) usage("bad value '" + v + "' for " + flag);
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiers") tiers = next(arg);
    else if (arg == "--out") out = next(arg);
    else if (arg == "--model") model = next(arg);
    else if (arg == "--task") next_number(arg, task_index);
    else if (arg == "--gpu") gpu = next(arg);
    else if (arg == "--predictor") predictor = next(arg);
    else if (arg == "--top-k") next_number(arg, top_k);
    else if (arg == "--tau") next_number(arg, tau);
    else if (arg == "--epochs") next_number(arg, topts.epochs);
    else if (arg == "--batch") next_number(arg, topts.batch);
    else if (arg == "--lr") next_number(arg, topts.lr);
    else if (arg == "--seed") next_number(arg, topts.seed);
    else if (arg == "--help" || arg == "-h") usage();
    else usage("unknown flag " + arg);
  }
  if (tiers.empty()) usage("--tiers is required");

  try {
    if (command == "train") {
      if (out.empty()) usage("train needs --out");
      return cmd_train(tiers, out, topts);
    }
    if (command == "seeds")
      return cmd_seeds(tiers, model, task_index, gpu, predictor, top_k, tau);
    usage("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::cerr << "glimpse_warmstart: " << e.what() << "\n";
    return 1;
  }
}
