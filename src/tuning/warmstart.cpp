#include "tuning/warmstart.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "common/logging.hpp"
#include "hwspec/database.hpp"
#include "tuning/result_cache.hpp"

namespace glimpse::tuning {

namespace {

/// Weight of the predictor's score in the blend with the transfer score.
constexpr double kPredictorWeight = 0.5;
/// Candidates sampled for predictor-only advice when the tiers hold no
/// donor for the task.
constexpr std::size_t kPredictorPool = 64;

}  // namespace

WarmStartAdvisor::WarmStartAdvisor(WarmStartOptions options)
    : options_(std::move(options)), pca_(fit_blueprint_pca()) {}

linalg::Vector WarmStartAdvisor::embed(const hwspec::GpuSpec& hw) const {
  return pca_.transform(hw.to_features());
}

WarmStart WarmStartAdvisor::advise(const searchspace::Task& task,
                                   const hwspec::GpuSpec& hw) const {
  namespace fs = std::filesystem;
  WarmStart out;
  const std::uint64_t target_task_fp = task_fingerprint(task);
  const std::uint64_t target_hw_fp = hardware_fingerprint(hw);

  // Fingerprint -> device map for donor resolution over the built-in
  // database. Entries whose hw_fp resolves to no known device are skipped —
  // without a datasheet there is no Blueprint distance, hence no principled
  // weight.
  std::map<std::uint64_t, const hwspec::GpuSpec*> devices;
  for (const auto& g : hwspec::gpu_database())
    devices.emplace(hardware_fingerprint(g), &g);

  // Donor pool: per-device best gflops for every config of the target task.
  // Ordered maps everywhere so iteration (and thus ranking) is independent
  // of hash seeds and directory order.
  std::map<std::uint64_t, std::map<searchspace::Config, double>> groups;
  std::map<std::uint64_t, double> group_best;

  if (!options_.shared_dir.empty()) {
    std::string line;
    for (const fs::path& tier : tier_files(options_.shared_dir)) {
      std::ifstream is(tier);
      if (!is.good()) continue;  // vanished or unreadable: skip, never fatal
      while (std::getline(is, line)) {
        if (line.empty()) continue;
        CacheKey key;
        gpusim::MeasureResult r;
        bool stale = false;
        if (!parse_cache_line(line, key, r, stale) || stale) continue;
        ++out.tier_entries;
        if (key.task_fp != target_task_fp) continue;
        if (!r.valid || r.gflops <= 0.0) continue;
        if (!devices.contains(key.hw_fp)) continue;
        ++out.donor_entries;
        auto& cfgs = groups[key.hw_fp];
        auto [it2, inserted] = cfgs.try_emplace(key.config, r.gflops);
        if (!inserted) it2->second = std::max(it2->second, r.gflops);
        auto [bit, binserted] = group_best.try_emplace(key.hw_fp, r.gflops);
        if (!binserted) bit->second = std::max(bit->second, r.gflops);
      }
    }
  }
  out.donor_devices = groups.size();

  // Score: donor-relative quality, discounted by Blueprint distance. The
  // target's own history (same hw_fp — e.g. a resharded fleet's old tier)
  // transfers at weight 1.
  const linalg::Vector target_embed = embed(hw);
  std::map<searchspace::Config, double> best_score;
  for (const auto& [hw_fp, cfgs] : groups) {
    const hwspec::GpuSpec* donor = devices.at(hw_fp);
    double weight = 1.0;
    if (hw_fp != target_hw_fp) {
      const linalg::Vector d = embed(*donor);
      double d2 = 0.0;
      for (std::size_t i = 0; i < d.size(); ++i) {
        const double diff = target_embed[i] - d[i];
        d2 += diff * diff;
      }
      weight = std::exp(-std::sqrt(d2) / options_.blueprint_tau);
    }
    const double best = group_best.at(hw_fp);
    for (const auto& [cfg, gflops] : cfgs) {
      const double s = weight * (gflops / best);
      auto [it2, inserted] = best_score.try_emplace(cfg, s);
      if (!inserted) it2->second = std::max(it2->second, s);
    }
  }

  const bool have_predictor =
      options_.predictor != nullptr && options_.predictor->fitted();

  if (best_score.empty()) {
    // No donors. With a predictor, synthesize candidates from a fixed-seed
    // stream derived from the job identity — deterministic and isolated
    // from every tuning Rng. Without one: cold start, empty advice.
    if (have_predictor && options_.top_k > 0) {
      Rng rng(hash_combine(target_task_fp, target_hw_fp));
      std::vector<searchspace::Config> cands;
      cands.reserve(kPredictorPool);
      for (std::size_t i = 0; i < kPredictorPool; ++i)
        cands.push_back(task.space().random_config(rng));
      for (auto& [cfg, p] :
           options_.predictor->rank(task, hw, cands, options_.top_k)) {
        out.configs.push_back(std::move(cfg));
        out.scores.push_back(std::clamp(p, 0.0, 1.0));
      }
      out.from_predictor_only = !out.configs.empty();
    }
    return out;
  }

  if (have_predictor) {
    for (auto& [cfg, s] : best_score) {
      const double p = std::clamp(options_.predictor->predict(task, hw, cfg),
                                  0.0, 1.0);
      s = (1.0 - kPredictorWeight) * s + kPredictorWeight * p;
    }
  }

  std::vector<std::pair<searchspace::Config, double>> ranked(best_score.begin(),
                                                             best_score.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  if (ranked.size() > options_.top_k) ranked.resize(options_.top_k);
  for (auto& [cfg, s] : ranked) {
    out.configs.push_back(std::move(cfg));
    out.scores.push_back(s);
  }
  return out;
}

}  // namespace glimpse::tuning
