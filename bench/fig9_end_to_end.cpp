// Figure 9: end-to-end evaluation. Every task of each model is tuned to
// convergence by AutoTVM, Chameleon, DGP and Glimpse; we report
//   (a) optimization-time improvement over AutoTVM (paper geomeans:
//       Chameleon 4.45x, DGP 3.50x, Glimpse 6.73x), and
//   (b) output-binary inference speed relative to AutoTVM (paper:
//       Glimpse best at ~1.058x geomean).
// Two evaluation GPUs (Pascal and Ampere extremes) keep the single-core
// runtime manageable; the protocol is identical across methods.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"

using namespace glimpse;

int main() {
  std::printf("=== Figure 9: end-to-end optimization time and inference speed ===\n\n");

  bench::Setup setup = bench::make_setup();
  bench::Pretrained pre = bench::pretrain(setup);

  std::vector<bench::Method> methods = {
      bench::autotvm_method(pre), bench::chameleon_method(pre),
      bench::dgp_method(pre), bench::glimpse_method(pre)};
  std::vector<const hwspec::GpuSpec*> gpus = {hwspec::find_gpu("Titan Xp"),
                                              hwspec::find_gpu("RTX 3090")};

  // results[model][method] averaged over GPUs.
  const auto runs = bench::tune_models(setup.models, methods, gpus);
  std::vector<std::vector<bench::ModelRun>> results(
      setup.models.size(), std::vector<bench::ModelRun>(methods.size()));
  for (std::size_t mi = 0; mi < setup.models.size(); ++mi) {
    for (std::size_t me = 0; me < methods.size(); ++me) {
      for (const bench::ModelRun& r : runs[mi][me]) {
        results[mi][me].search_s += r.search_s / gpus.size();
        results[mi][me].latency_s += r.latency_s / gpus.size();
      }
    }
  }

  std::printf("--- (a) Optimization-time improvement over AutoTVM ---\n");
  TextTable ta({"model", "AutoTVM", "Chameleon", "DGP", "Glimpse (ours)"});
  std::vector<std::vector<double>> speedups(methods.size());
  for (std::size_t mi = 0; mi < setup.models.size(); ++mi) {
    std::vector<std::string> row = {setup.models[mi].model().name};
    for (std::size_t me = 0; me < methods.size(); ++me) {
      double s = results[mi][0].search_s / results[mi][me].search_s;
      speedups[me].push_back(s);
      row.push_back(bench::fmt_ratio(s));
    }
    ta.add_row(row);
  }
  {
    std::vector<std::string> row = {"geomean"};
    for (std::size_t me = 0; me < methods.size(); ++me)
      row.push_back(bench::fmt_ratio(geomean(speedups[me])));
    ta.add_row(row);
  }
  ta.print(std::cout);
  std::printf("Paper geomeans: 1.00x / 4.45x / 3.50x / 6.73x\n\n");

  std::printf("--- (b) Inference speed relative to AutoTVM ---\n");
  TextTable tb({"model", "AutoTVM", "Chameleon", "DGP", "Glimpse (ours)"});
  std::vector<std::vector<double>> infs(methods.size());
  for (std::size_t mi = 0; mi < setup.models.size(); ++mi) {
    std::vector<std::string> row = {setup.models[mi].model().name};
    for (std::size_t me = 0; me < methods.size(); ++me) {
      double s = results[mi][0].latency_s / results[mi][me].latency_s;
      infs[me].push_back(s);
      row.push_back(bench::fmt(s, 3));
    }
    tb.add_row(row);
  }
  {
    std::vector<std::string> row = {"geomean"};
    for (std::size_t me = 0; me < methods.size(); ++me)
      row.push_back(bench::fmt(geomean(infs[me]), 3));
    tb.add_row(row);
  }
  tb.print(std::cout);
  std::printf("Paper geomeans: 1.000 / 1.047 / 1.058 / 1.058 (Glimpse ties DGP on\n"
              "latency while searching far faster).\n\n");

  std::printf("Raw per-model data (avg over %zu GPUs):\n", gpus.size());
  TextTable raw({"model", "method", "search (sim s)", "inference (ms)"});
  for (std::size_t mi = 0; mi < setup.models.size(); ++mi)
    for (std::size_t me = 0; me < methods.size(); ++me)
      raw.add(setup.models[mi].model().name, methods[me].name,
              bench::fmt(results[mi][me].search_s, 0),
              bench::fmt(results[mi][me].latency_s * 1e3, 3));
  raw.print(std::cout);
  return bench::finish();
}
