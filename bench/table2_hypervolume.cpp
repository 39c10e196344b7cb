// Table 2: Hyper-Volume (HV) summary of the multi-objective trade-off
// between search time and inference latency:
//   HV = SearchReduction x InferenceReduction x 100        (paper Eq. 2)
// with reductions measured against AutoTVM. Evaluated on the two Turing
// GPUs (complementing fig9's Pascal/Ampere pair).
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "common/stats.hpp"

using namespace glimpse;

int main() {
  std::printf("=== Table 2: Hyper-Volume (search time x inference latency) ===\n\n");

  bench::Setup setup = bench::make_setup();
  bench::Pretrained pre = bench::pretrain(setup);

  std::vector<bench::Method> methods = {
      bench::autotvm_method(pre), bench::chameleon_method(pre),
      bench::dgp_method(pre), bench::glimpse_method(pre)};
  std::vector<const hwspec::GpuSpec*> gpus = {hwspec::find_gpu("RTX 2070 Super"),
                                              hwspec::find_gpu("RTX 2080 Ti")};

  TextTable table({"model", "AutoTVM search (sim h)", "AutoTVM infer (ms)",
                   "method", "search redu.", "infer redu.", "HV"});

  const auto grid = bench::tune_models(setup.models, methods, gpus);
  for (std::size_t mi = 0; mi < setup.models.size(); ++mi) {
    const searchspace::TaskSet& model = setup.models[mi];
    std::vector<bench::ModelRun> runs(methods.size());
    for (std::size_t me = 0; me < methods.size(); ++me) {
      for (const bench::ModelRun& r : grid[mi][me]) {
        runs[me].search_s += r.search_s;  // summed over GPUs (paper's "sum")
        runs[me].latency_s += r.latency_s / gpus.size();
      }
    }
    const bench::ModelRun& base = runs[0];
    for (std::size_t me = 1; me < methods.size(); ++me) {
      double sr = tuning::search_reduction_pct(base.search_s, runs[me].search_s);
      double ir = tuning::inference_reduction_pct(base.latency_s, runs[me].latency_s);
      double hv = tuning::hyper_volume(base.search_s, base.latency_s,
                                       runs[me].search_s, runs[me].latency_s);
      table.add(model.model().name, bench::fmt(base.search_s / 3600.0, 3),
                bench::fmt(base.latency_s * 1e3, 3), methods[me].name,
                bench::fmt(sr, 2) + "%", bench::fmt(ir, 2) + "%", bench::fmt(hv, 4));
    }
  }
  table.print(std::cout);

  std::printf(
      "\nPaper (Table 2): Glimpse has the highest HV on every model\n"
      "(e.g. ResNet-18: Chameleon 3.19, DGP 3.64, Glimpse 4.40), because it\n"
      "cuts search time the most while matching or beating the others'\n"
      "inference latency. The same ordering should appear above.\n");
  return bench::finish();
}
