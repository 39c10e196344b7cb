#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <type_traits>

#include <unistd.h>

#include "common/json_writer.hpp"
#include "common/parallel.hpp"
#include "common/strutil.hpp"
#include "common/telemetry/telemetry.hpp"
#include "gpusim/measurer.hpp"
#include "linalg/simd.hpp"

namespace glimpse::bench {

namespace {
double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

std::vector<const searchspace::Task*> Setup::all_tasks() const {
  std::vector<const searchspace::Task*> out;
  for (const auto& m : models)
    for (const auto& t : m.tasks()) out.push_back(&t);
  return out;
}

std::vector<const searchspace::Task*> Setup::representative_tasks(
    const searchspace::TaskSet& model) const {
  using searchspace::TemplateKind;
  std::vector<const searchspace::Task*> out;
  // First and last direct conv, middle winograd, first dense, and the first
  // task of each scenario kind (attention/depthwise/reduction).
  const searchspace::Task* first_conv = nullptr;
  const searchspace::Task* last_conv = nullptr;
  std::vector<const searchspace::Task*> winos;
  const searchspace::Task* dense = nullptr;
  const searchspace::Task* attention = nullptr;
  const searchspace::Task* depthwise = nullptr;
  const searchspace::Task* reduction = nullptr;
  for (const auto& t : model.tasks()) {
    switch (t.kind()) {
      case TemplateKind::kConv2d:
        if (!first_conv) first_conv = &t;
        last_conv = &t;
        break;
      case TemplateKind::kConv2dWinograd: winos.push_back(&t); break;
      case TemplateKind::kDense:
        if (!dense) dense = &t;
        break;
      case TemplateKind::kAttention:
        if (!attention) attention = &t;
        break;
      case TemplateKind::kDepthwiseConv2d:
        if (!depthwise) depthwise = &t;
        break;
      case TemplateKind::kReduction:
        if (!reduction) reduction = &t;
        break;
    }
  }
  if (first_conv) out.push_back(first_conv);
  if (last_conv && last_conv != first_conv) out.push_back(last_conv);
  if (!winos.empty()) out.push_back(winos[winos.size() / 2]);
  if (dense) out.push_back(dense);
  if (attention) out.push_back(attention);
  if (depthwise) out.push_back(depthwise);
  if (reduction) out.push_back(reduction);
  return out;
}

Setup make_setup() {
  Setup s;
  for (auto& m : searchspace::evaluation_models()) s.models.emplace_back(std::move(m));
  s.eval_gpus = hwspec::evaluation_gpus();
  std::vector<std::string> excluded;
  for (const auto* g : s.eval_gpus) excluded.push_back(g->name);
  s.train_gpus = hwspec::training_gpus(excluded);
  return s;
}

Pretrained pretrain(const Setup& setup, std::size_t samples_per_pair) {
  Pretrained p;
  Rng rng(kBenchSeed);
  double t0 = now_s();

  // Offline dataset: every evaluation task measured on *training* GPUs only
  // (strictly leave-target-hardware-out: no eval-GPU measurement is ever
  // seen offline).
  std::vector<const hwspec::GpuSpec*> dataset_gpus = setup.train_gpus;
  // A spread of 10 GPUs across generations keeps pretraining fast without
  // hurting coverage.
  if (dataset_gpus.size() > 10) {
    std::vector<const hwspec::GpuSpec*> picked;
    for (std::size_t i = 0; i < 10; ++i)
      picked.push_back(dataset_gpus[i * dataset_gpus.size() / 10]);
    dataset_gpus = std::move(picked);
  }
  p.dataset = std::make_unique<tuning::OfflineDataset>(
      tuning::OfflineDataset::generate(setup.all_tasks(), dataset_gpus,
                                       samples_per_pair, rng));
  std::fprintf(stderr, "[pretrain] dataset: %zu samples (%.1fs)\n", p.dataset->size(),
               now_s() - t0);

  core::PriorTrainOptions prior_opts;
  prior_opts.epochs = 26;
  core::MetaTrainOptions meta_opts;
  meta_opts.max_groups = 64;
  meta_opts.epochs = 28;
  double t1 = now_s();
  p.artifacts = core::pretrain_glimpse(*p.dataset, setup.train_gpus,
                                       core::default_blueprint_dim(), rng, prior_opts,
                                       meta_opts);
  std::fprintf(stderr, "[pretrain] glimpse artifacts (%.1fs)\n", now_s() - t1);

  double t2 = now_s();
  p.dgp_embedder = baselines::pretrain_dgp_embedder(
      *p.dataset, rng, {.embed_dim = 10, .hidden = 24, .pretrain_epochs = 6});
  std::fprintf(stderr, "[pretrain] dgp embedder (%.1fs)\n", now_s() - t2);

  // Transfer model for AutoTVM+TL. Real transfer learning trains on *tuning
  // logs* of other (network, hardware) combinations — traces that are
  // heavily concentrated around the regions optimal for the SOURCE
  // hardware, which is precisely why the paper finds it "prone to being
  // misguided" on a different target. We emulate a log by taking, from each
  // source (task, GPU) group, its top 25 % configurations (the exploitation
  // phase of a trace) plus a thin random tail (its exploration phase).
  double t3 = now_s();
  std::vector<tuning::TuningRecord> storage;
  std::vector<const searchspace::Task*> storage_tasks;
  for (const auto& group : p.dataset->groups()) {
    std::vector<std::size_t> order = group.sample_indices;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return p.dataset->samples()[a].score > p.dataset->samples()[b].score;
    });
    std::size_t top = order.size() / 4;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (i >= top && i % 8 != 0) continue;  // thin exploration tail
      const auto& s = p.dataset->samples()[order[i]];
      tuning::TuningRecord r;
      r.task_name = s.task->name();
      r.hw_name = s.hw->name;
      r.config = s.config;
      r.valid = s.valid;
      r.gflops = s.gflops;
      storage.push_back(std::move(r));
      storage_tasks.push_back(s.task);
    }
  }
  std::vector<const tuning::TuningRecord*> recs;
  std::vector<const searchspace::Task*> rec_tasks;
  std::size_t stride = std::max<std::size_t>(1, storage.size() / 20000);
  for (std::size_t i = 0; i < storage.size(); i += stride) {
    recs.push_back(&storage[i]);
    rec_tasks.push_back(storage_tasks[i]);
  }
  p.transfer_model = baselines::fit_transfer_model(recs, rec_tasks, rng);
  std::fprintf(stderr, "[pretrain] transfer model (%.1fs); total %.1fs\n",
               now_s() - t3, now_s() - t0);
  return p;
}

Method random_method() { return {"Random", baselines::random_factory()}; }

Method autotvm_method(const Pretrained& p, bool transfer_learning) {
  if (transfer_learning)
    return {"AutoTVM+TL", baselines::autotvm_factory(p.transfer_model)};
  return {"AutoTVM", baselines::autotvm_factory()};
}

Method chameleon_method(const Pretrained&) {
  return {"Chameleon", baselines::chameleon_factory()};
}

Method dgp_method(const Pretrained& p) {
  return {"DGP", baselines::dgp_factory(p.dgp_embedder)};
}

Method glimpse_method(const Pretrained& p, core::GlimpseOptions options) {
  return {"Glimpse", core::glimpse_factory(p.artifacts, options)};
}

namespace {

std::uint64_t cell_seed(const Method& method, const searchspace::Task& task,
                        const hwspec::GpuSpec& hw) {
  return hash_combine(hash_combine(fnv1a(method.name), task.seed()), hw.seed());
}

}  // namespace

tuning::Trace run_one(const Method& method, const searchspace::Task& task,
                      const hwspec::GpuSpec& hw, const tuning::SessionOptions& options,
                      double* gpu_seconds) {
  auto tuner = method.factory(task, hw, cell_seed(method, task, hw));
  gpusim::SimMeasurer measurer;
  tuning::Trace trace = tuning::run_session(*tuner, task, hw, measurer, options);
  if (gpu_seconds) *gpu_seconds = measurer.elapsed_seconds();
  return trace;
}

std::vector<tuning::Trace> run_cells(const std::vector<Cell>& cells,
                                     const tuning::SessionOptions& options,
                                     std::vector<double>* gpu_seconds) {
  std::vector<double> seconds(cells.size(), 0.0);
  std::vector<tuning::Trace> traces(cells.size());
  parallel_for(cells.size(), [&](std::size_t i) {
    const Cell& cell = cells[i];
    traces[i] = run_one(*cell.method, *cell.task, *cell.gpu, options, &seconds[i]);
  });
  if (gpu_seconds) *gpu_seconds = std::move(seconds);
  return traces;
}

tuning::SessionOptions e2e_session_options() {
  tuning::SessionOptions o;
  o.max_trials = 320;
  o.batch_size = 8;
  o.plateau_trials = 44;
  return o;
}

std::vector<std::vector<std::vector<ModelRun>>> tune_models(
    const std::vector<searchspace::TaskSet>& models, const std::vector<Method>& methods,
    const std::vector<const hwspec::GpuSpec*>& gpus) {
  std::vector<Cell> cells;
  for (const auto& model : models)
    for (const auto& method : methods)
      for (const auto* gpu : gpus)
        for (std::size_t i = 0; i < model.num_tasks(); ++i)
          cells.push_back({&method, &model.task(i), gpu});
  std::vector<double> gpu_seconds;
  const std::vector<tuning::Trace> traces =
      run_cells(cells, e2e_session_options(), &gpu_seconds);
  // Sum each model's tasks in task order, as a serial loop would.
  std::vector<std::vector<std::vector<ModelRun>>> runs(models.size());
  std::size_t c = 0;
  for (std::size_t mi = 0; mi < models.size(); ++mi) {
    for (std::size_t me = 0; me < methods.size(); ++me) {
      runs[mi].emplace_back(gpus.size());
      for (ModelRun& run : runs[mi][me]) {
        std::vector<double> best_latency;
        for (std::size_t i = 0; i < models[mi].num_tasks(); ++i, ++c) {
          best_latency.push_back(traces[c].best_latency());
          run.search_s += gpu_seconds[c];
        }
        run.latency_s = models[mi].end_to_end_latency(best_latency);
      }
    }
  }
  return runs;
}

int finish() {
  if (telemetry::metrics_enabled()) {
    std::string summary = telemetry::metrics_summary();
    if (!summary.empty())
      std::printf("\n--- telemetry metrics (GLIMPSE_METRICS) ---\n%s",
                  summary.c_str());
  }
  for (const std::string& path : telemetry::export_to_env_paths())
    std::printf("telemetry: wrote %s\n", path.c_str());
  if (telemetry::num_dropped_events() > 0)
    std::fprintf(stderr, "telemetry: trace truncated, %llu event(s) dropped\n",
                 static_cast<unsigned long long>(telemetry::num_dropped_events()));
  return 0;
}

namespace {

constexpr std::uint64_t kReportSchema = 1;

double as_double(const Report::Scalar& v) {
  if (const bool* b = std::get_if<bool>(&v)) return *b ? 1.0 : 0.0;
  return std::get<double>(v);
}

std::string scalar_text(const Report::Scalar& v) {
  return std::visit(
      [](const auto& x) -> std::string {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, bool>) return x ? "true" : "false";
        else if constexpr (std::is_same_v<T, std::string>) return x;
        else if constexpr (std::is_same_v<T, double>) return strformat("%.6g", x);
        else return std::to_string(x);
      },
      v);
}

void write_scalar(JsonWriter& w, const Report::Scalar& v) {
  std::visit([&](const auto& x) { w.value(x); }, v);
}

void write_fields(JsonWriter& w, const Report::Fields& fields) {
  w.begin_object();
  for (const auto& [key, value] : fields) {
    w.key(key);
    write_scalar(w, value);
  }
  w.end_object();
}

}  // namespace

Report::Report(std::string name) : name_(std::move(name)), start_s_(now_s()) {}

void Report::param(std::string key, Scalar value) {
  params_.emplace_back(std::move(key), std::move(value));
}

void Report::row(Fields fields) {
  std::string line;
  for (const auto& [key, value] : fields) line += "  " + key + "=" + scalar_text(value);
  std::printf("%s\n", line.c_str());
  rows_.push_back(std::move(fields));
}

void Report::gate(std::string name, double value, Op op, double threshold,
                  GateNeeds needs) {
  gates_.push_back({std::move(name), value, op, threshold, needs});
}

void Report::check(std::string name, bool holds) {
  gates_.push_back({std::move(name), holds, Op::kEq, true, {}});
}

int Report::write() const {
  static const char* const kOps[] = {">=", "<=", "=="};
  const std::uint64_t cores = std::thread::hardware_concurrency();
  const std::uint64_t pool = num_threads();
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  JsonWriter w(f);
  w.begin_object();
  w.kv("bench", name_);
  w.kv("schema", kReportSchema);
  w.key("host");
  write_fields(w, {{"hardware_concurrency", cores},
                   {"pool_threads", pool},
                   {"simd_compiled", linalg::simd_compiled()},
                   {"simd_enabled", linalg::simd_enabled()}});
  w.kv("wall_s", now_s() - start_s_);
  w.key("params");
  write_fields(w, params_);
  w.key("rows");
  w.begin_array();
  for (const Fields& r : rows_) write_fields(w, r);
  w.end_array();

  std::printf("\ngates (%s; %llu cores, pool %llu threads):\n", path.c_str(),
              static_cast<unsigned long long>(cores),
              static_cast<unsigned long long>(pool));
  bool pass = true;
  w.key("gates");
  w.begin_array();
  for (const Gate& g : gates_) {
    const bool applies = pool >= g.needs.pool_threads &&
                         (cores == 0 || cores >= g.needs.hardware_concurrency);
    const double v = as_double(g.value), t = as_double(g.threshold);
    const bool holds = g.op == Op::kGe ? v >= t : g.op == Op::kLe ? v <= t : v == t;
    const char* status = !applies ? "skip" : holds ? "pass" : "fail";
    pass = pass && (!applies || holds);
    std::printf("  %-4s  %-46s %12s %s %s\n", status, g.name.c_str(),
                scalar_text(g.value).c_str(), kOps[static_cast<int>(g.op)],
                scalar_text(g.threshold).c_str());
    Fields needs;
    if (g.needs.pool_threads > 0)
      needs.emplace_back("pool_threads", g.needs.pool_threads);
    if (g.needs.hardware_concurrency > 0)
      needs.emplace_back("hardware_concurrency", g.needs.hardware_concurrency);
    w.begin_object();
    w.kv("name", g.name);
    w.key("value");
    write_scalar(w, g.value);
    w.kv("op", kOps[static_cast<int>(g.op)]);
    w.key("threshold");
    write_scalar(w, g.threshold);
    w.key("needs");
    write_fields(w, needs);
    w.kv("status", status);
    w.end_object();
  }
  w.end_array();
  w.kv("pass", pass);
  w.end_object();
  std::printf("wrote %s: %s\n", path.c_str(), pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

double now_ms() { return now_s() * 1e3; }

LocalDaemon::LocalDaemon(service::SessionManagerOptions options, const std::string& tag)
    : sock_("/tmp/glimpse_bench_" + std::to_string(::getpid()) + "_" + tag + ".sock"),
      manager_(std::move(options)),
      server_(manager_, service::ServerOptions{sock_, -1}) {
  server_.start();
}

searchspace::Task micro_conv_task(std::string name) {
  return searchspace::Task(
      std::move(name), searchspace::TemplateKind::kConv2d,
      {.c = 256, .h = 14, .w = 14, .k = 256, .kh = 3, .kw = 3, .stride = 1, .pad = 1});
}

MicroWorkload micro_workload(std::string task_name) {
  return {micro_conv_task(std::move(task_name)), &hwspec::find_gpu_or_throw("Titan Xp")};
}

std::string fmt(double v, int digits) { return strformat("%.*f", digits, v); }
std::string fmt_pct(double fraction, int digits) {
  return strformat("%.*f%%", digits, fraction * 100.0);
}
std::string fmt_ratio(double v, int digits) { return strformat("%.*fx", digits, v); }

}  // namespace glimpse::bench
