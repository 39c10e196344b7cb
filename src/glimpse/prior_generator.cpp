#include "glimpse/prior_generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/logging.hpp"
#include "nn/losses.hpp"

namespace glimpse::core {

namespace {

using searchspace::Config;
using searchspace::ConfigSpace;
using searchspace::Knob;

// Head stack layout (fixed across templates; unused slots are masked):
//   [0, 120)   3 data-split slots x 4 parts x kLog2Buckets
//   [120, 150) 3 reduction slots x kLog2Buckets (inner part only; the outer
//              part is determined by extent / inner)
//   [150, 153) auto_unroll_max_step option index
//   [153, 155) unroll_explicit flag
//   [155, 157) use_tensor_core flag (tensor-core-capable templates only)
constexpr std::size_t kDataBase = 0;
constexpr std::size_t kReduceBase = kDataSplitSlots * 4 * kLog2Buckets;
constexpr std::size_t kUnrollBase = kReduceBase + kReduceSplitSlots * kLog2Buckets;
constexpr std::size_t kExplicitBase = kUnrollBase + 3;
constexpr std::size_t kTensorCoreBase = kExplicitBase + 2;
constexpr std::size_t kHeadDim = kTensorCoreBase + 2;

constexpr double kLr = 2e-3;
constexpr double kTopFraction = 0.05;  ///< share of each group used as targets
constexpr std::size_t kHidden = 96;

/// One (head, class-extraction) rule for a knob.
struct HeadBinding {
  std::size_t offset = 0;
  std::size_t width = 0;
  int part = -1;  ///< option part index for bucket heads; -1 = option index
};

/// Bindings of every knob of a space to heads, in knob order.
std::vector<std::vector<HeadBinding>> bind_heads(const ConfigSpace& space) {
  std::vector<std::vector<HeadBinding>> out(space.num_knobs());
  std::size_t data_slot = 0, reduce_slot = 0;
  for (std::size_t k = 0; k < space.num_knobs(); ++k) {
    const Knob& knob = space.knob(k);
    if (knob.kind() == Knob::Kind::kSplit && knob.option_width() == 4) {
      GLIMPSE_CHECK(data_slot < kDataSplitSlots)
          << "template has more data splits than canonical slots";
      for (int part = 0; part < 4; ++part)
        out[k].push_back({kDataBase + (data_slot * 4 + part) * kLog2Buckets,
                          kLog2Buckets, part});
      ++data_slot;
    } else if (knob.kind() == Knob::Kind::kSplit && knob.option_width() == 2) {
      GLIMPSE_CHECK(reduce_slot < kReduceSplitSlots)
          << "template has more reduction splits than canonical slots";
      out[k].push_back({kReduceBase + reduce_slot * kLog2Buckets, kLog2Buckets, 1});
      ++reduce_slot;
    } else if (knob.name() == "auto_unroll_max_step") {
      GLIMPSE_CHECK(knob.num_options() == 3);
      out[k].push_back({kUnrollBase, 3, -1});
    } else if (knob.name() == "unroll_explicit") {
      GLIMPSE_CHECK(knob.num_options() == 2);
      out[k].push_back({kExplicitBase, 2, -1});
    } else if (knob.name() == searchspace::kTensorCoreKnob) {
      GLIMPSE_CHECK(knob.num_options() == 2);
      out[k].push_back({kTensorCoreBase, 2, -1});
    } else {
      GLIMPSE_CHECK(false) << "unbindable knob " << knob.name();
    }
  }
  return out;
}

/// Class index selected by option `opt_idx` of `knob` under `binding`.
std::size_t class_of(const Knob& knob, std::size_t opt_idx, const HeadBinding& b) {
  if (b.part < 0) return opt_idx;
  return log2_bucket(knob.option(opt_idx)[static_cast<std::size_t>(b.part)]);
}

linalg::Vector make_input(const searchspace::Task& task,
                          std::span<const double> blueprint) {
  linalg::Vector in = task.layer_features();
  in.insert(in.end(), blueprint.begin(), blueprint.end());
  return in;
}

}  // namespace

std::size_t log2_bucket(int factor) {
  GLIMPSE_CHECK(factor >= 1);
  double b = std::round(std::log2(static_cast<double>(factor)));
  return std::min<std::size_t>(kLog2Buckets - 1, static_cast<std::size_t>(b));
}

double Prior::config_score(const Config& c) const {
  GLIMPSE_CHECK(c.size() == knob_scores_.size());
  double s = 0.0;
  for (std::size_t k = 0; k < c.size(); ++k) s += knob_scores_[k][c[k]];
  return s;
}

Config Prior::sample(Rng& rng) const {
  Config c(knob_scores_.size());
  for (std::size_t k = 0; k < knob_scores_.size(); ++k) {
    const auto& scores = knob_scores_[k];
    double mx = *std::max_element(scores.begin(), scores.end());
    std::vector<double> w(scores.size());
    for (std::size_t i = 0; i < scores.size(); ++i) w[i] = std::exp(scores[i] - mx);
    c[k] = static_cast<std::uint32_t>(rng.weighted_index(w));
  }
  return c;
}

std::vector<Config> Prior::top_configs(std::size_t n) const {
  // Exact beam search over the factored per-knob scores: the score of a
  // config is the sum of independent knob scores, so a beam of width
  // max(4n, 64) per knob retains the global top-n.
  struct Partial {
    double score;
    Config config;
  };
  std::size_t beam_width = std::max<std::size_t>(4 * n, 64);
  std::vector<Partial> beam = {{0.0, {}}};
  for (const auto& scores : knob_scores_) {
    // Keep only the most promising option extensions per knob to bound work.
    std::vector<std::size_t> order(scores.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
    std::size_t keep_opts = std::min(order.size(), beam_width);

    std::vector<Partial> next;
    next.reserve(beam.size() * keep_opts);
    for (const auto& p : beam) {
      for (std::size_t oi = 0; oi < keep_opts; ++oi) {
        std::size_t opt = order[oi];
        Partial q;
        q.score = p.score + scores[opt];
        q.config = p.config;
        q.config.push_back(static_cast<std::uint32_t>(opt));
        next.push_back(std::move(q));
      }
    }
    if (next.size() > beam_width) {
      std::nth_element(next.begin(), next.begin() + static_cast<std::ptrdiff_t>(beam_width),
                       next.end(),
                       [](const Partial& a, const Partial& b) { return a.score > b.score; });
      next.resize(beam_width);
    }
    beam = std::move(next);
  }
  std::sort(beam.begin(), beam.end(),
            [](const Partial& a, const Partial& b) { return a.score > b.score; });
  std::vector<Config> out;
  for (std::size_t i = 0; i < std::min(n, beam.size()); ++i)
    out.push_back(std::move(beam[i].config));
  return out;
}

std::size_t PriorGenerator::head_output_dim() { return kHeadDim; }

PriorGenerator::PriorGenerator(std::size_t blueprint_dim, Rng& rng,
                               PriorTrainOptions options)
    : blueprint_dim_(blueprint_dim),
      options_(options),
      net_({searchspace::Task::layer_feature_dim() + blueprint_dim, kHidden, kHidden,
            kHeadDim},
           nn::Activation::kRelu, rng) {}

void PriorGenerator::train(const tuning::OfflineDataset& dataset,
                           const BlueprintEncoder& encoder, Rng& rng) {
  // Build (input, per-head target classes) examples from the top of every
  // (task, hw) group.
  struct Example {
    linalg::Vector input;
    // (offset, width, class) triples over the head stack.
    std::vector<std::array<std::size_t, 3>> targets;
  };
  std::vector<Example> examples;

  for (const auto& group : dataset.groups()) {
    std::vector<std::size_t> valid;
    for (std::size_t idx : group.sample_indices)
      if (dataset.samples()[idx].valid) valid.push_back(idx);
    if (valid.size() < 4) continue;
    std::size_t top_n = std::max<std::size_t>(
        1, static_cast<std::size_t>(kTopFraction * static_cast<double>(valid.size())));
    std::partial_sort(valid.begin(),
                      valid.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(top_n, valid.size())),
                      valid.end(), [&](std::size_t a, std::size_t b) {
                        return dataset.samples()[a].score > dataset.samples()[b].score;
                      });
    valid.resize(std::min(top_n, valid.size()));

    linalg::Vector blueprint = encoder.encode(*group.hw);
    auto bindings = bind_heads(group.task->space());
    for (std::size_t idx : valid) {
      const auto& s = dataset.samples()[idx];
      Example ex;
      ex.input = make_input(*s.task, blueprint);
      for (std::size_t k = 0; k < bindings.size(); ++k) {
        for (const auto& b : bindings[k]) {
          std::size_t cls = class_of(s.task->space().knob(k), s.config[k], b);
          ex.targets.push_back({b.offset, b.width, cls});
        }
      }
      examples.push_back(std::move(ex));
    }
  }
  GLIMPSE_CHECK(!examples.empty()) << "no training examples for PriorGenerator";

  nn::Adam adam(net_, {.lr = kLr});
  std::size_t batch = std::min<std::size_t>(32, examples.size());
  nn::MlpParams grad = net_.zero_like();
  nn::Mlp::Cache cache;
  linalg::Vector dout, dhead;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    auto order = rng.sample_without_replacement(examples.size(), examples.size());
    for (std::size_t start = 0; start + batch <= examples.size(); start += batch) {
      grad.fill(0.0);
      for (std::size_t i = start; i < start + batch; ++i) {
        const Example& ex = examples[order[i]];
        linalg::Vector out = net_.forward(ex.input, cache);
        dout.assign(kHeadDim, 0.0);
        for (const auto& [offset, width, cls] : ex.targets) {
          std::span<const double> logits(out.data() + offset, width);
          nn::cross_entropy_grad(logits, cls, dhead);
          for (std::size_t j = 0; j < width; ++j) dout[offset + j] += dhead[j];
        }
        net_.backward(ex.input, cache, dout, 1.0 / static_cast<double>(batch), grad);
      }
      adam.step(net_, grad);
    }
  }
  trained_ = true;
}

void PriorGenerator::save(TextWriter& w) const {
  GLIMPSE_CHECK(trained_) << "save an untrained PriorGenerator";
  w.tag("prior_generator");
  w.scalar_u(blueprint_dim_);
  net_.save(w);
}

PriorGenerator PriorGenerator::load(TextReader& r) {
  r.expect("prior_generator");
  std::size_t dim = r.scalar_u();
  nn::Mlp net = nn::Mlp::load(r);
  GLIMPSE_CHECK(net.output_dim() == kHeadDim);
  return PriorGenerator(dim, std::move(net));
}

Prior PriorGenerator::generate(const searchspace::Task& task,
                               std::span<const double> blueprint) const {
  GLIMPSE_CHECK(trained_) << "PriorGenerator::generate before train";
  GLIMPSE_CHECK(blueprint.size() == blueprint_dim_);
  linalg::Vector out = net_.forward(make_input(task, blueprint));

  // Precompute log-softmax per head slice lazily per binding.
  const ConfigSpace& space = task.space();
  auto bindings = bind_heads(space);
  std::vector<std::vector<double>> knob_scores(space.num_knobs());
  for (std::size_t k = 0; k < space.num_knobs(); ++k) {
    const Knob& knob = space.knob(k);
    knob_scores[k].assign(knob.num_options(), 0.0);
    for (const auto& b : bindings[k]) {
      std::span<const double> logits(out.data() + b.offset, b.width);
      linalg::Vector p = nn::softmax(logits);
      for (std::size_t opt = 0; opt < knob.num_options(); ++opt) {
        std::size_t cls = class_of(knob, opt, b);
        knob_scores[k][opt] += std::log(std::max(p[cls], 1e-12));
      }
    }
  }
  return Prior(&space, std::move(knob_scores));
}

}  // namespace glimpse::core
