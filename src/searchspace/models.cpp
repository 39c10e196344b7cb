#include "searchspace/models.hpp"

#include <limits>
#include <stdexcept>

#include "common/logging.hpp"
#include "common/strutil.hpp"

namespace glimpse::searchspace {

namespace {
ConvShape conv(int c, int hw, int k, int kernel, int stride, int pad) {
  ConvShape s;
  s.n = 1;
  s.c = c;
  s.h = hw;
  s.w = hw;
  s.k = k;
  s.kh = kernel;
  s.kw = kernel;
  s.stride = stride;
  s.pad = pad;
  return s;
}
}  // namespace

Model alexnet() {
  Model m;
  m.name = "AlexNet";
  m.convs = {
      {conv(3, 224, 64, 11, 4, 2), 1},   // conv1: 224 -> 55
      {conv(64, 27, 192, 5, 1, 2), 1},   // conv2 (after pool)
      {conv(192, 13, 384, 3, 1, 1), 1},  // conv3
      {conv(384, 13, 256, 3, 1, 1), 1},  // conv4
      {conv(256, 13, 256, 3, 1, 1), 1},  // conv5
  };
  m.denses = {
      {DenseShape{1, 9216, 4096}, 1},
      {DenseShape{1, 4096, 4096}, 1},
      {DenseShape{1, 4096, 1000}, 1},
  };
  return m;
}

Model resnet18() {
  Model m;
  m.name = "ResNet-18";
  m.convs = {
      {conv(3, 224, 64, 7, 2, 3), 1},    // stem
      {conv(64, 56, 64, 3, 1, 1), 4},    // stage1 blocks
      {conv(64, 56, 64, 1, 1, 0), 1},    // stage1 projection
      {conv(64, 56, 128, 3, 2, 1), 1},   // stage2 downsample conv
      {conv(64, 56, 128, 1, 2, 0), 1},   // stage2 shortcut
      {conv(128, 28, 128, 3, 1, 1), 3},  // stage2 remaining
      {conv(128, 28, 256, 3, 2, 1), 1},  // stage3 downsample conv
      {conv(128, 28, 256, 1, 2, 0), 1},  // stage3 shortcut
      {conv(256, 14, 256, 3, 1, 1), 3},  // stage3 remaining
      {conv(256, 14, 512, 3, 2, 1), 1},  // stage4 downsample conv
      {conv(256, 14, 512, 1, 2, 0), 1},  // stage4 shortcut
      {conv(512, 7, 512, 3, 1, 1), 3},   // stage4 remaining
  };
  m.denses = {{DenseShape{1, 512, 1000}, 1}};
  return m;
}

Model vgg16() {
  Model m;
  m.name = "VGG-16";
  m.convs = {
      {conv(3, 224, 64, 3, 1, 1), 1},    // conv1_1
      {conv(64, 224, 64, 3, 1, 1), 1},   // conv1_2
      {conv(64, 112, 128, 3, 1, 1), 1},  // conv2_1
      {conv(128, 112, 128, 3, 1, 1), 1}, // conv2_2
      {conv(128, 56, 256, 3, 1, 1), 1},  // conv3_1
      {conv(256, 56, 256, 3, 1, 1), 2},  // conv3_2, conv3_3
      {conv(256, 28, 512, 3, 1, 1), 1},  // conv4_1
      {conv(512, 28, 512, 3, 1, 1), 2},  // conv4_2, conv4_3
      {conv(512, 14, 512, 3, 1, 1), 3},  // conv5_1..conv5_3
  };
  m.denses = {
      {DenseShape{1, 25088, 4096}, 1},
      {DenseShape{1, 4096, 4096}, 1},
      {DenseShape{1, 4096, 1000}, 1},
  };
  return m;
}

std::vector<Model> evaluation_models() { return {alexnet(), resnet18(), vgg16()}; }

Model transformer_block() {
  Model m;
  m.name = "TransformerBlock";
  // BERT-base geometry: hidden 768, 12 heads of 64, sequence 128. One
  // encoder block; the attention task fuses QK^T/softmax/AV, the matmuls
  // are dense tasks (QKV+output projections share the 768x768 shape), and
  // LayerNorm's mean/variance pass is the row reduction.
  m.attentions = {{AttentionShape{1, 12, 128, 64}, 1}};
  m.denses = {
      {DenseShape{128, 768, 768}, 4},    // Q/K/V/output projections
      {DenseShape{128, 768, 3072}, 1},   // MLP up
      {DenseShape{128, 3072, 768}, 1},   // MLP down
  };
  m.reductions = {{ReductionShape{128, 768}, 2}};  // two LayerNorms
  return m;
}

Model mobilenet_edge() {
  Model m;
  m.name = "MobileNetEdge";
  // MobileNetV1-style separable blocks at 3 scales: each depthwise 3x3 is
  // paired with its 1x1 pointwise conv (a direct-conv task), ending in a
  // global average pool (row reduction over C x (H*W)) and the classifier.
  m.convs = {
      {conv(32, 112, 64, 1, 1, 0), 1},    // pointwise after dw1
      {conv(128, 56, 128, 1, 1, 0), 2},   // mid pointwise
      {conv(256, 14, 256, 1, 1, 0), 2},   // late pointwise
  };
  m.depthwises = {
      {DepthwiseShape{1, 32, 112, 112, 3, 3, 1, 1}, 1},
      {DepthwiseShape{1, 128, 56, 56, 3, 3, 1, 1}, 2},
      {DepthwiseShape{1, 256, 14, 14, 3, 3, 1, 1}, 2},
  };
  m.reductions = {{ReductionShape{256, 196}, 1}};  // global average pool
  m.denses = {{DenseShape{1, 256, 1000}, 1}};      // classifier
  return m;
}

std::vector<Model> scenario_models() { return {transformer_block(), mobilenet_edge()}; }

Model model_by_name(const std::string& name) {
  if (name == "alexnet") return alexnet();
  if (name == "resnet18") return resnet18();
  if (name == "vgg16") return vgg16();
  if (name == "transformer") return transformer_block();
  if (name == "mobilenet_edge") return mobilenet_edge();
  throw std::invalid_argument("unknown model '" + name + "'");
}

TaskSet::TaskSet(Model model) : model_(std::move(model)) {
  // Direct conv tasks in network order; remember each layer's task index.
  std::vector<std::size_t> direct_idx(model_.convs.size());
  for (std::size_t i = 0; i < model_.convs.size(); ++i) {
    direct_idx[i] = tasks_.size();
    tasks_.emplace_back(strformat("%s.T%02zu.conv2d", model_.name.c_str(), tasks_.size() + 1),
                        TemplateKind::kConv2d, model_.convs[i].shape);
  }
  // Winograd variants for eligible shapes.
  std::vector<std::size_t> wino_idx(model_.convs.size(),
                                    std::numeric_limits<std::size_t>::max());
  for (std::size_t i = 0; i < model_.convs.size(); ++i) {
    if (!model_.convs[i].shape.winograd_applicable()) continue;
    wino_idx[i] = tasks_.size();
    tasks_.emplace_back(
        strformat("%s.T%02zu.winograd", model_.name.c_str(), tasks_.size() + 1),
        TemplateKind::kConv2dWinograd, model_.convs[i].shape);
  }
  // Dense tasks.
  std::vector<std::size_t> dense_idx(model_.denses.size());
  for (std::size_t i = 0; i < model_.denses.size(); ++i) {
    dense_idx[i] = tasks_.size();
    tasks_.emplace_back(strformat("%s.T%02zu.dense", model_.name.c_str(), tasks_.size() + 1),
                        model_.denses[i].shape);
  }
  // Scenario-diversity tasks, appended after the paper's ordering so the
  // 1-based task indices of conv/winograd/dense tasks never move.
  std::vector<std::size_t> attn_idx(model_.attentions.size());
  for (std::size_t i = 0; i < model_.attentions.size(); ++i) {
    attn_idx[i] = tasks_.size();
    tasks_.emplace_back(
        strformat("%s.T%02zu.attention", model_.name.c_str(), tasks_.size() + 1),
        model_.attentions[i].shape);
  }
  std::vector<std::size_t> dw_idx(model_.depthwises.size());
  for (std::size_t i = 0; i < model_.depthwises.size(); ++i) {
    dw_idx[i] = tasks_.size();
    tasks_.emplace_back(
        strformat("%s.T%02zu.depthwise", model_.name.c_str(), tasks_.size() + 1),
        model_.depthwises[i].shape);
  }
  std::vector<std::size_t> red_idx(model_.reductions.size());
  for (std::size_t i = 0; i < model_.reductions.size(); ++i) {
    red_idx[i] = tasks_.size();
    tasks_.emplace_back(
        strformat("%s.T%02zu.reduce", model_.name.c_str(), tasks_.size() + 1),
        model_.reductions[i].shape);
  }

  for (std::size_t i = 0; i < model_.convs.size(); ++i) {
    LayerImpl impl;
    impl.task_indices.push_back(direct_idx[i]);
    if (wino_idx[i] != std::numeric_limits<std::size_t>::max())
      impl.task_indices.push_back(wino_idx[i]);
    impl.count = model_.convs[i].count;
    layers_.push_back(std::move(impl));
  }
  for (std::size_t i = 0; i < model_.denses.size(); ++i) {
    layers_.push_back(LayerImpl{{dense_idx[i]}, model_.denses[i].count});
  }
  for (std::size_t i = 0; i < model_.attentions.size(); ++i)
    layers_.push_back(LayerImpl{{attn_idx[i]}, model_.attentions[i].count});
  for (std::size_t i = 0; i < model_.depthwises.size(); ++i)
    layers_.push_back(LayerImpl{{dw_idx[i]}, model_.depthwises[i].count});
  for (std::size_t i = 0; i < model_.reductions.size(); ++i)
    layers_.push_back(LayerImpl{{red_idx[i]}, model_.reductions[i].count});
}

double TaskSet::end_to_end_latency(const std::vector<double>& best) const {
  GLIMPSE_CHECK(best.size() == tasks_.size());
  double total = 0.0;
  for (const auto& layer : layers_) {
    double fastest = std::numeric_limits<double>::infinity();
    for (std::size_t t : layer.task_indices)
      fastest = std::min(fastest, best[t]);
    if (!std::isfinite(fastest)) return std::numeric_limits<double>::infinity();
    total += fastest * layer.count;
  }
  return total;
}

std::size_t TaskSet::count_kind(TemplateKind kind) const {
  std::size_t n = 0;
  for (const auto& t : tasks_)
    if (t.kind() == kind) ++n;
  return n;
}

}  // namespace glimpse::searchspace
