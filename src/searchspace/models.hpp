// DNN model workload tables (AlexNet, ResNet-18, VGG-16 on ImageNet) and
// task extraction.
//
// Task extraction mirrors AutoTVM: one task per unique (template, shape)
// pair. Per the paper's Table 1 this yields
//   AlexNet: 12 tasks (5 conv2d, 4 winograd conv2d, 3 dense)
//   ResNet-18: 17 tasks (12 conv2d, 4 winograd conv2d, 1 dense)
//   VGG-16: 21 tasks (9 conv2d, 9 winograd conv2d, 3 dense)
// Tasks are ordered: direct convs (network order), then winograd convs,
// then dense layers — so the paper's "L7 of ResNet-18" style references map
// to 1-based indices into this ordering.
#pragma once

#include <string>
#include <vector>

#include "searchspace/task.hpp"

namespace glimpse::searchspace {

/// A unique conv workload and how many times it occurs in the network.
struct ConvWorkload {
  ConvShape shape;
  int count = 1;
};

/// A unique dense workload and its occurrence count.
struct DenseWorkload {
  DenseShape shape;
  int count = 1;
};

/// A unique attention workload and its occurrence count.
struct AttentionWorkload {
  AttentionShape shape;
  int count = 1;
};

/// A unique depthwise-conv workload and its occurrence count.
struct DepthwiseWorkload {
  DepthwiseShape shape;
  int count = 1;
};

/// A unique reduction workload and its occurrence count.
struct ReductionWorkload {
  ReductionShape shape;
  int count = 1;
};

struct Model {
  std::string name;
  std::vector<ConvWorkload> convs;    ///< unique shapes, network order
  std::vector<DenseWorkload> denses;  ///< unique shapes, network order
  // Scenario-diversity workloads (empty for the paper's three models, so
  // their Table 1 task extraction is untouched).
  std::vector<AttentionWorkload> attentions;
  std::vector<DepthwiseWorkload> depthwises;
  std::vector<ReductionWorkload> reductions;
};

Model alexnet();
Model resnet18();
Model vgg16();
/// The three evaluation models, in paper order.
std::vector<Model> evaluation_models();

/// A BERT-base-like transformer encoder block: multi-head self-attention,
/// the two MLP matmuls, and the LayerNorm reduction over hidden states.
Model transformer_block();
/// A MobileNet-style edge vision model: depthwise separable blocks
/// (depthwise + pointwise conv pairs), a global-pool reduction, and the
/// classifier matmul.
Model mobilenet_edge();
/// The scenario-diversity models (transformer_block, mobilenet_edge) —
/// every new template kind appears at least once across them.
std::vector<Model> scenario_models();

/// The model a job or tool names: "alexnet", "resnet18", "vgg16",
/// "transformer" or "mobilenet_edge". Throws std::invalid_argument on any
/// other name.
Model model_by_name(const std::string& name);

/// A model's tuning tasks plus the bookkeeping needed to assemble an
/// end-to-end inference latency from per-task tuning results.
class TaskSet {
 public:
  explicit TaskSet(Model model);

  const Model& model() const { return model_; }
  const std::vector<Task>& tasks() const { return tasks_; }
  const Task& task(std::size_t i) const { return tasks_[i]; }
  std::size_t num_tasks() const { return tasks_.size(); }

  /// One network layer: the tasks that can implement it (direct conv and,
  /// when applicable, its winograd variant — TVM picks the faster), and the
  /// number of times the layer occurs in the network.
  struct LayerImpl {
    std::vector<std::size_t> task_indices;
    int count = 1;
  };
  const std::vector<LayerImpl>& layers() const { return layers_; }

  /// End-to-end inference latency given per-task best latencies (seconds);
  /// entries must align with tasks(). Layers choose their fastest available
  /// implementation; missing (infinite) entries are skipped unless all of a
  /// layer's implementations are missing, in which case this returns +inf.
  double end_to_end_latency(const std::vector<double>& best_latency_per_task) const;

  std::size_t count_kind(TemplateKind kind) const;

 private:
  Model model_;
  std::vector<Task> tasks_;
  std::vector<LayerImpl> layers_;
};

}  // namespace glimpse::searchspace
