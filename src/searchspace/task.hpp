// A tuning task: one (template kind, workload shape) pair with its knob
// space. Matches AutoTVM's notion of a task extracted from a DNN graph;
// Table 1's task counts (12 / 17 / 21) are over these.
#pragma once

#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "searchspace/config_space.hpp"
#include "searchspace/templates.hpp"

namespace glimpse::searchspace {

class Task {
 public:
  /// Direct or Winograd convolution task.
  Task(std::string name, TemplateKind kind, const ConvShape& shape);
  /// Dense task.
  Task(std::string name, const DenseShape& shape);
  /// Attention task.
  Task(std::string name, const AttentionShape& shape);
  /// Depthwise conv2d task.
  Task(std::string name, const DepthwiseShape& shape);
  /// Row-reduction task.
  Task(std::string name, const ReductionShape& shape);

  const std::string& name() const { return name_; }
  TemplateKind kind() const { return kind_; }
  const ConfigSpace& space() const { return space_; }
  /// Where derive() finds this template's knobs in space().
  const KnobSlots& knob_slots() const { return slots_; }
  const ConvShape& conv_shape() const;
  const DenseShape& dense_shape() const;
  const AttentionShape& attention_shape() const;
  const DepthwiseShape& depthwise_shape() const;
  const ReductionShape& reduction_shape() const;

  /// Nominal FLOPs used to report GFLOPS. For Winograd we follow TVM and
  /// report against the *direct-conv* FLOP count so GFLOPS of the two
  /// templates for the same layer are comparable (Winograd does fewer real
  /// multiplies, which shows up as >peak "effective" GFLOPS).
  double flops() const { return flops_; }

  /// Fixed-length numeric description of the workload — the "layer
  /// specification" input of the paper's prior generator H, and a feature
  /// block for transfer-learning cost models.
  linalg::Vector layer_features() const;
  static std::size_t layer_feature_dim();

  /// Deterministic seed derived from the task name.
  std::uint64_t seed() const;

 private:
  std::string name_;
  TemplateKind kind_;
  ConvShape conv_{};
  DenseShape dense_{};
  AttentionShape attention_{};
  DepthwiseShape depthwise_{};
  ReductionShape reduction_{};
  double flops_ = 0.0;
  ConfigSpace space_;
  KnobSlots slots_;
};

}  // namespace glimpse::searchspace
