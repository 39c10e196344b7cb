#include "searchspace/task.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace glimpse::searchspace {

namespace {
double log2p(double v) { return std::log2(v + 1.0); }
}  // namespace

Task::Task(std::string name, TemplateKind kind, const ConvShape& shape)
    : name_(std::move(name)), kind_(kind), conv_(shape) {
  GLIMPSE_CHECK(kind == TemplateKind::kConv2d || kind == TemplateKind::kConv2dWinograd);
  flops_ = shape.flops();  // both templates report against direct-conv FLOPs
  space_ = (kind == TemplateKind::kConv2d) ? conv2d_direct_space(shape)
                                           : conv2d_winograd_space(shape);
  slots_ = resolve_knob_slots(kind_, space_);
}

Task::Task(std::string name, const DenseShape& shape)
    : name_(std::move(name)), kind_(TemplateKind::kDense), dense_(shape) {
  flops_ = shape.flops();
  space_ = dense_space(shape);
  slots_ = resolve_knob_slots(kind_, space_);
}

Task::Task(std::string name, const AttentionShape& shape)
    : name_(std::move(name)), kind_(TemplateKind::kAttention), attention_(shape) {
  flops_ = shape.flops();
  space_ = attention_space(shape);
  slots_ = resolve_knob_slots(kind_, space_);
}

Task::Task(std::string name, const DepthwiseShape& shape)
    : name_(std::move(name)), kind_(TemplateKind::kDepthwiseConv2d),
      depthwise_(shape) {
  flops_ = shape.flops();
  space_ = depthwise_space(shape);
  slots_ = resolve_knob_slots(kind_, space_);
}

Task::Task(std::string name, const ReductionShape& shape)
    : name_(std::move(name)), kind_(TemplateKind::kReduction), reduction_(shape) {
  flops_ = shape.flops();
  space_ = reduction_space(shape);
  slots_ = resolve_knob_slots(kind_, space_);
}

const ConvShape& Task::conv_shape() const {
  GLIMPSE_CHECK(kind_ == TemplateKind::kConv2d ||
                kind_ == TemplateKind::kConv2dWinograd)
      << name_ << " is not a convolution task";
  return conv_;
}

const DenseShape& Task::dense_shape() const {
  GLIMPSE_CHECK(kind_ == TemplateKind::kDense) << name_ << " is not a dense task";
  return dense_;
}

const AttentionShape& Task::attention_shape() const {
  GLIMPSE_CHECK(kind_ == TemplateKind::kAttention)
      << name_ << " is not an attention task";
  return attention_;
}

const DepthwiseShape& Task::depthwise_shape() const {
  GLIMPSE_CHECK(kind_ == TemplateKind::kDepthwiseConv2d)
      << name_ << " is not a depthwise task";
  return depthwise_;
}

const ReductionShape& Task::reduction_shape() const {
  GLIMPSE_CHECK(kind_ == TemplateKind::kReduction)
      << name_ << " is not a reduction task";
  return reduction_;
}

linalg::Vector Task::layer_features() const {
  linalg::Vector f(layer_feature_dim(), 0.0);
  // One-hot template kind over slots [0, 6); enum values index directly, so
  // the paper's three kinds keep their original slots.
  f[static_cast<std::size_t>(kind_)] = 1.0;
  // Shared shape-block layout from slot 6: [6] batch-ish, [7] input/reduce
  // dim, [8]/[9] spatial-ish dims, [10] output dim, [11..14] kernel/stride/
  // pad, [15] output elements, [16] log-FLOPs, [17..18] template extras.
  switch (kind_) {
    case TemplateKind::kConv2d:
    case TemplateKind::kConv2dWinograd:
      f[6] = log2p(conv_.n);
      f[7] = log2p(conv_.c);
      f[8] = log2p(conv_.h);
      f[9] = log2p(conv_.w);
      f[10] = log2p(conv_.k);
      f[11] = conv_.kh;
      f[12] = conv_.kw;
      f[13] = conv_.stride;
      f[14] = conv_.pad;
      f[15] = log2p(static_cast<double>(conv_.oh()) * conv_.ow());
      f[16] = log2p(conv_.flops());
      if (kind_ == TemplateKind::kConv2dWinograd) {
        WinogradGemm g = winograd_gemm(conv_);
        f[17] = g.alpha;
        f[18] = log2p(g.num_tiles);
      }
      break;
    case TemplateKind::kDense:
      f[6] = log2p(dense_.batch);
      f[7] = log2p(dense_.in_dim);
      f[10] = log2p(dense_.out_dim);
      f[16] = log2p(dense_.flops());
      break;
    case TemplateKind::kAttention:
      f[6] = log2p(attention_.batch);
      f[7] = log2p(attention_.head_dim);
      f[8] = log2p(attention_.seq_len);
      f[9] = log2p(attention_.heads);
      f[10] = log2p(attention_.seq_len);
      f[16] = log2p(attention_.flops());
      break;
    case TemplateKind::kDepthwiseConv2d:
      f[6] = log2p(depthwise_.n);
      f[7] = log2p(depthwise_.c);
      f[8] = log2p(depthwise_.h);
      f[9] = log2p(depthwise_.w);
      f[10] = log2p(depthwise_.c);
      f[11] = depthwise_.kh;
      f[12] = depthwise_.kw;
      f[13] = depthwise_.stride;
      f[14] = depthwise_.pad;
      f[15] = log2p(static_cast<double>(depthwise_.oh()) * depthwise_.ow());
      f[16] = log2p(depthwise_.flops());
      break;
    case TemplateKind::kReduction:
      f[6] = log2p(reduction_.rows);
      f[7] = log2p(reduction_.cols);
      f[16] = log2p(reduction_.flops());
      break;
  }
  return f;
}

std::size_t Task::layer_feature_dim() { return 19; }

std::uint64_t Task::seed() const { return fnv1a(name_); }

}  // namespace glimpse::searchspace
