// Code templates and their knob spaces, mirroring TVM's CUDA schedules for
// conv2d (direct), conv2d (Winograd) and dense — the three template kinds in
// the paper's Table 1 task breakdown — plus the scenario-diversity kinds:
// attention (batched matmul + softmax), depthwise conv2d, and row reduction.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "searchspace/config_space.hpp"

namespace glimpse::searchspace {

// Order matters: the first three are the paper's kinds and their values are
// baked into layer-feature one-hot slots and serialized task fingerprints.
// Append only.
enum class TemplateKind {
  kConv2d,
  kConv2dWinograd,
  kDense,
  kAttention,        ///< batched QK^T -> softmax -> AV
  kDepthwiseConv2d,  ///< per-channel conv, no cross-channel reduction
  kReduction,        ///< row-wise reduction of a [rows x cols] matrix
};

/// All template kinds, in enum order (for exhaustive iteration in tests and
/// sweeps).
inline constexpr TemplateKind kAllTemplateKinds[] = {
    TemplateKind::kConv2d,        TemplateKind::kConv2dWinograd,
    TemplateKind::kDense,         TemplateKind::kAttention,
    TemplateKind::kDepthwiseConv2d, TemplateKind::kReduction,
};

/// Stable serialization name. Exhaustive switch, no default: adding a kind
/// without a name is a compile error, not a silent "?".
const char* to_string(TemplateKind kind);

/// NCHW convolution workload (batch, channels, spatial, kernel, stride, pad).
struct ConvShape {
  int n = 1;
  int c = 0;  ///< input channels
  int h = 0;
  int w = 0;
  int k = 0;  ///< output channels
  int kh = 0;
  int kw = 0;
  int stride = 1;
  int pad = 0;

  int oh() const { return (h + 2 * pad - kh) / stride + 1; }
  int ow() const { return (w + 2 * pad - kw) / stride + 1; }
  /// Multiply-accumulate FLOPs of a direct convolution (2 * MACs).
  double flops() const;
  /// Winograd-eligible: unit stride and a small square kernel.
  bool winograd_applicable() const;
  std::string to_string() const;
};

/// Fully-connected workload.
struct DenseShape {
  int batch = 1;
  int in_dim = 0;
  int out_dim = 0;
  double flops() const { return 2.0 * batch * in_dim * out_dim; }
  std::string to_string() const;
};

/// Multi-head self-attention workload: per (batch, head) the kernel runs
/// [S x D] x [D x S] (QK^T), a row softmax, then [S x S] x [S x D] (AV).
struct AttentionShape {
  int batch = 1;
  int heads = 1;
  int seq_len = 0;   ///< S
  int head_dim = 0;  ///< D
  /// 2 GEMMs (2*S*S*D each) + softmax (~5 ops per score).
  double flops() const;
  std::string to_string() const;
};

/// Depthwise NCHW convolution: one filter per channel, no cross-channel
/// reduction (the MobileNet-style building block).
struct DepthwiseShape {
  int n = 1;
  int c = 0;  ///< channels (== groups == output channels)
  int h = 0;
  int w = 0;
  int kh = 0;
  int kw = 0;
  int stride = 1;
  int pad = 0;

  int oh() const { return (h + 2 * pad - kh) / stride + 1; }
  int ow() const { return (w + 2 * pad - kw) / stride + 1; }
  double flops() const;
  std::string to_string() const;
};

/// Row-wise reduction of a [rows x cols] matrix (global pooling, norm
/// statistics, softmax denominators): one add per element.
struct ReductionShape {
  int rows = 0;
  int cols = 0;
  double flops() const { return static_cast<double>(rows) * cols; }
  std::string to_string() const;
};

/// Winograd F(2x2, KxK) GEMM view of a convolution: `alpha^2` independent
/// [K x C] x [C x P] products over P output tiles.
struct WinogradGemm {
  int alpha = 0;       ///< transform tile size (m + kh - 1, m = 2)
  int num_tiles = 0;   ///< P = N * ceil(OH/m) * ceil(OW/m)
  double gemm_flops = 0.0;
};
WinogradGemm winograd_gemm(const ConvShape& shape);

/// Positions in a template's space of the knobs derive() reads, resolved by
/// name once per space (at Task construction) so featurization does no name
/// lookups. Splits are listed in the order each space builder below names
/// them; absent slots hold kNoKnob.
struct KnobSlots {
  static constexpr std::size_t kNoKnob = static_cast<std::size_t>(-1);
  std::array<std::size_t, 3> split4{kNoKnob, kNoKnob, kNoKnob};  ///< data-axis splits
  std::array<std::size_t, 3> split2{kNoKnob, kNoKnob, kNoKnob};  ///< reduction splits
  std::size_t unroll_step = kNoKnob;      ///< auto_unroll_max_step
  std::size_t unroll_explicit = kNoKnob;  ///< unroll_explicit
  std::size_t tensor_core = kNoKnob;      ///< kTensorCoreKnob (attention only)
};

/// Resolve `kind`'s knob slots in `space` (a space built by the builder for
/// `kind`); throws if a knob is missing.
KnobSlots resolve_knob_slots(TemplateKind kind, const ConfigSpace& space);

/// Knob space of the direct conv2d CUDA template:
///   tile_f/tile_y/tile_x: 4-way splits (block, vthread, thread, inner)
///   tile_rc/tile_ry/tile_rx: 2-way reduction splits (outer, inner)
///   auto_unroll_max_step in {0, 512, 1500}, unroll_explicit in {0, 1}.
ConfigSpace conv2d_direct_space(const ConvShape& shape);

/// Knob space of the Winograd conv2d CUDA template (batched-GEMM stage):
///   tile_b: 4-way split of alpha^2, tile_y: 4-way split of K,
///   tile_x: 4-way split of P, tile_rc: 2-way split of C, unroll knobs.
ConfigSpace conv2d_winograd_space(const ConvShape& shape);

/// Knob space of the dense CUDA template:
///   tile_y: 4-way split of out_dim, tile_x: 4-way split of batch,
///   tile_k: 2-way split of in_dim, unroll knobs.
ConfigSpace dense_space(const DenseShape& shape);

/// Name of the Bolt-style tensor-core template option; a categorical {0,1}
/// knob present on matmul-shaped spaces (attention today). Selecting 1 is
/// only *valid* on Blueprints whose tensor_cores field is non-zero — the
/// gpusim resource model enforces the gate; the tuner has to learn it.
inline constexpr const char* kTensorCoreKnob = "use_tensor_core";

/// Knob space of the fused attention CUDA template (batched-GEMM view):
///   tile_b: 4-way split of batch*heads, tile_y/tile_x: 4-way splits of
///   seq_len (score-matrix rows/cols), tile_k: 2-way split of head_dim,
///   unroll knobs, and the use_tensor_core option.
ConfigSpace attention_space(const AttentionShape& shape);

/// Knob space of the depthwise conv2d CUDA template:
///   tile_c: 4-way split of channels, tile_y/tile_x: 4-way splits of output
///   spatial dims, tile_ry/tile_rx: 2-way kernel splits, unroll knobs. No
///   channel reduction — each filter tap only reduces over its own window.
ConfigSpace depthwise_space(const DepthwiseShape& shape);

/// Knob space of the row-reduction CUDA template:
///   tile_y: 4-way split of rows, tile_x: 4-way split of cols (the "block"
///   part is split-K across blocks, the "thread" part a tree reduction),
///   unroll knobs.
ConfigSpace reduction_space(const ReductionShape& shape);

}  // namespace glimpse::searchspace
