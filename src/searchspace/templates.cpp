#include "searchspace/templates.hpp"

#include <stdexcept>

#include "common/logging.hpp"
#include "common/strutil.hpp"

namespace glimpse::searchspace {

const char* to_string(TemplateKind kind) {
  // Exhaustive: -Wswitch flags a missing kind, and there is deliberately no
  // fallback return — a new kind can never silently serialize as another.
  switch (kind) {
    case TemplateKind::kConv2d: return "conv2d";
    case TemplateKind::kConv2dWinograd: return "winograd_conv2d";
    case TemplateKind::kDense: return "dense";
    case TemplateKind::kAttention: return "attention";
    case TemplateKind::kDepthwiseConv2d: return "depthwise_conv2d";
    case TemplateKind::kReduction: return "reduction";
  }
  throw std::logic_error("invalid TemplateKind value");
}

double ConvShape::flops() const {
  return 2.0 * n * k * oh() * ow() * c * kh * kw;
}

bool ConvShape::winograd_applicable() const {
  return stride == 1 && kh == kw && (kh == 3 || kh == 5) && oh() >= 2 && ow() >= 2;
}

std::string ConvShape::to_string() const {
  return strformat("conv(N%d C%d %dx%d -> K%d k%dx%d s%d p%d)", n, c, h, w, k, kh, kw,
                   stride, pad);
}

std::string DenseShape::to_string() const {
  return strformat("dense(B%d %d -> %d)", batch, in_dim, out_dim);
}

double AttentionShape::flops() const {
  double scores = static_cast<double>(batch) * heads * seq_len * seq_len;
  return 4.0 * scores * head_dim + 5.0 * scores;
}

std::string AttentionShape::to_string() const {
  return strformat("attention(B%d H%d S%d D%d)", batch, heads, seq_len, head_dim);
}

double DepthwiseShape::flops() const {
  return 2.0 * n * c * oh() * ow() * kh * kw;
}

std::string DepthwiseShape::to_string() const {
  return strformat("depthwise(N%d C%d %dx%d k%dx%d s%d p%d)", n, c, h, w, kh, kw,
                   stride, pad);
}

std::string ReductionShape::to_string() const {
  return strformat("reduce(%dx%d)", rows, cols);
}

WinogradGemm winograd_gemm(const ConvShape& shape) {
  GLIMPSE_CHECK(shape.winograd_applicable()) << shape.to_string();
  constexpr int m = 2;  // F(2x2, KxK)
  WinogradGemm g;
  g.alpha = m + shape.kh - 1;
  int tiles_h = (shape.oh() + m - 1) / m;
  int tiles_w = (shape.ow() + m - 1) / m;
  g.num_tiles = shape.n * tiles_h * tiles_w;
  g.gemm_flops = 2.0 * g.alpha * g.alpha * static_cast<double>(shape.k) * shape.c *
                 g.num_tiles;
  return g;
}

ConfigSpace conv2d_direct_space(const ConvShape& shape) {
  GLIMPSE_CHECK(shape.c > 0 && shape.k > 0 && shape.oh() > 0 && shape.ow() > 0)
      << "bad conv shape " << shape.to_string();
  std::vector<Knob> knobs;
  knobs.push_back(Knob::split("tile_f", shape.k, 4));
  knobs.push_back(Knob::split("tile_y", shape.oh(), 4));
  knobs.push_back(Knob::split("tile_x", shape.ow(), 4));
  knobs.push_back(Knob::split("tile_rc", shape.c, 2));
  knobs.push_back(Knob::split("tile_ry", shape.kh, 2));
  knobs.push_back(Knob::split("tile_rx", shape.kw, 2));
  knobs.push_back(Knob::categorical("auto_unroll_max_step", {0, 512, 1500}));
  knobs.push_back(Knob::categorical("unroll_explicit", {0, 1}));
  return ConfigSpace(std::move(knobs));
}

ConfigSpace conv2d_winograd_space(const ConvShape& shape) {
  WinogradGemm g = winograd_gemm(shape);
  std::vector<Knob> knobs;
  knobs.push_back(Knob::split("tile_b", g.alpha * g.alpha, 4));
  knobs.push_back(Knob::split("tile_y", shape.k, 4));
  knobs.push_back(Knob::split("tile_x", g.num_tiles, 4));
  knobs.push_back(Knob::split("tile_rc", shape.c, 2));
  knobs.push_back(Knob::categorical("auto_unroll_max_step", {0, 128, 1500}));
  knobs.push_back(Knob::categorical("unroll_explicit", {0, 1}));
  return ConfigSpace(std::move(knobs));
}

ConfigSpace dense_space(const DenseShape& shape) {
  GLIMPSE_CHECK(shape.in_dim > 0 && shape.out_dim > 0 && shape.batch > 0);
  std::vector<Knob> knobs;
  knobs.push_back(Knob::split("tile_y", shape.out_dim, 4));
  knobs.push_back(Knob::split("tile_x", shape.batch, 4));
  knobs.push_back(Knob::split("tile_k", shape.in_dim, 2));
  knobs.push_back(Knob::categorical("auto_unroll_max_step", {0, 512, 1500}));
  knobs.push_back(Knob::categorical("unroll_explicit", {0, 1}));
  return ConfigSpace(std::move(knobs));
}

ConfigSpace attention_space(const AttentionShape& shape) {
  GLIMPSE_CHECK(shape.batch > 0 && shape.heads > 0 && shape.seq_len > 0 &&
                shape.head_dim > 0)
      << "bad attention shape " << shape.to_string();
  std::vector<Knob> knobs;
  knobs.push_back(Knob::split("tile_b", shape.batch * shape.heads, 4));
  knobs.push_back(Knob::split("tile_y", shape.seq_len, 4));
  knobs.push_back(Knob::split("tile_x", shape.seq_len, 4));
  knobs.push_back(Knob::split("tile_k", shape.head_dim, 2));
  knobs.push_back(Knob::categorical("auto_unroll_max_step", {0, 512, 1500}));
  knobs.push_back(Knob::categorical("unroll_explicit", {0, 1}));
  knobs.push_back(Knob::categorical(kTensorCoreKnob, {0, 1}));
  return ConfigSpace(std::move(knobs));
}

ConfigSpace depthwise_space(const DepthwiseShape& shape) {
  GLIMPSE_CHECK(shape.c > 0 && shape.oh() > 0 && shape.ow() > 0)
      << "bad depthwise shape " << shape.to_string();
  std::vector<Knob> knobs;
  knobs.push_back(Knob::split("tile_c", shape.c, 4));
  knobs.push_back(Knob::split("tile_y", shape.oh(), 4));
  knobs.push_back(Knob::split("tile_x", shape.ow(), 4));
  knobs.push_back(Knob::split("tile_ry", shape.kh, 2));
  knobs.push_back(Knob::split("tile_rx", shape.kw, 2));
  knobs.push_back(Knob::categorical("auto_unroll_max_step", {0, 512, 1500}));
  knobs.push_back(Knob::categorical("unroll_explicit", {0, 1}));
  return ConfigSpace(std::move(knobs));
}

ConfigSpace reduction_space(const ReductionShape& shape) {
  GLIMPSE_CHECK(shape.rows > 0 && shape.cols > 0)
      << "bad reduction shape " << shape.to_string();
  std::vector<Knob> knobs;
  knobs.push_back(Knob::split("tile_y", shape.rows, 4));
  knobs.push_back(Knob::split("tile_x", shape.cols, 4));
  knobs.push_back(Knob::categorical("auto_unroll_max_step", {0, 512, 1500}));
  knobs.push_back(Knob::categorical("unroll_explicit", {0, 1}));
  return ConfigSpace(std::move(knobs));
}

KnobSlots resolve_knob_slots(TemplateKind kind, const ConfigSpace& space) {
  struct Names {
    std::array<const char*, 3> split4{};
    std::array<const char*, 3> split2{};
    bool tensor_core = false;
  };
  const Names names = [kind]() -> Names {
    switch (kind) {
      case TemplateKind::kConv2d:
        return {{"tile_f", "tile_y", "tile_x"}, {"tile_rc", "tile_ry", "tile_rx"}};
      case TemplateKind::kConv2dWinograd:
        return {{"tile_b", "tile_y", "tile_x"}, {"tile_rc"}};
      case TemplateKind::kDense: return {{"tile_y", "tile_x"}, {"tile_k"}};
      case TemplateKind::kAttention:
        return {{"tile_b", "tile_y", "tile_x"}, {"tile_k"}, true};
      case TemplateKind::kDepthwiseConv2d:
        return {{"tile_c", "tile_y", "tile_x"}, {"tile_ry", "tile_rx"}};
      case TemplateKind::kReduction: return {{"tile_y", "tile_x"}, {}};
    }
    throw std::logic_error("invalid TemplateKind value");
  }();
  KnobSlots slots;
  for (std::size_t i = 0; i < 3; ++i) {
    if (names.split4[i]) slots.split4[i] = space.knob_index(names.split4[i]);
    if (names.split2[i]) slots.split2[i] = space.knob_index(names.split2[i]);
  }
  slots.unroll_step = space.knob_index("auto_unroll_max_step");
  slots.unroll_explicit = space.knob_index("unroll_explicit");
  if (names.tensor_core) slots.tensor_core = space.knob_index(kTensorCoreKnob);
  return slots;
}

}  // namespace glimpse::searchspace
